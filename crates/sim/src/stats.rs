use xloops_energy::{EnergyTable, EventCounts};
use xloops_gpp::GppStats;
use xloops_lpsu::LpsuStats;
use xloops_stats::{ratio, StatSet};

use crate::sampling::SamplingStats;
use crate::supervisor::SupervisorStats;

/// Statistics of one system-level run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SystemStats {
    /// End-to-end cycles (GPP clock; the GPP stalls while the LPSU runs,
    /// so this covers both).
    pub cycles: u64,
    /// GPP-side statistics.
    pub gpp: GppStats,
    /// LPSU-side statistics, merged over all specialized phases.
    pub lpsu: LpsuStats,
    /// Cycles spent inside specialized-execution phases (including scans).
    pub lpsu_cycles: u64,
    /// Scan phases performed.
    pub scans: u64,
    /// Instructions streamed into instruction buffers by scans.
    pub scan_instrs: u64,
    /// xloop instances executed on the LPSU.
    pub xloops_specialized: u64,
    /// xloop pcs that fell back to traditional execution (scan rejected).
    pub xloops_fallback: u64,
    /// Adaptive decisions that chose the GPP.
    pub adaptive_to_gpp: u64,
    /// Adaptive decisions that chose the LPSU.
    pub adaptive_to_lpsu: u64,
    /// Total dynamic instructions (GPP + LPSU, squashed work excluded).
    pub instret: u64,
    /// Dynamic energy in nanojoules under the system's energy table.
    pub energy_nj: f64,
    /// Supervisor activity (checkpoints, rewinds, degradations); all zero
    /// for unsupervised runs.
    pub supervisor: SupervisorStats,
    /// Interval-sampling measurements and the extrapolation error bar;
    /// `None` for full (unsampled) runs.
    pub sampling: Option<SamplingStats>,
    /// Host wall-time breakdown per simulation phase; `None` unless
    /// profiling is on ([`crate::System::set_profiling`], which the
    /// benchmark's traced run sets).
    pub profile: Option<ProfileStats>,
}

/// Host wall-clock nanoseconds spent in each phase of a run — where the
/// *simulator* spends its time, as opposed to where the simulated machine
/// spends its cycles. The one stat family that is not deterministic, which
/// is why it only appears when explicitly requested and is kept out of
/// every golden artifact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Wall time inside cycle-accurate GPP phases.
    pub gpp_ns: u64,
    /// Wall time inside LPSU scan phases.
    pub scan_ns: u64,
    /// Wall time inside LPSU engine (specialized-execution) phases.
    pub engine_ns: u64,
    /// GPP→LPSU handoffs (scan attempts, accepted or rejected).
    pub handoffs: u64,
}

impl ProfileStats {
    /// The breakdown as a `profile` node of the unified stats schema.
    pub fn stat_set(&self) -> StatSet {
        let mut s = StatSet::new("profile");
        s.set("gpp_ns", self.gpp_ns)
            .set("scan_ns", self.scan_ns)
            .set("engine_ns", self.engine_ns)
            .set("handoffs", self.handoffs);
        s
    }
}

impl SystemStats {
    /// Builds the energy event set and totals from the raw component stats.
    pub(crate) fn finalize(&mut self, table: &EnergyTable, is_ooo: bool) {
        self.instret = self.gpp.instret + self.lpsu.instret;
        self.energy_nj = self.events(is_ooo).energy_nj(table);
    }

    /// The energy event counts of this run.
    pub fn events(&self, is_ooo: bool) -> EventCounts {
        let gpp_events = EventCounts::from_gpp_mix(&self.gpp.mix, self.gpp.mispredicts, is_ooo);
        let l = &self.lpsu;
        let fetched = l.instret + l.squashed_instrs;
        let lpsu_events = EventCounts {
            ibuf_fetches: fetched,
            alu_ops: fetched.saturating_sub(l.llfu_ops + l.mem_accesses + l.xi_ops),
            llfu_ops: l.llfu_ops,
            dcache_accesses: l.mem_accesses,
            rf_reads: 2 * fetched,
            rf_writes: fetched,
            lsq_events: l.lsq_events,
            xi_muls: l.xi_ops,
            cir_transfers: l.cir_transfers,
            scan_instrs: self.scan_instrs,
            ..EventCounts::default()
        };
        gpp_events.add(&lpsu_events)
    }

    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        ratio(self.instret, self.cycles)
    }

    /// The whole run as one tree of the unified schema.
    ///
    /// Root node `system` carries the end-to-end counters (`cycles`,
    /// `instret`, `lpsu_cycles`, scan and xloop-dispatch counts) and the
    /// derived `ipc` / `energy_nj` metrics; children are the component
    /// trees [`GppStats::stat_set`] (`gpp`), [`LpsuStats::stat_set`]
    /// (`lpsu`), and [`EventCounts::stat_set`] (`energy`). `is_ooo` selects
    /// the energy-event accounting, exactly as in [`SystemStats::events`].
    pub fn stat_set(&self, is_ooo: bool) -> StatSet {
        let mut s = StatSet::new("system");
        s.set("cycles", self.cycles)
            .set("instret", self.instret)
            .set("lpsu_cycles", self.lpsu_cycles)
            .set("scans", self.scans)
            .set("scan_instrs", self.scan_instrs)
            .set("xloops_specialized", self.xloops_specialized)
            .set("xloops_fallback", self.xloops_fallback)
            .set("adaptive_to_gpp", self.adaptive_to_gpp)
            .set("adaptive_to_lpsu", self.adaptive_to_lpsu)
            .set_metric("ipc", self.ipc())
            .set_metric("energy_nj", self.energy_nj);
        s.push_child(self.gpp.stat_set());
        s.push_child(self.lpsu.stat_set());
        s.push_child(self.events(is_ooo).stat_set());
        // Only supervised runs carry a supervisor child, so unsupervised
        // stat trees (and their JSON renderings) are byte-identical to
        // pre-supervisor output.
        if self.supervisor != SupervisorStats::default() {
            s.push_child(self.supervisor.stat_set());
        }
        // Likewise, only sampled runs carry a sampling child.
        if let Some(sampling) = &self.sampling {
            s.push_child(sampling.stat_set());
        }
        // And only profiled runs a (non-deterministic) profile child.
        if let Some(profile) = &self.profile {
            s.push_child(profile.stat_set());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_zero_for_zero_cycle_runs() {
        let s = SystemStats::default();
        assert_eq!(s.ipc(), 0.0);
        let s = SystemStats { instret: 7, ..SystemStats::default() };
        assert_eq!(s.ipc(), 0.0, "no NaN from a zero-cycle run");
        let s = SystemStats { instret: 30, cycles: 10, ..SystemStats::default() };
        assert_eq!(s.ipc(), 3.0);
    }

    #[test]
    fn stat_set_mirrors_components_and_energy_events() {
        let mut s = SystemStats { cycles: 100, xloops_specialized: 2, ..SystemStats::default() };
        s.gpp.cycles = 60;
        s.gpp.instret = 50;
        s.gpp.mix.alu = 50;
        s.lpsu.exec = 40;
        s.lpsu.stall_lsq = 4;
        s.lpsu.instret = 40;
        s.instret = 90;
        let set = s.stat_set(false);
        assert_eq!(set.name(), "system");
        assert_eq!(set.lookup("cycles").unwrap().as_counter(), Some(100));
        assert_eq!(set.lookup("ipc").unwrap().as_f64(), 0.9);
        assert_eq!(set.lookup("gpp.instret").unwrap().as_counter(), Some(50));
        assert_eq!(set.lookup("lpsu.stalls.lsq").unwrap().as_counter(), Some(4));
        // The energy child agrees with `events`: same accounting, one schema.
        let ev = s.events(false);
        assert_eq!(set.lookup("energy.ibuf_fetches").unwrap().as_counter(), Some(ev.ibuf_fetches));
        assert_eq!(
            set.lookup("energy.icache_fetches").unwrap().as_counter(),
            Some(ev.icache_fetches)
        );
        // OoO accounting only differs in the ooo_instrs event.
        let ooo = s.stat_set(true);
        assert_eq!(set.lookup("energy.ooo_instrs").unwrap().as_counter(), Some(0));
        assert_eq!(ooo.lookup("energy.ooo_instrs").unwrap().as_counter(), Some(50));
    }
}
