use std::fmt;

use xloops_func::{ExecError, ExecFault};
use xloops_isa::Reg;
use xloops_lpsu::LpsuError;
use xloops_stats::JsonValue;

/// The one canonical error-document shape every machine-readable surface
/// uses: `{"message": ..., "exit_code": ...}`. The CLI's `--stats json`
/// error output and `bench-summary`'s `"errors"` array both render
/// through here, so a client parses one schema no matter which surface
/// produced the failure.
/// Failures with no [`SimError`] class behind them (panics, verification
/// failures) use the generic exit code `1`.
pub fn error_doc(message: &str, exit_code: i32) -> JsonValue {
    JsonValue::object(vec![
        ("message", JsonValue::Str(message.to_string())),
        ("exit_code", JsonValue::Int(exit_code as i64)),
    ])
}

/// Errors surfaced by a system-level run — the typed, non-panicking
/// taxonomy every engine's failure threads through. Each variant carries
/// the diagnostics needed for a one-line report (pc, cycle, stalled
/// contexts), and [`SimError::exit_code`] maps the class to a distinct CLI
/// exit status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The functional core faulted (invalid pc, step-limit exhaustion, or
    /// an architectural fault such as a misaligned access).
    Exec(ExecError),
    /// Specialized or adaptive execution was requested on a system with no
    /// LPSU.
    NoLpsu,
    /// The LPSU wedged: no context can issue and no pending event can
    /// unblock one (an engine invariant violation or an injected dropped
    /// publish, surfaced instead of aborting the process).
    NoForwardProgress {
        /// pc of the loop's `xloop` instruction.
        pc: u32,
        /// LPSU-phase cycle at which the wedge was detected.
        cycle: u64,
        /// Number of contexts holding a stalled, uncommitted iteration.
        stalled: u32,
    },
    /// A lane instruction faulted architecturally during a specialized
    /// phase (misaligned access).
    LpsuFault {
        /// pc of the loop's `xloop` instruction.
        pc: u32,
        /// LPSU-phase cycle of the faulting issue.
        cycle: u64,
        /// The fault itself.
        fault: ExecFault,
    },
    /// The fault injector raised a spurious engine fault during a
    /// specialized phase.
    Injected {
        /// pc of the loop's `xloop` instruction.
        pc: u32,
        /// LPSU-phase cycle at which the fault fired.
        cycle: u64,
    },
    /// A specialized phase completed but its architectural handback is
    /// unusable: the last committed iteration never published a
    /// cross-iteration register.
    CorruptHandback {
        /// pc of the loop's `xloop` instruction.
        pc: u32,
        /// The iteration whose publish is missing.
        iter: u64,
        /// The unpublished cross-iteration register.
        reg: Reg,
    },
    /// The supervisor's cycle budget was exceeded before `exit`.
    CycleBudget {
        /// The configured budget in cycles.
        budget: u64,
        /// Cycles consumed when the budget check fired.
        cycles: u64,
    },
    /// An engine violated a run-protocol invariant (a stop reason that the
    /// requested run options cannot produce).
    Protocol(&'static str),
}

impl SimError {
    /// Converts an LPSU-phase error, attaching the loop pc the LPSU error
    /// types do not all carry.
    pub(crate) fn from_lpsu(e: LpsuError, pc: u32) -> SimError {
        match e {
            LpsuError::NoForwardProgress { cycle, pc: loop_pc, stalled } => {
                SimError::NoForwardProgress { pc: loop_pc.max(pc), cycle, stalled }
            }
            LpsuError::Injected { cycle } => SimError::Injected { pc, cycle },
            LpsuError::Fault { cycle, fault } => SimError::LpsuFault { pc, cycle, fault },
            LpsuError::MissingCir { iter, reg } => SimError::CorruptHandback { pc, iter, reg },
        }
    }

    /// Whether this error was raised by (or about) a specialized phase the
    /// supervisor can recover from, by rewinding to the last checkpoint
    /// and retrying or degrading the loop to the GPP.
    pub fn is_lpsu_recoverable(&self) -> bool {
        matches!(
            self,
            SimError::NoForwardProgress { .. }
                | SimError::LpsuFault { .. }
                | SimError::Injected { .. }
                | SimError::CorruptHandback { .. }
        )
    }

    /// The loop pc of an LPSU-phase error, if this is one.
    pub fn lpsu_pc(&self) -> Option<u32> {
        match *self {
            SimError::NoForwardProgress { pc, .. }
            | SimError::LpsuFault { pc, .. }
            | SimError::Injected { pc, .. }
            | SimError::CorruptHandback { pc, .. } => Some(pc),
            _ => None,
        }
    }

    /// The process exit code for this error class: `3` for a wedge
    /// (`NoForwardProgress`), `4` for a fault (architectural, injected, or
    /// corrupt handback), `5` for an exceeded cycle budget, `1` otherwise.
    pub fn exit_code(&self) -> i32 {
        match self {
            SimError::NoForwardProgress { .. } => 3,
            SimError::Exec(ExecError::Fault { .. })
            | SimError::LpsuFault { .. }
            | SimError::Injected { .. }
            | SimError::CorruptHandback { .. } => 4,
            SimError::CycleBudget { .. } => 5,
            _ => 1,
        }
    }

    /// The error as the canonical [`error_doc`] document: the one-line
    /// diagnosis plus the class's exit code.
    pub fn to_json_value(&self) -> JsonValue {
        error_doc(&self.to_string(), self.exit_code())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "execution error: {e}"),
            SimError::NoLpsu => f.write_str("this system configuration has no LPSU"),
            SimError::NoForwardProgress { pc, cycle, stalled } => {
                write!(
                    f,
                    "no forward progress: loop pc {pc:#x}, {stalled} stalled contexts, \
                     wedged at cycle {cycle}"
                )
            }
            SimError::LpsuFault { pc, cycle, fault } => {
                write!(f, "LPSU fault in loop at pc {pc:#x} (cycle {cycle}): {fault}")
            }
            SimError::Injected { pc, cycle } => {
                write!(f, "injected fault in loop at pc {pc:#x} (cycle {cycle})")
            }
            SimError::CorruptHandback { pc, iter, reg } => {
                write!(
                    f,
                    "corrupt handback from loop at pc {pc:#x}: iteration {iter} never \
                     published cross-iteration register {reg}"
                )
            }
            SimError::CycleBudget { budget, cycles } => {
                write!(f, "cycle budget exceeded: {cycles} cycles spent (budget {budget})")
            }
            SimError::Protocol(what) => write!(f, "run-protocol violation: {what}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_classes_have_distinct_exit_codes() {
        assert_eq!(SimError::NoForwardProgress { pc: 0, cycle: 0, stalled: 0 }.exit_code(), 3);
        assert_eq!(SimError::Injected { pc: 0, cycle: 0 }.exit_code(), 4);
        let budget = SimError::CycleBudget { budget: 1, cycles: 2 };
        assert_eq!(budget.exit_code(), 5);
        assert_eq!(SimError::Protocol("x").exit_code(), 1);
        // The error document carries the class's exit code.
        assert_eq!(budget.to_json_value().render(), error_doc(&budget.to_string(), 5).render(),);
    }
}
