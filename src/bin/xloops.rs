//! The `xloops` command-line tool: assemble, disassemble, and simulate
//! XLOOPS binaries, and run the bundled paper kernels. See `xloops help`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match xloops::cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match xloops::cli::execute(cmd) {
        Ok(output) => emit(output),
        Err(e) => {
            // A failure may still carry output (a swept shard file, a
            // merged render with quarantined points); machine-readable
            // mode gets a parseable document on stdout; the human
            // diagnosis goes to stderr either way.
            if let Some(output) = e.output {
                emit(*output);
            }
            if let Some(json) = e.json {
                print!("{json}");
            }
            eprintln!("error: {}", e.message);
            std::process::exit(e.code);
        }
    }
}

/// Prints a command's text and writes its file, if any.
fn emit((text, file): xloops::cli::CommandOutput) {
    print!("{text}");
    if let Some((path, bytes)) = file {
        if let Err(e) = std::fs::write(&path, bytes) {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
