//! Entry point: dispatches to [`chiron_cli::commands`].

use chiron_cli::args::parse;
use chiron_cli::commands::{self, usage};
use chiron_telemetry::RuntimeConfig;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    // Every CHIRON_* variable is read once, here, and passed down.
    let rt = RuntimeConfig::from_env();
    let result = match parsed.command.as_deref() {
        Some("train") => commands::train(&parsed, &rt),
        Some("eval") => commands::eval(&parsed, &rt),
        Some("compare") => commands::compare(&parsed, &rt),
        Some("sweep") => commands::sweep(&parsed, &rt),
        Some("run") => commands::run(&parsed),
        Some("serve") => commands::serve(&parsed),
        Some("info") => {
            commands::info();
            Ok(())
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n\n{}", usage());
            std::process::exit(2);
        }
        None => {
            print!("{}", usage());
            Ok(())
        }
    };
    if let Err(e) = result {
        // An interrupted run flushed its state cleanly; the distinct exit
        // code lets scripts tell it apart from a failure.
        if matches!(e, commands::CliError::Interrupted) {
            eprintln!("{e}");
            std::process::exit(chiron_serve::shutdown::EXIT_INTERRUPTED);
        }
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
