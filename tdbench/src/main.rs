//! `td-bench` — see [`tdbench::cli`] for the command line.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::ExitCode::from(u8::try_from(tdbench::cli::main(&args)).unwrap_or(2))
}
