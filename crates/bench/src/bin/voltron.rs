//! The `voltron` command line; see `voltron_bench::cli` for the commands.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    std::process::exit(voltron_bench::cli::main(&argv));
}
