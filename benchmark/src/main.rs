//! `endurance-benchmark`: see `endurance_benchmark::cli`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(err) = endurance_benchmark::cli::main(&args) {
        eprintln!("endurance-benchmark: {err}");
        std::process::exit(match err {
            endurance_benchmark::BenchError::Usage(_) => 2,
            _ => 1,
        });
    }
}
