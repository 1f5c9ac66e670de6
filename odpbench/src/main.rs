//! `odpbench --workload <flood|congestion> --seed <n>
//! --seconds <n> --trace <0|1> [--tiny]`
//!
//! Prints notes, `sim_digest`, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its Chrome trace to `odpbench/out/`.

use std::process::ExitCode;

#[global_allocator]
static ALLOC: odpbench::alloc::Counting = odpbench::alloc::Counting;

fn main() -> ExitCode {
    let args = match odpbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("odpbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = odpbench::run(&args);
    for note in &out.notes {
        println!("# {note}");
    }
    if let Some(trace) = &out.chrome_trace {
        let dir = std::path::Path::new("odpbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => println!("# chrome trace: {}", path.display()),
            Err(e) => {
                eprintln!("odpbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("sim_digest {:016x}", out.sim_digest);
    println!("{}", out.json());
    ExitCode::SUCCESS
}
