//! Command line of the dpcons benchmark.
//!
//! ```text
//! dpbench --workload <matrix-test|matrix-bench|tune|fleet> --seed <n>
//!         --seconds <s> --trace <0|1> [--apps A,B] [--record] [--out-dir DIR]
//! ```
//!
//! The last line of standard output is the result as one JSON object.

use std::path::PathBuf;

use dpcons_dpbench::run::{run, Args};
use dpcons_dpbench::workload::Workload;

fn usage(msg: &str) -> ! {
    eprintln!("dpbench: {msg}");
    eprintln!(
        "usage: dpbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--apps A,B] [--record] [--out-dir DIR]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2)
}

fn parse() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut apps, mut record, mut out_dir) = (Vec::new(), false, None);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage(&format!("{a} needs a value")));
        match a.as_str() {
            "--workload" => {
                let v = val();
                workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{v}`"))),
                );
            }
            "--seed" => {
                seed =
                    Some(val().parse::<u64>().unwrap_or_else(|_| usage("--seed takes an integer")))
            }
            "--seconds" => {
                let s = val().parse::<f64>().unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(s > 0.0 && s.is_finite()) {
                    usage("--seconds must be positive");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--apps" => {
                apps = val().split(',').filter(|s| !s.is_empty()).map(str::to_string).collect()
            }
            "--record" => record = true,
            "--out-dir" => out_dir = Some(PathBuf::from(val())),
            _ => usage(&format!("unknown argument `{a}`")),
        }
    }
    // Default output directory: next to the executable, inside the build
    // directory.
    let out_dir = out_dir.unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("dpbench-out")))
            .unwrap_or_else(|| PathBuf::from("dpbench-out"))
    });
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        apps,
        record,
        out_dir,
    }
}

fn main() {
    let args = parse();
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        usage(&format!("cannot create {}: {e}", args.out_dir.display()));
    }
    std::process::exit(run(&args));
}
