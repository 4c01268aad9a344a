//! Host provenance and process memory, recorded with every result so runs
//! are only compared like with like.

use std::path::Path;

use dpcons_obs::jsonv::Value;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the source tree the benchmark was built from, read from
/// `.git` next to the benchmark directory ("unknown" outside a git checkout).
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r))
                .or_else(|| {
                    read(&git.join("packed-refs")).and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// The calibration loop's median time on the 2-vCPU Xeon host the
/// benchmark was built on, ms. Normalised times are stated for a host that
/// runs the loop in this time, so there they read close to wall time.
pub const NOMINAL_CALIB_MS: f64 = 28.0;

/// Time a fixed host-speed calibration loop, ms. It exercises what the
/// simulator leans on: a fresh 33 MiB buffer (above the allocator's mmap
/// threshold, so every call page-faults like the 32 MiB consolidation pool)
/// with every page touched, 8 MiB of it written (memory bandwidth), 256 Ki
/// random reads (cache and TLB misses) and a data-dependent branchy loop
/// (like the bytecode VM's dispatch). The shared host's speed drifts by ±15% over minutes;
/// dividing an op's wall time by the reading taken next to it removes most
/// of that drift.
pub fn calibration_ms() -> f64 {
    const LCG_MUL: u64 = 6364136223846793005;
    const LCG_ADD: u64 = 1442695040888963407;
    let started = std::time::Instant::now();
    let mut buf = vec![0u64; (33 << 20) / 8];
    for page in buf.chunks_mut(512) {
        page[0] = 1;
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for v in &mut buf[..1 << 20] {
        x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        *v = x;
    }
    let mask = buf.len() - 1;
    let mut acc = 0u64;
    for _ in 0..1 << 18 {
        x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        acc = acc.wrapping_add(buf[(x >> 20) as usize % mask]);
    }
    for i in 0..1u64 << 19 {
        acc = match (acc ^ i) % 5 {
            0 => acc.wrapping_mul(3).wrapping_add(i),
            1 => acc.rotate_left(7) ^ i,
            2 => acc.wrapping_sub(i >> 3),
            3 => acc ^ (acc >> 11),
            _ => acc.wrapping_add(0x9E37),
        };
    }
    std::hint::black_box((acc, buf));
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The provenance block: host, toolchain, source and run parameters.
pub fn provenance(params: Vec<(&str, Value)>) -> Value {
    let mut obj: std::collections::BTreeMap<String, Value> = [
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model())),
        ("rustc", Value::Str(rustc_version())),
        ("git_commit", Value::Str(git_commit())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    obj.extend(params.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Obj(obj)
}
