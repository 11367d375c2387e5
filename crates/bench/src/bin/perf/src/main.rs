//! Seeded performance benchmark of the PaSTRI stack: durable ingest,
//! codec kernels, and remote block fetch under a direct-SCF scan and a
//! hot re-read mix. See README.md for the workloads and metrics.
//!
//! ```text
//! perf [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! perf compare <runs-A/> <runs-B/>
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is its JSON result. Without it, every
//! workload runs in a child process of its own, one after another.

mod compare;
mod layers;
mod stats;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use workloads::{Input, Run, Workload, FULL};

const USAGE: &str =
    "usage: perf [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]\n       \
                     perf compare <runs-A/> <runs-B/>";

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(o)
}

fn json_result(out: &workloads::Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// `cpu_set_t` of the C library: a bit mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines this thread, and every thread it starts later, to the lowest
/// CPU it may run on, and returns that CPU.
///
/// On a shared 2-vCPU host the hypervisor at times withholds a vCPU for
/// milliseconds. A request that hands off between threads on both vCPUs
/// then waits for the withheld one: in four interleaved pairs of
/// `scf_scan` runs, the throughput spread 55–109 MB/s unpinned and
/// 119–131 MB/s on one CPU.
fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .ok_or("empty CPU affinity mask")?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn run_one(workload: Workload, o: &Options) -> Result<(), String> {
    let run = Run {
        workload,
        seed: o.seed,
        seconds: o.seconds as f64,
        trace: o.trace,
        sizes: FULL,
    };
    // The inputs are generated on every CPU; the generator's threads have
    // ended when it returns, and every thread started after the pinning
    // inherits its mask.
    let input = Input::generate(run.sizes.blocks, run.seed)?;
    let cpu = pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    // The parallel runtime sizes its crews from available_parallelism,
    // which the pinning makes 1, unless RAYON_NUM_THREADS overrides it.
    println!(
        "perf workload={} seed={} seconds={} trace={} cpu={cpu} available_parallelism={} rayon_num_threads={}",
        workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())
    );
    let out = workloads::run(&run, &input)?;
    println!("{}", out.measured);
    println!("{}", out.tallies);
    println!("{}", json_result(&out));
    Ok(())
}

/// Runs every workload, each in a fresh process so that none inherits
/// another's heap, caches or threads.
fn run_all(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &o.seed.to_string()])
            .args([
                "--seconds",
                &o.seconds.to_string(),
                "--trace",
                if o.trace { "1" } else { "0" },
            ])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("perf: workload {} failed", w.name());
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(Path::new(a), Path::new(b), Path::new("BENCHMARK.json")) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perf compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse(&args) {
        Ok(o) => match o.workload {
            Some(w) => match run_one(w, &o) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perf: {}: {e}", w.name());
                    ExitCode::FAILURE
                }
            },
            None => run_all(&o),
        },
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{self, Value};
    use workloads::Sizes;

    const TINY: Sizes = Sizes {
        blocks: 32,
        codec_blocks: 4,
        batch_blocks: 8,
        request_blocks: 4,
        setups: 2,
        relay_requests: 4,
    };

    /// `(name, unit)` of every metric in one list of BENCHMARK.json.
    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_workload_emits_the_declared_metrics_and_repeats_its_tallies() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let declared_workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
                    .to_string()
            })
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared_workloads, names);

        for workload in Workload::ALL {
            for trace in [false, true] {
                let run = Run {
                    workload,
                    seed: 3,
                    seconds: 0.2,
                    trace,
                    sizes: TINY,
                };
                let tiny_run = || {
                    let input = Input::generate(TINY.blocks, run.seed).expect("tiny input");
                    workloads::run(&run, &input).expect("tiny run")
                };
                let (first, second) = (tiny_run(), tiny_run());
                assert_eq!(
                    first.tallies,
                    second.tallies,
                    "{} tallies must be seed-pure",
                    workload.name()
                );
                for out in [&first, &second] {
                    assert!(out.failed == 0, "{} failed ops", workload.name());
                    assert!(out.attempted > 0);
                    // The result line parses and carries exactly the declared metrics.
                    let emitted = json::parse(&json_result(out)).expect("result is JSON");
                    let Some(Value::Obj(metrics)) = emitted.get("metrics") else {
                        panic!("no metrics")
                    };
                    let want = declared(&doc, if trace { "per_layer" } else { "end_to_end" });
                    assert_eq!(
                        metrics.len(),
                        want.len(),
                        "{} trace={trace}",
                        workload.name()
                    );
                    for (name, unit) in want {
                        let m = metrics
                            .get(&name)
                            .unwrap_or_else(|| panic!("{name} missing"));
                        assert_eq!(
                            m.get("unit").and_then(Value::as_str),
                            Some(unit.as_str()),
                            "{name}"
                        );
                        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    }
                }
                let telemetry_drops = first
                    .metrics
                    .iter()
                    .find(|m| m.name == "telemetry.spans_dropped");
                assert!(telemetry_drops.is_none_or(|m| m.value == 0.0));
            }
        }
    }
}
