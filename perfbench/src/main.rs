//! The repository benchmark: one binary, three workloads, end-to-end and
//! per-layer metrics.
//!
//! ```text
//! perfbench --workload ycsb-serve|tpcc-wave|ycsb-par64 --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets the workload up and measures it pass after pass until
//! `--seconds` have passed (at least [`MIN_PASSES`] passes), then runs the
//! workload's output checks. Every pass uses the same seed, so its
//! simulated results must be identical.
//!
//! The simulator's speed is reported as `run_rel`: the median pass's host
//! time divided by the median host time of a fixed calibration kernel
//! ([`calibrate`]), timed [`CAL_PER_GAP`] times between every two
//! measurements of the run. On a shared host, other tenants slow the
//! process by up to 2× and for minutes at a time; the kernel slows with
//! the simulator, so the ratio moves far less than the raw seconds.
//! `setup_s`, the median set-up, is calibrated the same way and reported
//! in seconds of the reference host ([`CAL_REFERENCE_S`]). The raw
//! seconds are reported too (`host.setup_s`, `host.run_s`). With
//! `--trace 1` the passes alternate between untraced and traced (host
//! timers around every layer call), the per-layer metrics come from a
//! traced pass, and the tracing overhead is the gap between the traced
//! and the untraced passes' median run time.
//!
//! The last line of standard output is the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`; the lines above
//! it are the detail (host identity, spreads, sample counts, check
//! verdicts). `perfbench/run.py` builds this binary, runs it, and adds the
//! process's peak resident memory to the end-to-end metrics.
//!
//! See `perfbench/NOTES.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

mod serve;
mod wave;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Passes a run makes even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Open-loop YCSB-C served into the cycle-accurate machine.
    YcsbServe,
    /// Closed-loop TPC-C NewOrder+Payment waves, serial.
    TpccWave,
    /// Closed-loop YCSB wave on 64 workers over 2 chips, epoch-parallel.
    YcsbPar64,
}

impl WorkloadName {
    fn parse(s: &str) -> Option<WorkloadName> {
        match s {
            "ycsb-serve" => Some(WorkloadName::YcsbServe),
            "tpcc-wave" => Some(WorkloadName::TpccWave),
            "ycsb-par64" => Some(WorkloadName::YcsbPar64),
            _ => None,
        }
    }
}

/// Command-line arguments.
pub struct Args {
    /// Which workload to run.
    pub workload: WorkloadName,
    /// Input seed: arrival times and transaction parameters derive from it.
    pub seed: u64,
    /// Measuring time budget, host seconds.
    pub seconds: f64,
    /// Print per-layer metrics from a traced pass instead of end-to-end.
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload ycsb-serve|tpcc-wave|ycsb-par64 --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = WorkloadName::parse(v),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Quartiles `(q1, median, q3)` of host-time samples, by the same
/// "exclusive" method as Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |k: f64| {
        // Position k·(n+1)/4 (1-based), clamped to the sample range.
        let pos = (k * (n as f64 + 1.0) / 4.0).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let a = v[lo - 1];
        let b = v[lo.min(n - 1)];
        a + (b - a) * frac
    };
    (q(1.0), q(2.0), q(3.0))
}

/// The fastest of a run's host-time samples.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median of a run's samples.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// Exact nearest-rank percentile of `sorted` (ascending); `u64::MAX`
/// entries stand for requests that failed and rank beyond any limit.
pub fn rank_percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

/// Chunks of one calibration kernel.
const CAL_CHUNKS: usize = 100;
/// Random keys each chunk sorts.
const CAL_CHUNK_KEYS: usize = 4_000;
/// Random updates each chunk makes to an ordered map.
const CAL_CHUNK_UPDATES: usize = 1_000;
/// Distinct keys of that map.
const CAL_MAP_KEYS: u64 = 1 << 16;
/// The kernel's median time on the 2-vCPU host the benchmark was written
/// on, in a quiet stretch. `setup_s` is reported in seconds of that host:
/// the median set-up over the median kernel, times this.
const CAL_REFERENCE_S: f64 = 0.0157;
/// Kernels timed between two measurements. One kernel is short (15–25 ms
/// on the 2-vCPU host the benchmark was written on), and the host's speed
/// moves within a second, so the run's median kernel time needs many
/// samples spread over the run.
pub const CAL_PER_GAP: usize = 3;

/// Host seconds of one calibration kernel on the calling thread:
/// [`CAL_CHUNKS`] chunks, each sorting [`CAL_CHUNK_KEYS`] random keys and
/// making [`CAL_CHUNK_UPDATES`] random updates to a `BTreeMap`. That is
/// branchy, data-dependent code over a few megabytes, like the
/// simulator's loop; kernels of that kind tracked the simulator's
/// slowdowns on a shared host far better than pointer chasing or plain
/// arithmetic did (see `perfbench/NOTES.md`). It runs on one thread for
/// every workload, `ycsb-par64` included: two kernels meeting at a
/// barrier after every chunk, as the epoch-parallel simulator's threads
/// meet after every epoch, overstated the host's barrier cost by far.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys = Vec::with_capacity(CAL_CHUNK_KEYS);
    let mut map = BTreeMap::new();
    for _ in 0..CAL_CHUNKS {
        keys.clear();
        keys.extend((0..CAL_CHUNK_KEYS).map(|_| next() as u32));
        keys.sort_unstable();
        std::hint::black_box(keys[CAL_CHUNK_KEYS / 2]);
        for _ in 0..CAL_CHUNK_UPDATES {
            *map.entry(next() % CAL_MAP_KEYS).or_insert(0u64) += 1;
        }
    }
    std::hint::black_box(map.len());
    secs(t)
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// An ordered set of named metrics with units.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.0.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    /// Append each of `names` as 0: the metrics of a layer the workload
    /// bypasses or cannot reach.
    pub fn put_zeros(&mut self, names: &[(&str, &'static str)]) {
        for &(name, unit) in names {
            self.put(name, 0.0, unit);
        }
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Operations attempted (requests offered, or transactions submitted).
    pub attempted: u64,
    /// Operations that ended in error: a wave transaction that never
    /// committed, or a served request that aborted with no retry left.
    /// Requests the server sheds or times out under overload are measured
    /// outcomes, reported by `good_frac`, not errors.
    pub failed: u64,
    /// Output-check failures (empty = every check passed).
    pub check_failures: Vec<String>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Metrics,
}

/// A run's host times: set-ups, passes and calibration kernels.
pub struct HostTimes {
    /// Set-up time of every machine built for a measured pass.
    pub setup_s: Vec<f64>,
    /// Measured-run time of every untraced pass.
    pub run_s: Vec<f64>,
    /// Measured-run time of every traced pass.
    pub traced_run_s: Vec<f64>,
    /// Every calibration kernel time, in order.
    pub calib_s: Vec<f64>,
}

impl HostTimes {
    /// Start the record with a first gap of calibration kernels.
    pub fn start() -> HostTimes {
        let mut times = HostTimes {
            setup_s: Vec::new(),
            run_s: Vec::new(),
            traced_run_s: Vec::new(),
            calib_s: Vec::new(),
        };
        times.calibrate_gap();
        times
    }

    /// Time [`CAL_PER_GAP`] calibration kernels, between two
    /// measurements.
    pub fn calibrate_gap(&mut self) {
        for _ in 0..CAL_PER_GAP {
            self.calib_s.push(calibrate());
        }
    }

    /// Record one pass's run time.
    pub fn push_pass(&mut self, traced: bool, run_s: f64) {
        if traced {
            self.traced_run_s.push(run_s);
        } else {
            self.run_s.push(run_s);
        }
    }

    /// Put the end-to-end host metrics: the median set-up in seconds of
    /// the reference host ([`CAL_REFERENCE_S`]), and the median untraced
    /// pass over the median calibration kernel.
    pub fn put_end_to_end(&self, out: &mut Metrics) {
        let kernel_s = median(&self.calib_s);
        out.put(
            "setup_s",
            median(&self.setup_s) / kernel_s * CAL_REFERENCE_S,
            "s",
        );
        out.put("run_rel", median(&self.run_s) / kernel_s, "x");
    }

    /// Put the raw host times (median set-up, median untraced pass,
    /// median kernel) and the tracing overhead: the median traced pass
    /// less the median untraced one. The two kinds of pass alternate, so
    /// the host's speed weighs on both alike.
    pub fn put_host_and_overhead(&self, out: &mut Metrics) {
        let run_s = median(&self.run_s);
        out.put("host.setup_s", median(&self.setup_s), "s");
        out.put("host.run_s", run_s, "s");
        out.put("host.calib_s", median(&self.calib_s), "s");
        let overhead = median(&self.traced_run_s) - run_s;
        out.put("trace.overhead_s", overhead, "s");
        out.put("trace.overhead_frac", overhead / run_s, "frac");
    }

    /// Print the number of samples and the fastest, median and quartiles
    /// of each host-time series.
    pub fn print(&self) {
        let mut line = String::from("spread:");
        for (name, v) in [
            ("setup_s", &self.setup_s),
            ("run_s", &self.run_s),
            ("traced_run_s", &self.traced_run_s),
            ("calib_s", &self.calib_s),
        ] {
            if v.is_empty() {
                continue;
            }
            let (q1, m, q3) = quartiles(v);
            let _ = write!(
                line,
                " {name} n={} fastest={:.6} median={m:.6} q1={q1:.6} q3={q3:.6};",
                v.len(),
                fastest(v)
            );
        }
        println!("{line}");
    }
}

/// Whether another pass fits: always until [`MIN_PASSES`], then while the
/// time budget lasts.
pub fn keep_going(passes: usize, started: Instant, budget_s: f64) -> bool {
    passes < MIN_PASSES || secs(started) < budget_s
}

fn host_line(args: &Args) -> String {
    // Usable CPUs; run.py pins a single-threaded workload to one, and
    // passes the host's own count in PERFBENCH_HOST_CPUS.
    let usable = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpus = std::env::var("PERFBENCH_HOST_CPUS").unwrap_or_else(|_| usable.to_string());
    let tag = std::env::var("PERFBENCH_HOST_TAG").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "host: cpus={cpus} usable_cpus={usable} tag={tag} arch={} os={} workload={:?} seed={} \
         seconds={} trace={}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() {
    let args = parse_args();
    println!("{}", host_line(&args));
    let out = match args.workload {
        WorkloadName::YcsbServe => serve::run(&args),
        WorkloadName::TpccWave | WorkloadName::YcsbPar64 => wave::run(&args),
    };
    for f in &out.check_failures {
        println!("check FAILED: {f}");
    }
    let correct = out.check_failures.is_empty();
    println!("checks: {}", if correct { "all passed" } else { "FAILED" });
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.json()
    );
}
