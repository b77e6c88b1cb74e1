//! `ycsb-serve`: open-loop Poisson YCSB-C (read-homed) served into the
//! cycle-accurate machine through `BionicServeEngine` — 2 workers,
//! `ServeConfig::controlled`, batching off.
//!
//! One measured pass serves the three frozen rates ([`LOW_RPS`],
//! [`KNEE_RPS`], [`OVER_RPS`]), each on a freshly built engine. After the
//! passes, a bisection finds the highest rate whose p99 meets
//! [`P99_LIMIT_NS`] without a growing backlog.
//!
//! Latencies are exact. [`Recorder`] wraps the engine, records every
//! dispatched ticket and every completion, and the sojourn of a request
//! is its commit time minus its due time (`Completion::done_ns −
//! Ticket::born_ns`). A request that is shed, times out or aborts has no
//! sojourn and ranks beyond any limit. The front end's log2
//! `ServeSummary::sojourn` histogram is not used.

use std::time::Instant;

use bionicdb_bench::serve::engine::serve_with;
use bionicdb_bench::serve::hw::{hw_servers, BionicServeEngine};
use bionicdb_bench::serve::{
    ArrivalGen, ArrivalProcess, Completion, Dispatch, ServeConfig, ServeEngine, ServeSummary,
    Ticket,
};
use bionicdb_workloads::ServeKind;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{keep_going, rank_percentile, secs, Args, HostTimes, Metrics, Outcome};

/// Offered rate well below capacity, requests per simulated second.
///
/// The three rates, the deadline and the limit are frozen absolute values.
/// They were derived once from the machine's closed-wave capacity,
/// 318 016 req/s (`probe_hw(ServeKind::YcsbC, 2, 192)`, the probe
/// `saturate --engine hw` runs), and are never re-probed: a later change
/// that moves capacity shows as moved latency and goodput at the same
/// offered load.
pub const LOW_RPS: f64 = 160_000.0;
/// Offered rate below capacity (≈0.82×), where queueing shows in p99. It
/// sits under the 0.9× first suggested for it because the p99 of a run at
/// 0.9× moved by a quarter from seed to seed (74–99 µs over six seeds at
/// 24 000 requests); at 0.82× it moves by under a tenth.
pub const KNEE_RPS: f64 = 260_000.0;
/// Offered rate past capacity (≈1.5×): admission control sheds.
pub const OVER_RPS: f64 = 480_000.0;
/// Relative deadline per request, simulated nanoseconds.
pub const DEADLINE_NS: u64 = 400_000;
/// The latency limit: p99 sojourn at most this, simulated nanoseconds.
pub const P99_LIMIT_NS: u64 = 100_000;
/// The three frozen rates with their labels and fresh requests per run, in
/// serving order. The knee carries the gated p99, so it runs longest.
const RATES: [(&str, f64, usize); 3] = [
    ("low", LOW_RPS, 8_000),
    ("knee", KNEE_RPS, 24_000),
    ("over", OVER_RPS, 8_000),
];
/// Partition workers the served machine simulates.
const WORKERS: usize = 2;
/// Bisection steps of the limit search.
const SEARCH_STEPS: usize = 5;
/// Fresh requests offered per run of the limit search.
const SEARCH_REQUESTS: usize = 8_000;

/// A [`ServeEngine`] around [`BionicServeEngine`] that records every
/// dispatch and completion (for exact latencies) and, when traced, times
/// the engine calls.
struct Recorder<'a> {
    engine: &'a mut BionicServeEngine,
    traced: bool,
    /// `(ticket, dispatch time)` per dispatch.
    dispatches: Vec<(Ticket, u64)>,
    completions: Vec<Completion>,
    dispatch_s: f64,
    advance_s: f64,
    advance_calls: u64,
}

impl ServeEngine for Recorder<'_> {
    fn servers(&self) -> usize {
        self.engine.servers()
    }

    fn dispatch(&mut self, tk: &Ticket, now_ns: u64) -> Dispatch {
        self.dispatches.push((*tk, now_ns));
        if !self.traced {
            return self.engine.dispatch(tk, now_ns);
        }
        let t = Instant::now();
        let d = self.engine.dispatch(tk, now_ns);
        self.dispatch_s += secs(t);
        d
    }

    fn in_flight(&self) -> usize {
        self.engine.in_flight()
    }

    fn advance(&mut self, to_ns: u64) -> Vec<Completion> {
        self.advance_calls += 1;
        let done = if self.traced {
            let t = Instant::now();
            let done = self.engine.advance(to_ns);
            self.advance_s += secs(t);
            done
        } else {
            self.engine.advance(to_ns)
        };
        self.completions.extend_from_slice(&done);
        done
    }
}

/// One rate served on a fresh engine.
struct RateRun {
    setup_s: f64,
    run_s: f64,
    sum: ServeSummary,
    /// Exact sojourn per fresh request, ns, ascending; `u64::MAX` for a
    /// request that did not commit by its deadline.
    sojourn: Vec<u64>,
    /// p99 sojourn of the last quarter of requests (by birth order).
    tail_p99: u64,
    /// Due → dispatch wait of every first attempt, ns, ascending.
    queue_wait: Vec<u64>,
    /// Dispatch → completion time of every execution, ns, ascending.
    service: Vec<u64>,
    /// Largest gap between a request's scheduled due time and the time
    /// the front end issued it, ns.
    lateness_ns: u64,
    dispatch_s: f64,
    advance_s: f64,
    advance_calls: u64,
    fails: Vec<String>,
}

impl RateRun {
    fn p(&self, pct: f64) -> u64 {
        rank_percentile(&self.sojourn, pct)
    }

    /// The limit holds, and the last quarter of the run meets it too (a
    /// backlog that grows through the run shows there first).
    fn meets_limit(&self) -> bool {
        self.p(99.0) <= P99_LIMIT_NS && self.tail_p99 <= P99_LIMIT_NS
    }

    /// The run's simulated results: identical for every pass of a seed.
    fn sim_signature(&self) -> String {
        format!("{} {:?}", self.sum.render_json("s"), self.sojourn)
    }
}

/// Serve `requests` fresh requests at `rate` on a freshly built engine.
fn serve_rate(rate: f64, requests: usize, seed: u64, traced: bool) -> RateRun {
    let cfg = ServeConfig::controlled(
        ArrivalProcess::Poisson { rate_per_sec: rate },
        requests,
        DEADLINE_NS,
        hw_servers(ServeKind::YcsbC, WORKERS),
        seed,
    );
    let t = Instant::now();
    let mut engine = BionicServeEngine::new(ServeKind::YcsbC, WORKERS, None, &cfg);
    let setup_s = secs(t);
    let mut rec = Recorder {
        engine: &mut engine,
        traced,
        dispatches: Vec::with_capacity(2 * requests),
        completions: Vec::with_capacity(2 * requests),
        dispatch_s: 0.0,
        advance_s: 0.0,
        advance_calls: 0,
    };
    let t = Instant::now();
    let sum = serve_with(&mut rec, &cfg);
    let run_s = secs(t);
    sum.assert_conserved();

    let mut fails = Vec::new();
    let n = sum.fresh as usize;
    if n != requests {
        fails.push(format!("{rate} req/s: offered {n} of {requests} requests"));
    }
    // Exact sojourns: a request is good iff one of its executions
    // committed by its deadline (the front end's own verdict).
    let mut by_id = vec![u64::MAX; n];
    for c in &rec.completions {
        if c.committed && c.done_ns <= c.ticket.deadline_ns {
            let slot = &mut by_id[c.ticket.id as usize];
            if *slot != u64::MAX {
                fails.push(format!("request {} committed twice", c.ticket.id));
            }
            *slot = c.done_ns - c.ticket.born_ns;
        }
    }
    let good = by_id.iter().filter(|&&s| s != u64::MAX).count() as u64;
    if good != sum.good {
        fails.push(format!(
            "{rate} req/s: {good} requests commit in time, ledger says {}",
            sum.good
        ));
    }
    if rec.dispatches.len() as u64 != sum.executed || rec.completions.len() as u64 != sum.executed {
        fails.push(format!(
            "{rate} req/s: {} dispatches and {} completions for {} executions",
            rec.dispatches.len(),
            rec.completions.len(),
            sum.executed
        ));
    }
    let mut tail: Vec<u64> = by_id[n - n / 4..].to_vec();
    tail.sort_unstable();
    let mut sojourn = by_id;
    sojourn.sort_unstable();

    // The generator's lateness: regenerate the arrival schedule from the
    // seed and compare it with the due time every first attempt carried.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut gen = ArrivalGen::new(cfg.arrivals);
    let mut due = Vec::with_capacity(n);
    let mut t_ns = 0u64;
    for _ in 0..n {
        t_ns += gen.next_gap_ns(&mut rng);
        due.push(t_ns);
    }
    let mut lateness_ns = 0u64;
    let mut queue_wait = Vec::with_capacity(n);
    for &(tk, at) in rec.dispatches.iter().filter(|(tk, _)| tk.attempt == 0) {
        lateness_ns = lateness_ns.max(tk.born_ns.abs_diff(due[tk.id as usize]));
        if at < tk.born_ns {
            fails.push(format!("request {} dispatched before it was due", tk.id));
        }
        queue_wait.push(at.saturating_sub(tk.born_ns));
    }
    queue_wait.sort_unstable();
    let mut service: Vec<u64> = rec.completions.iter().map(|c| c.svc_ns).collect();
    service.sort_unstable();
    if lateness_ns != 0 {
        fails.push(format!("{rate} req/s: arrivals ran {lateness_ns} ns late"));
    }

    RateRun {
        setup_s,
        run_s,
        tail_p99: rank_percentile(&tail, 99.0),
        sum,
        sojourn,
        queue_wait,
        service,
        lateness_ns,
        dispatch_s: rec.dispatch_s,
        advance_s: rec.advance_s,
        advance_calls: rec.advance_calls,
        fails,
    }
}

/// The three frozen rates, served once each.
struct Pass {
    runs: [RateRun; 3],
}

impl Pass {
    /// Serve the three rates, with a gap of calibration kernels after each.
    fn serve(seed: u64, traced: bool, times: &mut HostTimes) -> Pass {
        let runs = RATES.map(|(_, rate, n)| {
            let run = serve_rate(rate, n, seed, traced);
            times.calibrate_gap();
            run
        });
        Pass { runs }
    }

    fn run_s(&self) -> f64 {
        self.runs.iter().map(|r| r.run_s).sum()
    }

    fn sim_signature(&self) -> String {
        self.runs.iter().map(RateRun::sim_signature).collect()
    }
}

/// Highest offered rate (req/s) that meets the limit without a growing
/// backlog: bisection over seeded runs, bracketed by the frozen rates the
/// pass already served (0 when even the low rate misses; capped at the
/// over rate when that one meets it). Each search run builds an engine
/// like a pass does, so its set-up time joins `times`.
fn slo_max_rps(seed: u64, pass: &Pass, times: &mut HostTimes) -> (f64, Vec<String>) {
    let mut fails = Vec::new();
    let (mut lo, mut hi) = (0.0, f64::INFINITY);
    for ((_, rate, _), run) in RATES.iter().zip(&pass.runs) {
        if run.meets_limit() {
            lo = f64::max(lo, *rate);
        } else {
            hi = f64::min(hi, *rate);
        }
    }
    if hi < lo {
        fails.push("a lower frozen rate misses the limit while a higher one meets it".to_string());
    }
    if !hi.is_finite() || hi < lo {
        return (lo, fails);
    }
    for _ in 0..SEARCH_STEPS {
        let mid = (lo + hi) / 2.0;
        let run = serve_rate(mid, SEARCH_REQUESTS, seed, false);
        times.setup_s.push(run.setup_s);
        fails.extend(run.fails.iter().cloned());
        if run.meets_limit() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, fails)
}

/// The `serve` layer's metric names and units, in report order.
pub const SERVE_LAYER_METRICS: [(&str, &str); 15] = [
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.service_us.p50", "us"),
    ("serve.service_us.p99", "us"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("serve.retries", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.host_dispatch_s", "s"),
    ("serve.host_advance_s", "s"),
    ("serve.host_loop_s", "s"),
    ("serve.advance_calls", "count"),
    ("serve.p50_us.low", "us"),
    ("serve.p99_us.low", "us"),
    ("serve.slo_max_krps", "kreq/s"),
];

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Run `ycsb-serve`.
pub fn run(args: &Args) -> Outcome {
    let mut times = HostTimes::start();
    let mut fails = Vec::new();
    let mut untraced: Option<Pass> = None;
    let mut traced: Option<Pass> = None;
    let started = Instant::now();
    let mut passes = 0;
    while keep_going(passes, started, args.seconds) {
        let trace_pass = args.trace && passes % 2 == 1;
        let pass = Pass::serve(args.seed, trace_pass, &mut times);
        times.setup_s.extend(pass.runs.iter().map(|r| r.setup_s));
        times.push_pass(trace_pass, pass.run_s());
        if let Some(first) = untraced.as_ref().or(traced.as_ref()) {
            if first.sim_signature() != pass.sim_signature() {
                fails.push(format!(
                    "pass {passes} simulated different results than pass 0"
                ));
            }
        }
        for r in &pass.runs {
            fails.extend(r.fails.iter().cloned());
        }
        if trace_pass {
            traced.get_or_insert(pass);
        } else {
            untraced.get_or_insert(pass);
        }
        passes += 1;
    }
    let pass = untraced.expect("at least one untraced pass");
    let [low, knee, over] = &pass.runs;
    let (slo_rps, slo_fails) = slo_max_rps(args.seed, &pass, &mut times);
    times.print();
    fails.extend(slo_fails);

    let fresh: u64 = pass.runs.iter().map(|r| r.sum.fresh).sum();
    let good: u64 = pass.runs.iter().map(|r| r.sum.good).sum();
    for ((label, rate, _), r) in RATES.iter().zip(&pass.runs) {
        let s = &r.sum;
        println!(
            "rate {label}: offered={:.0}/s samples={} good={} late={} timed_out={} shed={} \
             aborted={} retries={} p50_us={:.3} p99_us={} tail_p99_us={} goodput_krps={:.3} \
             gen_lateness_ns={} (exact; the log2 histogram says p99 {:.0} ns)",
            rate,
            r.sojourn.len(),
            s.good,
            s.late,
            s.timed_out,
            s.shed,
            s.aborted,
            s.retries,
            us(r.p(50.0)),
            fmt_us(r.p(99.0)),
            fmt_us(r.tail_p99),
            s.goodput_per_sec() / 1e3,
            r.lateness_ns,
            s.sojourn.p99(),
        );
    }
    println!(
        "serve: fail_frac={:.6} goodput_krps.over={:.3} slo_max_krps={:.3} \
         (limit p99 <= {} us, deadline {} us)",
        1.0 - good as f64 / fresh as f64,
        over.sum.goodput_per_sec() / 1e3,
        slo_rps / 1e3,
        us(P99_LIMIT_NS),
        us(DEADLINE_NS),
    );
    for (label, r) in [("low", low), ("knee", knee)] {
        if r.p(99.0) == u64::MAX {
            fails.push(format!(
                "more than 1% of requests failed at the {label} rate"
            ));
        }
    }

    let mut metrics = Metrics::default();
    if args.trace {
        let t = traced.expect("at least one traced pass");
        let [_, tknee, _] = &t.runs;
        metrics.put(
            "serve.queue_wait_us.p50",
            us(rank_percentile(&tknee.queue_wait, 50.0)),
            "us",
        );
        metrics.put(
            "serve.queue_wait_us.p99",
            us(rank_percentile(&tknee.queue_wait, 99.0)),
            "us",
        );
        metrics.put(
            "serve.service_us.p50",
            us(rank_percentile(&tknee.service, 50.0)),
            "us",
        );
        metrics.put(
            "serve.service_us.p99",
            us(rank_percentile(&tknee.service, 99.0)),
            "us",
        );
        let total =
            |f: fn(&ServeSummary) -> u64| t.runs.iter().map(|r| f(&r.sum)).sum::<u64>() as f64;
        metrics.put("serve.shed", total(|s| s.shed), "count");
        metrics.put("serve.timed_out", total(|s| s.timed_out), "count");
        metrics.put("serve.retries", total(|s| s.retries), "count");
        let high = t
            .runs
            .iter()
            .map(|r| r.sum.queue_high_water)
            .max()
            .unwrap_or(0);
        metrics.put("serve.queue_high_water", high as f64, "count");
        let dispatch_s: f64 = t.runs.iter().map(|r| r.dispatch_s).sum();
        let advance_s: f64 = t.runs.iter().map(|r| r.advance_s).sum();
        metrics.put("serve.host_dispatch_s", dispatch_s, "s");
        metrics.put("serve.host_advance_s", advance_s, "s");
        metrics.put("serve.host_loop_s", t.run_s() - dispatch_s - advance_s, "s");
        let calls: u64 = t.runs.iter().map(|r| r.advance_calls).sum();
        metrics.put("serve.advance_calls", calls as f64, "count");
        metrics.put("serve.p50_us.low", us(low.p(50.0)), "us");
        metrics.put("serve.p99_us.low", us(low.p(99.0)), "us");
        metrics.put("serve.slo_max_krps", slo_rps / 1e3, "kreq/s");
        assert!(
            metrics
                .0
                .iter()
                .map(|m| m.0.as_str())
                .eq(SERVE_LAYER_METRICS.iter().map(|m| m.0)),
            "serve metrics out of step with SERVE_LAYER_METRICS"
        );
        metrics.put_zeros(&crate::wave::MACHINE_LAYER_METRICS);
        times.put_host_and_overhead(&mut metrics);
        println!(
            "unreachable: core, par, softcore, coproc, dram and noc metrics read 0 on ycsb-serve: \
             BionicServeEngine does not expose its machine (measured on tpcc-wave and ycsb-par64)"
        );
    } else {
        times.put_end_to_end(&mut metrics);
        metrics.put("good_frac", good as f64 / fresh as f64, "frac");
        metrics.put("sim_ktps", over.sum.goodput_per_sec() / 1e3, "ktxn/s");
        metrics.put("p50_us", us(knee.p(50.0)), "us");
        metrics.put("p99_us", us(knee.p(99.0).min(DEADLINE_NS)), "us");
    }
    Outcome {
        attempted: fresh,
        failed: pass.runs.iter().map(|r| r.sum.aborted).sum(),
        check_failures: fails,
        metrics,
    }
}

fn fmt_us(ns: u64) -> String {
    if ns == u64::MAX {
        "beyond-limit".to_string()
    } else {
        format!("{:.3}", us(ns))
    }
}
