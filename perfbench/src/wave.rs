//! The two closed-loop wave workloads and the machine-layer metrics.
//!
//! * `tpcc-wave` — TPC-C NewOrder+Payment (50:50) on 4 workers at the
//!   Fig. 9b bench scale (`build_tpcc`), serial fast-forward. Aborted
//!   transactions are retried to completion client-side; afterwards the
//!   TPC-C consistency conditions are checked against the database.
//! * `ycsb-par64` — read-homed YCSB on 64 workers over 2 chips
//!   (`MultiChip`, 25-cycle hop, 25% remote, 2 048 × 64 B records per
//!   partition, the `scaleout` fleet shape) under the epoch-parallel
//!   scheduler at 2 sim threads. Its `MachineReport` must be
//!   byte-identical to a 1-sim-thread run of the same wave.
//!
//! A wave submits every worker's transactions at the same cycle
//! (worker-major, one RNG seeded from `--seed`), runs the
//! machine to quiescence and, if the workload retries, retries aborted
//! blocks to completion. Each transaction's latency is exact: from the
//! submission cycle to its commit cycle (the hardware commit timestamp).

use std::time::Instant;

use bionicdb::{
    BionicConfig, ExecMode, LaneActivity, MachineReport, Topology, TxnBlock, TxnStatus,
};
use bionicdb_bench::build_tpcc;
use bionicdb_fpga::obs::LatencyHistogram;
use bionicdb_workloads::abi::{TpccWorkload, YcsbWorkload};
use bionicdb_workloads::spec::{customer_key, district_key, order_key};
use bionicdb_workloads::tpcc::TpccBionic;
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind};
use bionicdb_workloads::{TpccMix, Workload, YcsbSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{keep_going, rank_percentile, secs, Args, HostTimes, Metrics, Outcome, WorkloadName};

/// TPC-C transactions per worker in one wave.
const TPCC_TXNS_PER_WORKER: usize = 400;
/// TPC-C workers (= warehouses).
const TPCC_WORKERS: usize = 4;
/// YCSB transactions per worker in one 64-worker wave: drawn from the
/// seed in this range (mean 48, the `scaleout` wave), so lanes finish
/// unevenly the way real partitions do. With an equal count on every
/// worker the wave's latencies are set by its batch structure alone and
/// read the same for every seed.
const PAR64_TXNS_PER_WORKER: std::ops::RangeInclusive<usize> = 40..=56;
/// Workers of the parallel-simulation workload.
const PAR64_WORKERS: usize = 64;
/// Chips the 64 workers are split over.
const PAR64_CHIPS: usize = 2;
/// Simulator threads of the epoch-parallel scheduler.
const PAR64_SIM_THREADS: usize = 2;

/// The machine-layer metric names and units, in report order: `core`,
/// `par`, `softcore`, `coproc`, `dram` and `noc`.
pub const MACHINE_LAYER_METRICS: [(&str, &str); 45] = [
    ("core.sim_cycles", "cyc"),
    ("core.ticks", "count"),
    ("core.host_ns_per_tick", "ns"),
    ("core.host_submit_s", "s"),
    ("core.host_step_s", "s"),
    ("par.epoch_rounds", "count"),
    ("par.barrier_idle_s", "s"),
    ("par.barrier_idle_frac", "frac"),
    ("par.lane_ticks", "count"),
    ("par.lane_skips", "count"),
    ("par.epoch_len_p50", "cyc"),
    ("softcore.queue_wait_cyc", "cyc"),
    ("softcore.logic_cyc", "cyc"),
    ("softcore.commit_wait_cyc", "cyc"),
    ("softcore.commit_cyc", "cyc"),
    ("softcore.txn_commit_cyc", "cyc"),
    ("softcore.switches", "count"),
    ("softcore.cp_stall_cyc", "cyc"),
    ("softcore.mem_stall_cyc", "cyc"),
    ("softcore.abort_frac", "frac"),
    ("softcore.aborts.dirty", "count"),
    ("softcore.aborts.cc_conflict", "count"),
    ("coproc.hash.keyfetch.busy_frac", "frac"),
    ("coproc.hash.keyfetch.stall_frac", "frac"),
    ("coproc.hash.hash.busy_frac", "frac"),
    ("coproc.hash.hash.stall_frac", "frac"),
    ("coproc.hash.install.busy_frac", "frac"),
    ("coproc.hash.install.stall_frac", "frac"),
    ("coproc.hash.headfetch.busy_frac", "frac"),
    ("coproc.hash.headfetch.stall_frac", "frac"),
    ("coproc.hash.compare.busy_frac", "frac"),
    ("coproc.hash.compare.stall_frac", "frac"),
    ("coproc.hash.traverse.busy_frac", "frac"),
    ("coproc.hash.traverse.stall_frac", "frac"),
    ("coproc.db_op_cyc.mean", "cyc"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.reads_per_txn", "count"),
    ("dram.rejection_frac", "frac"),
    ("dram.port_occupancy_max", "frac"),
    ("noc.sent", "count"),
    ("noc.delivered", "count"),
    ("noc.mean_latency_cyc", "cyc"),
    ("noc.link_queue_high_water", "count"),
    ("noc.remote_frac", "frac"),
];

/// A built machine plus whatever the workload's checks need.
enum Sys {
    Tpcc(TpccWorkload<TpccBionic>),
    Ycsb(YcsbWorkload<YcsbBionic>),
}

impl Sys {
    fn build(which: WorkloadName, sim_threads: usize) -> Sys {
        match which {
            WorkloadName::TpccWave => {
                let mut sys = build_tpcc(TPCC_WORKERS, ExecMode::Interleaved);
                sys.machine.set_sim_threads(1);
                Sys::Tpcc(TpccWorkload {
                    sys,
                    mix: TpccMix::Mixed,
                })
            }
            WorkloadName::YcsbPar64 => {
                let cfg = BionicConfig {
                    workers: PAR64_WORKERS,
                    topology: Topology::MultiChip {
                        workers_per_node: PAR64_WORKERS / PAR64_CHIPS,
                        inter_node_hops: 25,
                    },
                    mode: ExecMode::Interleaved,
                    dram_bytes: 2 << 30,
                    block_arena_bytes: 2 << 20,
                    partition_bytes: 2 << 20,
                    ..BionicConfig::default()
                };
                let spec = YcsbSpec {
                    records_per_partition: 2_048,
                    payload_len: 64,
                    remote_fraction: 0.25,
                    ..YcsbSpec::default()
                };
                let mut sys = YcsbBionic::build(cfg, spec, 60);
                sys.machine.set_sim_threads(sim_threads);
                Sys::Ycsb(YcsbWorkload {
                    sys,
                    kind: YcsbKind::ReadHomed,
                })
            }
            WorkloadName::YcsbServe => unreachable!("served workload has no wave"),
        }
    }

    fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Sys::Tpcc(w) => w,
            Sys::Ycsb(w) => w,
        }
    }
}

/// Host timers around the wave's layer calls (traced passes only).
#[derive(Default, Clone, Copy)]
struct Spans {
    submit_s: f64,
    step_s: f64,
}

/// Everything one wave produced.
struct Wave {
    /// Host seconds for the whole wave (allocation, submission, stepping,
    /// retries).
    run_s: f64,
    spans: Spans,
    submitted: u64,
    committed: u64,
    resubmissions: u64,
    cycles: u64,
    clock_hz: f64,
    /// Exact submit → commit latency per transaction, cycles, ascending;
    /// `u64::MAX` for a transaction that never committed.
    latency_cyc: Vec<u64>,
    report: MachineReport,
    ticks: u64,
    epoch_rounds: u64,
    lanes: Vec<LaneActivity>,
    /// Submitted blocks: `(worker, index in the worker's wave, block)`.
    blocks: Vec<(usize, usize, TxnBlock)>,
}

impl Wave {
    /// The wave's simulated results: must be identical for every pass of
    /// the same seed, traced or not, at any sim-thread count.
    fn sim_signature(&self) -> String {
        format!(
            "cycles={} committed={} resubmissions={} latency={:?} report={}",
            self.cycles,
            self.committed,
            self.resubmissions,
            self.latency_cyc,
            self.report.to_json()
        )
    }
}

/// Submit, run and retry one wave on a freshly built machine.
fn run_wave(sys: &mut Sys, seed: u64, txns_per_worker: &[usize], traced: bool) -> Wave {
    let w = sys.workload();
    let started = Instant::now();
    let mut spans = Spans::default();

    let mut blocks = Vec::with_capacity(txns_per_worker.iter().sum());
    for (wk, &n) in txns_per_worker.iter().enumerate() {
        for i in 0..n {
            let size = w.block_size(wk, i);
            blocks.push((wk, i, w.machine().alloc_block(wk, size)));
        }
    }
    let c0 = w.machine_ref().now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = traced.then(Instant::now);
    for &(wk, i, blk) in &blocks {
        w.submit(wk, i, blk, &mut rng);
    }
    if let Some(t) = t {
        spans.submit_s = secs(t);
    }
    let t = traced.then(Instant::now);
    w.machine().run_to_quiescence();
    let mut resubmissions = 0;
    if let Some(budget) = w.retry() {
        let pairs: Vec<(usize, TxnBlock)> = blocks.iter().map(|&(wk, _, b)| (wk, b)).collect();
        let out = w.machine().retry_to_completion(&pairs, budget, 1 << 33);
        resubmissions = out.resubmissions;
    }
    if let Some(t) = t {
        spans.step_s = secs(t);
    }
    let run_s = secs(started);

    let m = w.machine_ref();
    let mut latency_cyc: Vec<u64> = blocks
        .iter()
        .map(|&(_, _, blk)| match m.block_status(blk) {
            TxnStatus::Committed => (m.block_commit_ts(blk) >> 10) - c0,
            _ => u64::MAX,
        })
        .collect();
    latency_cyc.sort_unstable();
    let committed = latency_cyc.iter().filter(|&&l| l != u64::MAX).count() as u64;
    Wave {
        run_s,
        spans,
        submitted: blocks.len() as u64,
        committed,
        resubmissions,
        cycles: m.now() - c0,
        clock_hz: m.config().fpga.clock_hz as f64,
        latency_cyc,
        report: m.report(),
        ticks: m.ticks_executed(),
        epoch_rounds: m.epoch_rounds(),
        lanes: m.lane_activity().to_vec(),
        blocks,
    }
}

/// TPC-C consistency after a fully committed wave, read back from the
/// database through host-side (untimed) lookups:
///
/// 1. every warehouse's YTD equals the sum of its districts' YTDs;
/// 2. the money the payments moved balances: Σ warehouse YTD equals
///    Σ customer YTD payments and Σ customer balance decrements;
/// 3. every Payment bumped exactly one customer's payment count;
/// 4. every NewOrder took exactly one order id: Σ (next_o_id − 1) over
///    districts equals the NewOrders submitted, and each district's
///    latest order row exists while the next one does not.
fn check_tpcc(
    w: &mut TpccWorkload<TpccBionic>,
    blocks: &[(usize, usize, TxnBlock)],
) -> Vec<String> {
    let mut fails = Vec::new();
    w.validate();
    let spec = w.sys.spec.clone();
    let t = w.sys.tables;
    let workers = w.sys.machine.num_workers();
    let u64_at = |p: &[u8], i: usize| u64::from_le_bytes(p[8 * i..8 * i + 8].try_into().unwrap());
    let (mut w_ytd_sum, mut c_ytd_sum, mut c_paid, mut c_cnt, mut orders) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for wk in 0..workers {
        let wid = wk as u64;
        let l = w.sys.machine.loader(wk);
        let Some(wa) = l.lookup(t.warehouse, &wid.to_le_bytes()) else {
            fails.push(format!("warehouse {wid} missing"));
            continue;
        };
        let w_ytd = u64_at(&l.payload(t.warehouse, wa), 0);
        w_ytd_sum += w_ytd;
        let mut d_ytd = 0u64;
        for d in 0..spec.districts_per_warehouse {
            let dk = district_key(wid, d);
            let Some(da) = l.lookup(t.district, &dk.to_le_bytes()) else {
                fails.push(format!("district {wid}/{d} missing"));
                continue;
            };
            let dp = l.payload(t.district, da);
            d_ytd += u64_at(&dp, 1);
            let next_o_id = u64_at(&dp, 0);
            orders += next_o_id - 1;
            let latest = order_key(wid, d, next_o_id - 1).to_le_bytes();
            if next_o_id > 1 && l.lookup(t.orders, &latest).is_none() {
                fails.push(format!(
                    "district {wid}/{d}: order {} missing",
                    next_o_id - 1
                ));
            }
            let next = order_key(wid, d, next_o_id).to_le_bytes();
            if l.lookup(t.orders, &next).is_some() {
                fails.push(format!(
                    "district {wid}/{d}: order {next_o_id} exists early"
                ));
            }
            for c in 0..spec.customers_per_district {
                let ck = customer_key(wid, d, c).to_le_bytes();
                let Some(ca) = l.lookup(t.customer, &ck) else {
                    fails.push(format!("customer {wid}/{d}/{c} missing"));
                    continue;
                };
                let cp = l.payload(t.customer, ca);
                // Balances may go negative (two's complement): sum the
                // decrements modulo 2^64, which still balances exactly.
                c_paid = c_paid.wrapping_add(100_000u64.wrapping_sub(u64_at(&cp, 0)));
                c_ytd_sum = c_ytd_sum.wrapping_add(u64_at(&cp, 1));
                c_cnt += u64_at(&cp, 2);
            }
        }
        if w_ytd != d_ytd {
            fails.push(format!(
                "warehouse {wid}: W_YTD {w_ytd} != sum(D_YTD) {d_ytd}"
            ));
        }
    }
    if w_ytd_sum != c_ytd_sum || w_ytd_sum != c_paid {
        fails.push(format!(
            "payments do not balance: W_YTD {w_ytd_sum}, C_YTD {c_ytd_sum}, balance drop {c_paid}"
        ));
    }
    let neworders = blocks.iter().filter(|b| w.mix.neworder_at(b.1)).count() as u64;
    let payments = blocks.len() as u64 - neworders;
    if c_cnt != payments {
        fails.push(format!(
            "payment count {c_cnt} != payments submitted {payments}"
        ));
    }
    if orders != neworders {
        fails.push(format!(
            "orders taken {orders} != NewOrders submitted {neworders}"
        ));
    }
    fails
}

/// Run `tpcc-wave` or `ycsb-par64`.
pub fn run(args: &Args) -> Outcome {
    let which = args.workload;
    let (txns, threads) = match which {
        WorkloadName::TpccWave => (vec![TPCC_TXNS_PER_WORKER; TPCC_WORKERS], 1),
        _ => {
            let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x64);
            let n = (0..PAR64_WORKERS)
                .map(|_| rng.gen_range(PAR64_TXNS_PER_WORKER))
                .collect();
            (n, PAR64_SIM_THREADS)
        }
    };
    let mut times = HostTimes::start();
    let mut fails = Vec::new();
    let mut untraced: Option<Wave> = None;
    let mut traced: Option<Wave> = None;
    let mut last_sys = None;
    let started = Instant::now();
    let mut passes = 0;
    while keep_going(passes, started, args.seconds) {
        // With tracing on, passes alternate untraced / traced.
        let trace_pass = args.trace && passes % 2 == 1;
        let t = Instant::now();
        let mut sys = Sys::build(which, threads);
        times.setup_s.push(secs(t));
        let wave = run_wave(&mut sys, args.seed, &txns, trace_pass);
        times.push_pass(trace_pass, wave.run_s);
        times.calibrate_gap();
        let first = untraced.as_ref().or(traced.as_ref());
        if let Some(first) = first {
            if first.sim_signature() != wave.sim_signature() {
                fails.push(format!(
                    "pass {passes} ({}) simulated different results than pass 0",
                    if trace_pass { "traced" } else { "untraced" }
                ));
            }
        }
        if trace_pass {
            traced.get_or_insert(wave);
        } else {
            untraced.get_or_insert(wave);
        }
        last_sys = Some(sys);
        passes += 1;
    }
    let wave = untraced.expect("at least one untraced pass");
    times.print();

    // Output checks.
    if let Some(Sys::Tpcc(w)) = last_sys.as_mut() {
        if wave.committed != wave.submitted {
            fails.push(format!(
                "{} of {} TPC-C transactions never committed",
                wave.submitted - wave.committed,
                wave.submitted
            ));
        }
        fails.extend(check_tpcc(w, &wave.blocks));
    }
    if which == WorkloadName::YcsbPar64 {
        if wave.epoch_rounds == 0 {
            fails.push("the epoch-parallel scheduler never engaged".to_string());
        }
        let mut serial = Sys::build(which, 1);
        let one = run_wave(&mut serial, args.seed, &txns, false);
        // The signature carries the full MachineReport JSON.
        if one.sim_signature() != wave.sim_signature() {
            fails.push("MachineReport at 2 sim threads differs from the 1-thread run".to_string());
        } else {
            println!("check: MachineReport byte-identical to the 1-sim-thread run");
        }
    }

    let us = |cyc: u64| cyc as f64 * 1e6 / wave.clock_hz;
    let p50 = rank_percentile(&wave.latency_cyc, 50.0);
    let p99 = rank_percentile(&wave.latency_cyc, 99.0);
    if p99 == u64::MAX {
        fails.push("more than 1% of the wave never committed".to_string());
    }
    let (p50_us, p99_us) = (us(p50), us(p99.min(wave.cycles)));
    let executions = wave.submitted + wave.resubmissions;
    let sim_ktps = wave.committed as f64 * wave.clock_hz / wave.cycles as f64 / 1e3;
    println!(
        "wave: workers={} txns={} committed={} executions={} sim_cycles={} samples={} \
         p50_us={:.3} p99_us={:.3} sim_ktps={:.3}",
        wave.report.workers.len(),
        wave.submitted,
        wave.committed,
        executions,
        wave.cycles,
        wave.latency_cyc.len(),
        p50_us,
        p99_us,
        sim_ktps,
    );

    let mut metrics = Metrics::default();
    if args.trace {
        let traced = traced.expect("at least one traced pass");
        layer_metrics(&mut metrics, &traced);
        metrics.put_zeros(&crate::serve::SERVE_LAYER_METRICS);
        println!("bypassed: serve metrics read 0 (the waves do not use the serving front end)");
        if threads == 1 {
            println!("bypassed: par metrics read 0 (the wave runs serially)");
        }
        times.put_host_and_overhead(&mut metrics);
    } else {
        times.put_end_to_end(&mut metrics);
        metrics.put(
            "good_frac",
            wave.committed as f64 / executions as f64,
            "frac",
        );
        metrics.put("sim_ktps", sim_ktps, "ktxn/s");
        metrics.put("p50_us", p50_us, "us");
        metrics.put("p99_us", p99_us, "us");
    }
    Outcome {
        attempted: wave.submitted,
        failed: wave.submitted - wave.committed,
        check_failures: fails,
        metrics,
    }
}

/// Fraction `part / whole`, 0 for an empty whole.
fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced wave: `core`, `par`, `softcore`,
/// `coproc`, `dram` and `noc`.
fn layer_metrics(out: &mut Metrics, w: &Wave) {
    let r = &w.report;
    let s = &r.stats;

    // core: Machine stepping.
    let step_s = w.spans.step_s;
    out.put("core.sim_cycles", w.cycles as f64, "cyc");
    out.put("core.ticks", w.ticks as f64, "count");
    out.put(
        "core.host_ns_per_tick",
        frac(step_s * 1e9, w.ticks as f64),
        "ns",
    );
    out.put("core.host_submit_s", w.spans.submit_s, "s");
    out.put("core.host_step_s", step_s, "s");

    // par: the epoch-parallel scheduler (idle on the serial workload).
    let lanes = &w.lanes;
    let idle_s = lanes.iter().map(|l| l.barrier_idle_ns).sum::<u64>() as f64 / 1e9;
    let mut epoch_len = LatencyHistogram::new();
    lanes.iter().for_each(|l| epoch_len.merge(&l.epoch_len));
    out.put("par.epoch_rounds", w.epoch_rounds as f64, "count");
    out.put("par.barrier_idle_s", idle_s, "s");
    out.put(
        "par.barrier_idle_frac",
        frac(idle_s, lanes.len() as f64 * step_s),
        "frac",
    );
    out.put(
        "par.lane_ticks",
        lanes.iter().map(|l| l.ticks).sum::<u64>() as f64,
        "count",
    );
    out.put(
        "par.lane_skips",
        lanes.iter().map(|l| l.skips).sum::<u64>() as f64,
        "count",
    );
    out.put("par.epoch_len_p50", epoch_len.p50(), "cyc");

    // softcore: phase means, stalls, aborts.
    let o = &r.obs;
    out.put("softcore.queue_wait_cyc", o.queue_wait.mean(), "cyc");
    out.put("softcore.logic_cyc", o.logic.mean(), "cyc");
    out.put("softcore.commit_wait_cyc", o.commit_wait.mean(), "cyc");
    out.put("softcore.commit_cyc", o.commit.mean(), "cyc");
    out.put("softcore.txn_commit_cyc", o.txn_commit.mean(), "cyc");
    let sum = |f: fn(&bionicdb::WorkerReport) -> u64| r.workers.iter().map(f).sum::<u64>() as f64;
    out.put("softcore.switches", sum(|w| w.softcore.switches), "count");
    out.put(
        "softcore.cp_stall_cyc",
        sum(|w| w.softcore.cp_stall_cycles),
        "cyc",
    );
    out.put(
        "softcore.mem_stall_cyc",
        sum(|w| w.softcore.mem_stall_cycles),
        "cyc",
    );
    out.put(
        "softcore.abort_frac",
        frac(s.aborted as f64, (s.committed + s.aborted) as f64),
        "frac",
    );
    out.put(
        "softcore.aborts.dirty",
        s.abort_reasons.dirty as f64,
        "count",
    );
    out.put(
        "softcore.aborts.cc_conflict",
        s.abort_reasons.cc_conflict as f64,
        "count",
    );

    // coproc: hash pipeline stages, summed over workers, as shares of
    // every stage instance's simulated cycles (fast-forwarded idle cycles
    // included, so the shares do not depend on the scheduler).
    for stage in [
        "keyfetch",
        "hash",
        "install",
        "headfetch",
        "compare",
        "traverse",
    ] {
        let prefix = format!("hash.{stage}");
        let (mut busy, mut stalled, mut instances) = (0u64, 0u64, 0u64);
        for wr in &r.workers {
            for (name, st) in &wr.stages {
                if name == &prefix || name.starts_with(&format!("{prefix}[")) {
                    busy += st.busy;
                    stalled += st.stalled;
                    instances += 1;
                }
            }
        }
        let total = (instances * w.cycles) as f64;
        out.put(
            &format!("coproc.hash.{stage}.busy_frac"),
            frac(busy as f64, total),
            "frac",
        );
        out.put(
            &format!("coproc.hash.{stage}.stall_frac"),
            frac(stalled as f64, total),
            "frac",
        );
    }
    out.put("coproc.db_op_cyc.mean", o.db_op.mean(), "cyc");

    // dram: traffic, rejections, port occupancy.
    let d = &r.dram;
    out.put("dram.reads", d.reads as f64, "count");
    out.put("dram.writes", d.writes as f64, "count");
    out.put(
        "dram.reads_per_txn",
        frac(d.reads as f64, w.committed as f64),
        "count",
    );
    out.put(
        "dram.rejection_frac",
        frac(
            d.rejections as f64,
            (d.reads + d.writes + d.rejections) as f64,
        ),
        "frac",
    );
    let occ = r
        .ports
        .iter()
        .map(|p| p.occupancy_cycles)
        .max()
        .unwrap_or(0);
    out.put(
        "dram.port_occupancy_max",
        frac(occ as f64, w.cycles as f64),
        "frac",
    );

    // noc: messages, latency, link queues, remote share.
    let n = &r.noc;
    out.put("noc.sent", n.sent as f64, "count");
    out.put("noc.delivered", n.delivered as f64, "count");
    out.put("noc.mean_latency_cyc", n.mean_latency(), "cyc");
    let hw = r
        .links
        .iter()
        .map(|l| l.queue_high_water)
        .max()
        .unwrap_or(0);
    out.put("noc.link_queue_high_water", hw as f64, "count");
    let remote = sum(|w| w.glue.remote_requests);
    let local = sum(|w| w.glue.local_requests);
    out.put("noc.remote_frac", frac(remote, remote + local), "frac");
    assert!(
        out.0
            .iter()
            .map(|m| m.0.as_str())
            .eq(MACHINE_LAYER_METRICS.iter().map(|m| m.0)),
        "machine-layer metrics out of step with MACHINE_LAYER_METRICS"
    );
}
