//! Byte-identity gate: every fixed-seed scenario whose bytes are pinned,
//! grouped by subsystem (`scripts/check.sh` runs one gate per group).
//!
//! ```text
//! goldencheck [--group stats|workload|serve|batch|fleet] [--capture] [--json <path>]
//! ```
//!
//! * **stats** — the observability layer: two traced YCSB runs give
//!   byte-identical report and Chrome-trace JSON; the trace sink is
//!   bit-inert; the `--json` document and the trace carry the keys the
//!   downstream tooling reads. With `--json <path>` the document is also
//!   written, read back and re-validated.
//! * **workload** — the generic driver: a wave of every legacy runner
//!   shape (YCSB kinds, KV bulk loops, TPC-C mixes) against
//!   `golden/workload_goldens.json`; SmallBank rows identical under
//!   strict, fast-forward and epoch-parallel execution; SmallBank crash
//!   recovery and NoC-drop chaos.
//! * **serve** — the serving engines: the Silo scenario matrix against
//!   `golden/serve_golden.json` and the cycle-accurate one against
//!   `golden/serve_hw_golden.json`.
//! * **batch** — batched traversal: `batch_mode: Off` makes `batch_width`
//!   invisible, `TxnLocal` completes end to end with MLP rows, and the
//!   quick sweep matches `golden/batch_golden.json`.
//! * **fleet** — a 2-chip fleet over shared-memory rings reproduces the
//!   in-process report byte-for-byte (YCSB-C multisite and SmallBank).
//!
//! Each group's case order, wave sizes and seeds are part of its golden
//! contract. Fleet runs fork, so the fleet group runs last: every earlier
//! case has joined its simulation threads by then.

use bionicdb::{BatchMode, BionicConfig, ExecMode, Machine, MachineReport};
use bionicdb_bench::batchbench::{sweep, to_json};
use bionicdb_bench::golden::{Case, Group};
use bionicdb_bench::json::{document, render_machine_row, validate, JsonOut};
use bionicdb_bench::serve::hw::{hw_servers, probe_hw, simulate_hw};
use bionicdb_bench::serve::sim::{probe_service_ns, simulate};
use bionicdb_bench::serve::{ArrivalProcess, RetryMode, ServeConfig, ShedPolicy};
use bionicdb_bench::*;
use bionicdb_fpga::ChromeTraceSink;
use bionicdb_workloads::abi::YcsbWorkload;
use bionicdb_workloads::smallbank::{SmallBankBionic, SmallBankWorkload};
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind};
use bionicdb_workloads::{ServeKind, ServeMix, SmallBankSpec, YcsbSpec};

const GROUPS: &[Group] = &[
    Group {
        name: "stats",
        cases: &[
            Case::twin(
                "determinism",
                &[("traced", stats_traced), ("traced rerun", stats_traced)],
            ),
            Case::twin(
                "sink-inert",
                &[
                    ("traced", || stats_run(true).0),
                    ("untraced", stats_untraced),
                ],
            ),
            Case::check("schema", stats_schema),
        ],
    },
    Group {
        name: "workload",
        cases: &[
            Case::golden("drivers", "workload_goldens.json", workload_rows),
            Case::twin(
                "smallbank-schedules",
                &[
                    ("strict", || smallbank_row(false, 1)),
                    ("fast-forward", || smallbank_row(true, 1)),
                    ("epoch-parallel x2", || smallbank_row(true, 2)),
                    ("strict rerun", || smallbank_row(false, 1)),
                ],
            ),
            Case::check("smallbank-crash", || {
                let r = chaos::run_crash(chaos::ChaosWorkload::SmallBank, 500, true, 0x5BC4);
                format!(
                    "recovered ({} committed, {} salvaged)",
                    r.committed_at_crash, r.salvaged
                )
            }),
            Case::check("smallbank-noc-drop", || {
                let r = chaos::run_noc_drop(chaos::ChaosWorkload::SmallBank, &[1, 4], 0x5BC4);
                format!("survived ({} dropped)", r.dropped)
            }),
        ],
    },
    Group {
        name: "serve",
        cases: &[
            Case::golden("silo", "serve_golden.json", serve_silo_rows),
            Case::golden("hw", "serve_hw_golden.json", serve_hw_rows),
        ],
    },
    Group {
        name: "batch",
        cases: &[
            Case::twin(
                "mode-off-inert",
                &[
                    ("off/width 8", || batch_off_report(8)),
                    ("off/width 32", || batch_off_report(32)),
                ],
            ),
            Case::check("batched-smoke", batch_txn_local_smoke),
            Case::golden("quick-sweep", "batch_golden.json", || {
                to_json(&sweep(true), true)
            }),
        ],
    },
    Group {
        name: "fleet",
        cases: &[
            Case::twin(
                "ycsb",
                &[
                    ("in-process", || fleet_ycsb(in_process)),
                    ("fleet/shm", || fleet_ycsb(two_chips)),
                ],
            ),
            Case::twin(
                "smallbank",
                &[
                    ("in-process", || fleet_smallbank(in_process)),
                    ("fleet/shm", || fleet_smallbank(two_chips)),
                ],
            ),
        ],
    },
];

fn main() {
    bionicdb_bench::golden::main(GROUPS);
}

// ---------------------------------------------------------------------------
// stats

/// One fixed-seed YCSB run: the rendered report row and, when traced, the
/// Chrome trace export.
fn stats_run(traced: bool) -> (String, Option<String>) {
    let mut y = build_ycsb(2, ExecMode::Interleaved);
    if traced {
        y.machine.set_trace_sink(Box::new(ChromeTraceSink::new()));
    }
    let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadLocal, 40);
    let row = render_machine_row("ycsb_smoke", Some(t), &y.machine);
    (row, y.machine.trace_json())
}

/// A traced run's report row and trace, one per line.
fn stats_traced() -> String {
    let (row, trace) = stats_run(true);
    row + "\n" + &trace.expect("trace sink produced no export") + "\n"
}

fn stats_untraced() -> String {
    let (row, trace) = stats_run(false);
    assert!(trace.is_none(), "NullSink produced a trace export");
    row
}

/// The `--json` document and the trace export are well-formed and carry
/// the keys downstream tooling reads; with `--json <path>` the document
/// also round-trips through the file `JsonOut` writes.
fn stats_schema() -> String {
    let (row, trace) = stats_run(true);
    let trace = trace.expect("trace sink produced no export");
    let doc = document("goldencheck", std::slice::from_ref(&row));
    validate(&doc).unwrap_or_else(|e| panic!("--json document is not valid JSON: {e}"));
    validate(&trace).unwrap_or_else(|e| panic!("trace export is not valid JSON: {e}"));
    let keys = "bin rows label per_sec report p50 p95 p99 abort_reasons queue_wait txn_commit \
                links ports stages";
    for key in keys.split_whitespace() {
        assert!(
            doc.contains(&format!("\"{key}\"")),
            "--json document is missing {key:?}"
        );
    }
    assert!(
        trace.contains("\"traceEvents\""),
        "trace export is missing traceEvents"
    );
    let summary = format!(
        "document ({} B) and trace ({} B) OK",
        doc.len(),
        trace.len()
    );

    let mut out = JsonOut::from_env("goldencheck");
    let Some(path) = out.path().map(str::to_string) else {
        return summary;
    };
    out.push_raw(row);
    out.write();
    let readback =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read back {path}: {e}"));
    assert!(
        readback == doc,
        "written --json file differs from the rendered document"
    );
    validate(&readback).unwrap_or_else(|e| panic!("written --json file is not valid JSON: {e}"));
    format!("{summary}; round-tripped {path}")
}

// ---------------------------------------------------------------------------
// workload

/// A fixed wave of every legacy runner shape, one row per measurement.
/// Machines shared between waves, wave sizes and the runners' seeds are
/// part of the golden contract.
fn workload_rows() -> String {
    let mut rows = Vec::new();

    // One YCSB machine, four transaction kinds in sequence.
    let mut y = build_ycsb(4, ExecMode::Interleaved);
    for (label, kind, wave) in [
        ("ycsb_read_local", YcsbKind::ReadLocal, 40),
        ("ycsb_read_homed", YcsbKind::ReadHomed, 40),
        ("ycsb_update_local", YcsbKind::UpdateLocal, 24),
        ("ycsb_scan", YcsbKind::Scan, 12),
    ] {
        let t = bionic_ycsb_tput(&mut y, kind, wave);
        rows.push(render_machine_row(label, Some(t), &y.machine));
    }

    // One hash-KV machine: bulk insert, search, then random inserts.
    let mut y = build_ycsb(4, ExecMode::Interleaved);
    let t = bionic_kv_tput(&mut y, true, 12);
    rows.push(render_machine_row("kv_hash_insert", Some(t), &y.machine));
    let t = bionic_kv_tput(&mut y, false, 12);
    rows.push(render_machine_row("kv_hash_search", Some(t), &y.machine));
    let t = bionic_kv_random_insert_tput(&mut y, 12);
    rows.push(render_machine_row("kv_random_insert", Some(t), &y.machine));

    // One skiplist machine: bulk insert then point query.
    let mut y = build_ycsb(4, ExecMode::Interleaved);
    let t = bionic_kv_skip_tput(&mut y, true, 12);
    rows.push(render_machine_row("kv_skip_insert", Some(t), &y.machine));
    let t = bionic_kv_skip_tput(&mut y, false, 12);
    rows.push(render_machine_row("kv_skip_search", Some(t), &y.machine));

    // One TPC-C machine, all three mixes in sequence.
    let mut sys = build_tpcc(4, ExecMode::Interleaved);
    for (label, mix, wave) in [
        ("tpcc_mixed", TpccMix::Mixed, 24),
        ("tpcc_neworder", TpccMix::NewOrderOnly, 12),
        ("tpcc_payment", TpccMix::PaymentOnly, 12),
    ] {
        let t = bionic_tpcc_tput(&mut sys, mix, wave);
        rows.push(render_machine_row(label, Some(t), &sys.machine));
    }

    rows.join("\n") + "\n"
}

/// One fixed-seed SmallBank wave under the given schedule.
fn smallbank_row(fast_forward: bool, threads: usize) -> String {
    let mut sb = build_smallbank(4, ExecMode::Interleaved);
    sb.machine.set_fast_forward(fast_forward);
    sb.machine.set_sim_threads(threads);
    let t = bionic_smallbank_tput(&mut sb, 16);
    render_machine_row("smallbank_mixed", Some(t), &sb.machine)
}

// ---------------------------------------------------------------------------
// serve

/// The Silo engine's scenario matrix, one summary row per run: every
/// workload under the controlled server at 1.5x capacity, then one
/// SmallBank scenario per policy corner.
fn serve_silo_rows() -> String {
    let mut rows = Vec::new();
    let servers = 2;
    let requests = 300;

    for kind in ServeKind::ALL {
        let svc = probe_service_ns(&ServeMix::build(kind, 1), kind.seed(), 200);
        let arrivals = ArrivalProcess::Poisson {
            rate_per_sec: 1.5 * servers as f64 * 1e9 / svc,
        };
        let cfg = ServeConfig::controlled(
            arrivals,
            requests,
            (svc * 25.0) as u64,
            servers,
            kind.seed(),
        );
        let sum = simulate(&ServeMix::build(kind, 1), &cfg);
        rows.push(sum.render_json(&format!("controlled/{}", kind.name())));
    }

    // The baseline's unbounded FIFO, fail-fast, LIFO-slack under an MMPP
    // burst, and a no-retry deadline-drop run.
    let kind = ServeKind::SmallBank;
    let svc = probe_service_ns(&ServeMix::build(kind, 1), kind.seed(), 200);
    let cap = servers as f64 * 1e9 / svc;
    let deadline = (svc * 25.0) as u64;
    let poisson = |x: f64| ArrivalProcess::Poisson {
        rate_per_sec: x * cap,
    };
    let controlled =
        |arrivals| ServeConfig::controlled(arrivals, requests, deadline, servers, kind.seed());
    let run = |cfg: &ServeConfig, label: &str| {
        simulate(&ServeMix::build(kind, 1), cfg).render_json(label)
    };

    let base = ServeConfig::baseline(poisson(1.5), requests, deadline, servers, kind.seed());
    rows.push(run(&base, "baseline/smallbank"));

    let mut ff = controlled(poisson(2.0));
    ff.policy = ShedPolicy::FailFast;
    rows.push(run(&ff, "fail_fast/smallbank"));

    let mut ls = controlled(ArrivalProcess::Mmpp {
        base_rate: 0.5 * cap,
        burst_rate: 3.0 * cap,
        mean_base_ns: (svc * 200.0) as u64,
        mean_burst_ns: (svc * 100.0) as u64,
    });
    ls.policy = ShedPolicy::LifoSlack;
    rows.push(run(&ls, "lifo_slack_mmpp/smallbank"));

    let mut nr = controlled(poisson(2.0));
    nr.retry = RetryMode::None;
    rows.push(run(&nr, "no_retry/smallbank"));

    rows.join("\n") + "\n"
}

/// The cycle-accurate engine's matrix: controlled serving for SmallBank
/// (depth-2 interleaving, OCC aborts feed retries) and YCSB-C, then
/// batched admission feeding `BatchMode::CrossTxn` waves. Every summary's
/// ledger must be conserved.
fn serve_hw_rows() -> String {
    let workers = 2;
    let requests = 150;
    let mut rows = Vec::new();
    let config = |kind: ServeKind| {
        let probe = probe_hw(kind, workers, 48);
        let arrivals = ArrivalProcess::Poisson {
            rate_per_sec: 1.5 * probe.capacity_per_sec,
        };
        let deadline = (probe.mean_latency_ns * 8.0) as u64;
        ServeConfig::controlled(
            arrivals,
            requests,
            deadline,
            hw_servers(kind, workers),
            kind.seed(),
        )
    };

    for kind in [ServeKind::SmallBank, ServeKind::YcsbC] {
        let sum = simulate_hw(kind, workers, None, &config(kind));
        sum.assert_conserved();
        rows.push(sum.render_json(&format!("hw/controlled/{}", kind.name())));
    }

    // Front-end groups of 4 entering CrossTxn index waves together.
    let cfg = config(ServeKind::YcsbC);
    let width = 4;
    let cfg = cfg.with_batch(width, (cfg.deadline_ns / 8).max(1));
    let sum = simulate_hw(ServeKind::YcsbC, workers, Some(width), &cfg);
    sum.assert_conserved();
    rows.push(sum.render_json("hw/batched/ycsb_c"));

    rows.join("\n") + "\n"
}

// ---------------------------------------------------------------------------
// batch

/// A small fixed YCSB wave; returns the committed count and the report.
fn batch_report(batch_mode: BatchMode, batch_width: usize) -> (u64, String) {
    let cfg = BionicConfig {
        workers: 2,
        mode: ExecMode::Interleaved,
        dram_bytes: 256 << 20,
        block_arena_bytes: 8 << 20,
        partition_bytes: 32 << 20,
        batch_mode,
        batch_width,
        ..BionicConfig::default()
    };
    let spec = YcsbSpec {
        records_per_partition: 2_048,
        payload_len: 64,
        ..YcsbSpec::default()
    };
    let mut y = YcsbBionic::build(cfg, spec, 60);
    let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadHomed, 40);
    (t.committed, MachineReport::collect(&y.machine).to_json())
}

/// With `batch_mode: Off` the width knob must be invisible.
fn batch_off_report(width: usize) -> String {
    let (committed, report) = batch_report(BatchMode::Off, width);
    assert!(committed > 0, "the check workload commits work");
    assert!(
        !report.contains("\"mlp\""),
        "mode-off reports carry no MLP histogram"
    );
    report
}

/// `TxnLocal` completes the same workload end to end and surfaces the MLP
/// instrumentation. Cycle counts legitimately differ from mode-off (the
/// contract is results, not timing), so nothing else is compared.
fn batch_txn_local_smoke() -> String {
    let (committed, report) = batch_report(BatchMode::TxnLocal, 8);
    assert!(committed > 0, "batched workload commits work");
    assert!(
        report.contains("\"mlp\""),
        "batched reports carry the MLP histogram"
    );
    assert!(
        report.contains("\"batch.hash\"") && report.contains("\"batch.skip\""),
        "batched reports carry the engine stage rows"
    );
    format!("{committed} txns committed")
}

// ---------------------------------------------------------------------------
// fleet

const FLEET_WORKERS: usize = 4;
const FLEET_WAVE: usize = 24;

fn in_process(m: &mut Machine) {
    m.set_sim_threads(2);
}

fn two_chips(m: &mut Machine) {
    m.set_fleet_chips(2);
}

/// One fixed-seed multisite YCSB-C run; returns the full report JSON.
fn fleet_ycsb(engine: fn(&mut Machine)) -> String {
    let cfg = BionicConfig {
        mode: ExecMode::Interleaved,
        ..BionicConfig::small(FLEET_WORKERS)
    };
    let spec = YcsbSpec {
        records_per_partition: 1_024,
        payload_len: 64,
        remote_fraction: 0.5,
        ..YcsbSpec::default()
    };
    let mut y = YcsbBionic::build(cfg, spec, 8);
    engine(&mut y.machine);
    let kind = YcsbKind::ReadHomed;
    drive(&mut YcsbWorkload { sys: &mut y, kind }, FLEET_WAVE);
    y.machine.report().to_json()
}

/// One fixed-seed SmallBank run; returns the full report JSON.
fn fleet_smallbank(engine: fn(&mut Machine)) -> String {
    let cfg = BionicConfig {
        mode: ExecMode::Interleaved,
        max_batch: 2,
        ..BionicConfig::small(FLEET_WORKERS)
    };
    let spec = SmallBankSpec {
        accounts_per_partition: 256,
        ..SmallBankSpec::tiny()
    };
    let mut sb = SmallBankBionic::build(cfg, spec);
    engine(&mut sb.machine);
    drive(&mut SmallBankWorkload { sys: &mut sb }, FLEET_WAVE);
    sb.machine.report().to_json()
}
