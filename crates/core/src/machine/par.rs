//! Epoch-parallel simulation: conservative parallel discrete-event
//! simulation of the whole machine, bit-exact with serial ticking.
//!
//! # Why this is possible at all
//!
//! BionicDB's partitions are shared-nothing (paper §4; the same isolation
//! argument Porobic et al. make for "hardware islands"): a worker's
//! softcore, coprocessor, DRAM bank, and partition tables are touched by
//! that worker alone. The *only* inter-worker coupling is the NoC, and
//! every NoC path `(src, dst)` has a minimum latency
//! `L(src, dst) = noc.min_latency(src, dst)` — the classic **lookahead**
//! of conservative PDES, here kept as a full per-pair matrix rather than
//! a single global minimum. A message sent at cycle `c` is delivered no
//! earlier than `c + L(src, dst)`, so a lane whose potential senders are
//! all *far away* can safely run far ahead of a lane whose senders are
//! near.
//!
//! # The schedule (GVT + per-pair horizons)
//!
//! Each worker *lane* (worker + bank + tables + detached [`EpochLink`])
//! is a work item. Per round:
//!
//! 1. The coordinator computes each lane's **base** `base_j` — a lower
//!    bound on the next cycle lane `j` can act at: its exit hint, the
//!    arrival of its earliest undelivered routed packet, and the arrival
//!    floor of any still-uncommitted staged send addressed to it.
//! 2. `GVT = min_j base_j`. The [`EpochMerger`] **commits** every staged
//!    send with cycle `< GVT` in exact serial `(cycle, src)` order —
//!    replaying fault ordinals, the per-source issue ledger, latency
//!    stats, and queue-high-water marks bit-identically — and routes the
//!    resulting deliveries. Commits can raise bases (a drop fault removes
//!    an arrival floor), so this loops to a fixpoint.
//! 3. Per-lane horizon, one pass over cached latencies:
//!    `H_i = min(floor_i, min_{k != i}(base_k + L(k, i)), base_i + RT_i) - 1`
//!    (capped), `RT_i` being lane `i`'s cheapest round trip
//!    ([`Noc::min_round_trip`]): no send any lane can still make, and no
//!    send already staged, can arrive at `i` at or before `H_i`. *Chains*
//!    (k wakes j, j sends on to i) need no iteration: the latency table is
//!    a metric ([`Noc::min_latency`]), so no chain from `k != i` beats
//!    `L(k, i)`, and `RT_i` bounds `i`'s own sends bouncing back. In
//!    [`LookaheadMode::Global`] the horizon is instead the uniform
//!    `GVT + Lmin - 1` — the PR-4 baseline, kept for `parcheck` diffing.
//!    The pass is grouped by **island** ([`Noc::island_of`]): latency is
//!    uniform inside an island and between any two islands, so one
//!    per-island `(min, argmin, second-min)` of `base` answers every lane's
//!    `min_{k != i}` in O(islands), and a round costs O(n + islands²)
//!    rather than O(n²). A crossbar is one island and each chip of a
//!    MultiChip or Fleet is one; on a ring every worker is its own, which
//!    is the plain pairwise pass.
//! 4. Every lane whose next action is `<= H_i` goes on the round's
//!    schedule, in lane order. Sim thread `t` of `T` (the coordinator is
//!    `t = 0`) runs the contiguous slice `[⌈t·len/T⌉, ⌈(t+1)·len/T⌉)` of it, so
//!    lanes stay on one thread from round to round and slice sizes stay
//!    even however skewed the load. A lane reports its round traffic and
//!    trace only when they are non-empty (in most lane-rounds they are
//!    empty), and the coordinator folds the reports in schedule order with
//!    order-preserving merges — the serial `(cycle, lane)` order, whatever
//!    slice each thread ran.
//!
//! Trace events drain to the sink only below the GVT (their serial order
//! is then final); the remainder drains at epoch end. When the GVT passes
//! the cap (or nothing remains), every lane is topped up (`skip`) to a
//! common cycle and control returns to the serial loop in
//! [`Machine::run_to_quiescence_limit`], which owns the uniform exit
//! conditions (quiescence, crash, limit panic).
//!
//! # Determinism invariants
//!
//! * A lane ticks exactly the set of cycles at which serial ticking would
//!   have given its components an event; ticking an event-free cycle is
//!   `skip(1)` per the PR-1 fast-forward contract, so per-worker state is
//!   bit-identical. An unscheduled lane is equivalent to a scheduled lane
//!   with nothing to do (zero ticks, unchanged hint), so which lanes a
//!   round schedules, and which thread runs them, is bit-inert.
//! * NoC effects are committed strictly below the GVT in (cycle, worker)
//!   order — the serial send order — and no lane can ever stage a send
//!   below the GVT afterwards (every future action of lane `j` is
//!   `>= base_j >= GVT`), so fault ordinals, issue-width ledgers, stats,
//!   and queue high-water marks are bit-identical. See DESIGN.md §11 for
//!   the full argument.
//! * Traces are merged by (cycle, worker-id) — the serial drain order.
//! * A scheduled crash caps the epoch phase at `crash_at - 1`; the crash
//!   cycle itself is *ticked* by the serial loop, so the crash-instant
//!   state (and the [`crate::recovery::DurableImage`] the hook snapshots)
//!   is bit-identical to a serial run.
//!
//! The round barrier ([`Gate`]) spins briefly before it parks, and only
//! when every sim thread can have a CPU of its own ([`spin_for`]).

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bionicdb_coproc::layout::TableState;
use bionicdb_fpga::obs::LatencyHistogram;
use bionicdb_fpga::{Dram, TxnEvent};
use bionicdb_noc::{EpochLink, EpochMerger, Noc, Packet, StagedBatch};
use bionicdb_softcore::catalogue::Catalogue;
use bionicdb_softcore::PartitionId;

use super::{LookaheadMode, Machine};
use crate::worker::PartitionWorker;

/// One worker's slice of the machine, self-contained for a round. Shared
/// with the fleet engine (`machine/fleet.rs`), where a chip process builds
/// one per owned worker each phase.
pub(crate) struct Lane<'a> {
    pub(crate) idx: usize,
    pub(crate) worker: &'a mut PartitionWorker,
    pub(crate) bank: &'a mut Dram,
    pub(crate) tables: &'a mut [TableState],
    /// This lane's clock: the last cycle it ticked or skipped to.
    pub(crate) pos: u64,
    /// Component ticks executed by this lane (simulator instrumentation).
    pub(crate) ticks: u64,
    /// Cycles this lane fast-forwarded over instead of ticking
    /// (simulator instrumentation).
    pub(crate) skips: u64,
    /// Rounds this lane was scheduled for (simulator instrumentation).
    pub(crate) rounds: u64,
    /// Distribution of granted epoch spans (horizon minus entry position;
    /// simulator instrumentation).
    pub(crate) epoch_len: LatencyHistogram,
    /// Trace events buffered this round, stamped with their cycle.
    pub(crate) trace: Vec<(u64, TxnEvent)>,
}

/// The scalars a lane reports at the round barrier (its traffic and trace
/// travel in a [`RoundNode`] instead).
pub(crate) struct LaneOut {
    /// The lane's next self-known action (`> horizon`), or `None` when the
    /// worker, bank, and queued deliveries are all exhausted.
    pub(crate) hint: Option<u64>,
    pub(crate) pos: u64,
    pub(crate) quiescent: bool,
    /// Whether the lane's delivery queue was empty at harvest.
    pub(crate) drained: bool,
}

/// A lane plus its detached link: what a sim thread locks to run the lane
/// for a round.
type LaneCell<'a> = (Lane<'a>, EpochLink);

/// Round traffic and trace of one lane, or of several folded together.
struct RoundNode {
    batch: StagedBatch,
    /// Trace events `(cycle, lane, event)`, sorted by `(cycle, lane)`.
    trace: Vec<(u64, u32, TxnEvent)>,
}

/// Fold lane nodes given in schedule order. The merges are
/// order-preserving, so the result is in the serial `(cycle, lane)` order.
fn fold_nodes(nodes: impl IntoIterator<Item = RoundNode>) -> RoundNode {
    let empty = RoundNode {
        batch: StagedBatch::empty(),
        trace: Vec::new(),
    };
    nodes.into_iter().fold(empty, |a, b| RoundNode {
        batch: StagedBatch::merge(a.batch, b.batch),
        trace: merge_traces(a.trace, b.trace),
    })
}

/// What one scheduled lane hands the coordinator at the round barrier.
struct LaneReport {
    idx: usize,
    out: LaneOut,
    /// `None` when the lane neither sent, polled, nor traced this round.
    node: Option<RoundNode>,
    /// When the lane finished: the coordinator turns it into per-lane
    /// barrier idle time.
    done_at: Instant,
}

/// Order-preserving two-pointer merge of `(cycle, lane)`-sorted traces;
/// `<=` keeps the left operand first on ties, matching a stable sort of
/// the concatenation.
pub(crate) fn merge_traces(
    a: Vec<(u64, u32, TxnEvent)>,
    b: Vec<(u64, u32, TxnEvent)>,
) -> Vec<(u64, u32, TxnEvent)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(&(ca, la, _)), Some(&(cb, lb, _))) => {
                if (ca, la) <= (cb, lb) {
                    out.push(ia.next().expect("peeked"));
                } else {
                    out.push(ib.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ia.next().expect("peeked")),
            (None, Some(_)) => out.push(ib.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// Coordinator commands, published before the round barrier.
#[derive(Clone, Copy)]
enum Cmd {
    /// Run each lane of the thread's slice to its granted horizon.
    Run,
    /// Top each lane of the thread's slice up to cycle `to`, and exit.
    /// `expect_idle` asserts the machine is quiescent (the audit for the
    /// serial loop's exit).
    Finish { to: u64, expect_idle: bool },
}

/// What the coordinator publishes before releasing a round: the command
/// and the round's schedule in lane order, of which thread `t` runs
/// [`slice`]`(t)`.
type Orders = (Cmd, Vec<RoundEntry>);

/// Sim thread `t`'s contiguous share `[⌈t·len/T⌉, ⌈(t+1)·len/T⌉)` of a
/// `len`-entry schedule. Rounding up hands a short schedule to the lowest
/// threads first, so a one-lane round runs on the coordinator (`t = 0`),
/// which never waits to be woken.
fn slice(len: usize, t: usize, threads: usize) -> Range<usize> {
    (t * len).div_ceil(threads)..((t + 1) * len).div_ceil(threads)
}

/// How long a spinning [`Gate`] waiter spins before it parks: several
/// round lengths, so a waiter parks only when its partner has stalled. A
/// wake-up from parking is slow enough to make the partner outwait a
/// shorter bound and park in turn, and then every round parks.
const SPIN: Duration = Duration::from_micros(200);

/// How long [`Gate`] waiters spin before parking: [`SPIN`] when each of
/// `threads` sim threads can have one of the host's `cpus` to itself, and
/// not at all otherwise — on an oversubscribed host (a single-core CI box
/// included) a spinner burns the timeslice the thread it waits for needs.
fn spin_for(threads: usize, cpus: usize) -> Duration {
    if threads <= cpus {
        SPIN
    } else {
        Duration::ZERO
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reusable barrier with panic poisoning: if any participant panics
/// mid-round, the rest unblock and panic too instead of deadlocking under
/// `std::thread::scope`'s implicit join. A waiter spins on the generation
/// counter for up to `spin`, then parks on the condvar.
struct Gate {
    n: usize,
    spin: Duration,
    arrived: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
    /// Waiters parked (or about to park); the releaser takes the lock to
    /// notify only when there are any.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Gate {
    fn new(n: usize, spin: Duration) -> Self {
        Gate {
            n,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn check(&self) {
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("epoch-parallel peer panicked");
        }
    }

    fn wait(&self) {
        self.check();
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Relaxed: the SeqCst generation bump below releases the reset
            // to every waiter, and none arrives again before seeing it.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                let _g = lock(&self.lock);
                self.cv.notify_all();
            }
            return;
        }
        let released = || {
            self.generation.load(Ordering::SeqCst) != generation
                || self.poisoned.load(Ordering::SeqCst)
        };
        let start = Instant::now();
        while !released() {
            let waited = start.elapsed();
            if waited >= self.spin {
                break;
            }
            // Past a short wait, cede the CPU on every check: the thread
            // this one waits for may be queued on the same CPU.
            if waited >= self.spin / 16 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        if !released() {
            // `parked` is raised before the re-check under the lock, and
            // the releaser bumps the generation before reading `parked`
            // (both SeqCst): either it sees this waiter and notifies under
            // the lock, or this waiter sees the new generation.
            self.parked.fetch_add(1, Ordering::SeqCst);
            let mut g = lock(&self.lock);
            while !released() {
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            drop(g);
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        self.check();
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        let _g = lock(&self.lock);
        self.cv.notify_all();
    }
}

/// Poisons the gate when its owner unwinds, releasing blocked peers.
struct PanicGuard<'a>(&'a Gate);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The earliest cycle `> pos` at which a lane has an event: its worker's
/// own next event (`worker_next`), its bank's next completion
/// (`bank_next`), or its queue front becoming deliverable (`link_next`) —
/// the per-worker slice of the serial scheduler's global `next_event`.
/// Shared by live lanes ([`lane_next`]) and the fleet's sync snapshots.
///
/// One deliberate asymmetry: a *quiescent* worker with no queued NoC
/// deliveries never wakes for bank-only events. Those are orphan
/// responses to requests whose transactions already retired (aborts
/// abandon in-flight reads); the serial loop exits at machine quiescence
/// with such responses still in flight, so a lane that kept ticking to
/// drain them would over-account idle cycles past the serial exit cycle.
/// Delivering and draining an orphan is stat-neutral, so *when* it
/// happens (here: only while the lane is otherwise active) is invisible.
/// (Posted-write acknowledgements no longer reach this path at all: the
/// banks cancel them at completion.)
pub(crate) fn next_lane_event(
    quiescent: bool,
    buffered: bool,
    worker_next: Option<u64>,
    bank_next: Option<u64>,
    link_next: Option<u64>,
    pos: u64,
) -> Option<u64> {
    if link_next.is_none() && quiescent {
        return None;
    }
    if buffered {
        return Some(pos + 1);
    }
    [worker_next, bank_next.map(|t| t.max(pos + 1)), link_next]
        .into_iter()
        .flatten()
        .min()
}

/// [`next_lane_event`] for a live in-process lane.
pub(crate) fn lane_next(lane: &Lane<'_>, link: &EpochLink) -> Option<u64> {
    next_lane_event(
        lane.worker.is_quiescent(),
        lane.bank.has_buffered_responses(),
        lane.worker.next_event(lane.pos),
        lane.bank.next_event(),
        link.next_ready(lane.pos),
        lane.pos,
    )
}

/// Run one lane through one round: fast-forward from event to event,
/// ticking every cycle `<= horizon` at which the lane could act. Returns
/// the lane's exit hint.
pub(crate) fn run_round(
    lane: &mut Lane<'_>,
    link: &mut EpochLink,
    horizon: u64,
    cat: &Catalogue,
    tracing: bool,
) -> Option<u64> {
    loop {
        match lane_next(lane, link) {
            Some(t) if t <= horizon => {
                let k = t - lane.pos - 1;
                if k > 0 {
                    lane.worker.skip(k);
                    lane.skips += k;
                }
                lane.pos = t;
                lane.ticks += 1;
                lane.bank.tick(t);
                lane.worker.tick(t, lane.bank, cat, link, lane.tables);
                if tracing {
                    for ev in lane.worker.softcore.drain_trace() {
                        lane.trace.push((t, ev));
                    }
                }
            }
            other => break other,
        }
    }
}

/// Top a lane up to the common exit cycle. With `expect_idle` (the
/// coordinator determined the machine is quiescent) this also audits that
/// nothing was left behind — the parallel counterpart of the serial
/// loop's `is_quiescent` exit check.
pub(crate) fn finish_lane(lane: &mut Lane<'_>, link: &EpochLink, to: u64, expect_idle: bool) {
    debug_assert!(to >= lane.pos, "finish target behind lane position");
    if to > lane.pos {
        lane.worker.skip(to - lane.pos);
        lane.skips += to - lane.pos;
        lane.pos = to;
    }
    if expect_idle {
        debug_assert!(
            lane.worker.is_quiescent(),
            "quiescent finish with a busy worker"
        );
        // Note: the DRAM bank may legitimately still hold in-flight or
        // buffered *orphan* responses here — serial exits at machine
        // quiescence without waiting for them (see `lane_next`).
        debug_assert!(
            link.next_ready(to).is_none(),
            "quiescent finish with a queued NoC delivery"
        );
    }
}

/// Everything the sim threads share for one epoch phase.
struct Crew<'a> {
    cells: Vec<Mutex<LaneCell<'a>>>,
    orders: Mutex<Orders>,
    /// Per-thread lane reports. Slices are contiguous and ascending, so
    /// reading them in thread order reads them in schedule order.
    reports: Vec<Mutex<Vec<LaneReport>>>,
    gate: Gate,
    cat: &'a Catalogue,
    tracing: bool,
}

impl Crew<'_> {
    /// Run sim thread `t`'s slice of the published orders: each lane to
    /// its granted horizon, reporting in schedule order — or, for
    /// `Finish`, each lane topped up to the exit cycle. Returns whether
    /// the phase goes on.
    fn run_slice(&self, t: usize) -> bool {
        let (cmd, mine) = {
            let (cmd, sched) = &mut *lock(&self.orders);
            let r = slice(sched.len(), t, self.reports.len());
            let mine: Vec<RoundEntry> = sched[r]
                .iter_mut()
                .map(|(i, h, pending)| (*i, *h, std::mem::take(pending)))
                .collect();
            (*cmd, mine)
        };
        let mut reports = lock(&self.reports[t]);
        for (idx, horizon, pending) in mine {
            let mut cell = lock(&self.cells[idx]);
            let (lane, link) = &mut *cell;
            if let Cmd::Finish { to, expect_idle } = cmd {
                finish_lane(lane, link, to, expect_idle);
                continue;
            }
            link.begin_round(pending);
            lane.rounds += 1;
            lane.epoch_len.record(horizon - lane.pos);
            let hint = run_round(lane, link, horizon, self.cat, self.tracing);
            let traffic = link.harvest();
            let out = LaneOut {
                hint,
                pos: lane.pos,
                quiescent: lane.worker.is_quiescent(),
                drained: traffic.queue_drained(),
            };
            let batch = StagedBatch::from_traffic(traffic);
            let node = (!batch.is_empty() || !lane.trace.is_empty()).then(|| {
                let id = idx as u32;
                let trace = lane.trace.drain(..).map(|(c, ev)| (c, id, ev)).collect();
                RoundNode { batch, trace }
            });
            reports.push(LaneReport {
                idx,
                out,
                node,
                done_at: Instant::now(),
            });
        }
        matches!(cmd, Cmd::Run)
    }

    /// The loop spawned sim thread `t` runs: wait for orders, run its
    /// slice, report in, repeat until `Finish`.
    fn participate(&self, t: usize) {
        loop {
            self.gate.wait();
            if !self.run_slice(t) {
                return;
            }
            self.gate.wait();
        }
    }
}

/// One scheduled lane in a barrier round:
/// `(lane index, granted horizon, deliveries routed since it last ran)`.
pub(crate) type RoundEntry = (usize, u64, Vec<(u64, Packet)>);

/// What the coordinator decided for the next barrier round.
pub(crate) enum Step {
    /// Run the listed lanes, each to its granted horizon, delivering the
    /// attached pending packets first. `gvt` is the round's commit bound:
    /// buffered trace events below it are final in serial order.
    Round { lanes: Vec<RoundEntry>, gvt: u64 },
    /// The epoch phase is over: top every lane up to `to` and hand control
    /// back to the serial loop. `gvt` is the exit bound — `None` means the
    /// machine ran dry, `Some(g)` (necessarily `> cap`) means the cap ended
    /// the phase; the fleet engine uses that to place a crash cycle.
    Finish {
        to: u64,
        expect_idle: bool,
        gvt: Option<u64>,
    },
}

/// The [`LookaheadMode::Matrix`] horizon pass of step 3 of the module
/// docs, grouped by island: per island the `(min, argmin, second-min)` of
/// the lanes' bases, and the earliest a base in any *other* island reaches
/// it. [`IslandHorizons::prepare`] costs O(n + islands²) once per round;
/// each [`IslandHorizons::horizon`] is then O(1).
#[derive(Default)]
struct IslandHorizons {
    /// Per island: `(min, argmin, second-min)` of its lanes' bases.
    mins: Vec<(Option<u64>, usize, Option<u64>)>,
    /// Per island `b`: `min over a != b of mins[a].min + L(a, b)`.
    cross: Vec<Option<u64>>,
}

impl IslandHorizons {
    fn prepare(&mut self, base: &[Option<u64>], noc: &Noc) {
        let m = noc.islands();
        self.mins.clear();
        self.mins.resize(m, (None, usize::MAX, None));
        for (k, b) in base.iter().enumerate() {
            let Some(b) = *b else { continue };
            let (min, argmin, second) = &mut self.mins[noc.island_of(PartitionId(k as u16))];
            if min.is_none_or(|m| b < m) {
                *second = *min;
                *min = Some(b);
                *argmin = k;
            } else {
                *second = Some(second.map_or(b, |s| s.min(b)));
            }
        }
        self.cross.clear();
        for to in 0..m {
            let near = (0..m)
                .filter(|&from| from != to)
                .filter_map(|from| {
                    let min = self.mins[from].0?;
                    Some(min.saturating_add(noc.island_latency(from, to)))
                })
                .min();
            self.cross.push(near);
        }
    }

    /// Lane `i`'s horizon, capped at `cap`, given its staged arrival
    /// `floor`: `min(floor_i, base_i + RT_i, min_{k != i}(base_k + L(k, i))) - 1`.
    fn horizon(
        &self,
        i: usize,
        base: &[Option<u64>],
        floor: Option<u64>,
        noc: &Noc,
        cap: u64,
    ) -> u64 {
        let pid = PartitionId(i as u16);
        let isl = noc.island_of(pid);
        let (min, argmin, second) = self.mins[isl];
        let peer = if argmin == i { second } else { min };
        let near = peer.map(|b| b.saturating_add(noc.island_latency(isl, isl)));
        let bounce = base[i]
            .zip(noc.min_round_trip(pid))
            .map(|(b, rt)| b.saturating_add(rt));
        floor
            .into_iter()
            .chain(bounce)
            .chain(near)
            .chain(self.cross[isl])
            .min()
            .map_or(cap, |b| b.saturating_sub(1))
            .min(cap)
    }
}

/// The coordinator-side scheduling brain of one epoch phase — GVT
/// fixpoint, staged-send commits, per-island horizon grants — with
/// *no* opinion about how lanes actually execute. [`Machine::run_epochs`]
/// drives it with scoped threads over in-process lanes; the fleet engine
/// (`machine/fleet.rs`) drives the very same object over chip processes,
/// which is what makes the two engines bit-identical by construction
/// rather than by parallel maintenance.
pub(crate) struct EpochCoordinator {
    n: usize,
    mode: LookaheadMode,
    pub(crate) cap: u64,
    /// Global minimum lookahead (for [`LookaheadMode::Global`]).
    lmin: u64,
    now0: u64,
    /// Per-lane exit hints, refreshed from [`LaneOut`] at each barrier.
    hint: Vec<Option<u64>>,
    pub(crate) pos: Vec<u64>,
    drained: Vec<bool>,
    quiescent: Vec<bool>,
    /// Deliveries routed but not yet handed to a scheduled lane.
    slots: Vec<Vec<(u64, Packet)>>,
    base: Vec<Option<u64>>,
    floors: Vec<Option<u64>>,
    islands: IslandHorizons,
    /// The last round's GVT (strict-increase audit + exit reporting). The
    /// fleet engine resets it when it extends the cap for the post-cap
    /// mop-up round, since that round legitimately re-derives the same
    /// bound the capped exit reported.
    pub(crate) prev_gvt: Option<u64>,
}

impl EpochCoordinator {
    /// Build from the phase-entry snapshot: one `(hint, drained,
    /// quiescent)` triple per lane, captured right after
    /// [`Noc::begin_epoch`] detached the links.
    pub(crate) fn new(
        mode: LookaheadMode,
        cap: u64,
        lmin: u64,
        now0: u64,
        init: Vec<(Option<u64>, bool, bool)>,
    ) -> Self {
        let n = init.len();
        let mut hint = Vec::with_capacity(n);
        let mut drained = Vec::with_capacity(n);
        let mut quiescent = Vec::with_capacity(n);
        for (h, d, q) in init {
            hint.push(h);
            drained.push(d);
            quiescent.push(q);
        }
        EpochCoordinator {
            n,
            mode,
            cap,
            lmin,
            now0,
            hint,
            pos: vec![now0; n],
            drained,
            quiescent,
            slots: (0..n).map(|_| Vec::new()).collect(),
            base: vec![None; n],
            floors: vec![None; n],
            islands: IslandHorizons::default(),
            prev_gvt: None,
        }
    }

    /// Absorb one scheduled lane's barrier report.
    pub(crate) fn note_out(&mut self, i: usize, out: &LaneOut) {
        self.hint[i] = out.hint;
        self.pos[i] = out.pos;
        self.drained[i] = out.drained;
        self.quiescent[i] = out.quiescent;
    }

    /// The undelivered routed packets, surrendered at phase exit for
    /// [`Noc::absorb_epoch`].
    pub(crate) fn take_slots(&mut self) -> Vec<Vec<(u64, Packet)>> {
        std::mem::take(&mut self.slots)
    }

    /// Lane `i`'s next *performable* action: its exit hint, or the front of
    /// its routed deliveries once its queue has drained (arrival floors are
    /// not performable until delivered).
    fn next_action(&self, i: usize) -> Option<u64> {
        let front = self.slots[i]
            .first()
            .filter(|_| self.drained[i])
            .map(|&(arr, _)| arr.max(self.pos[i] + 1));
        [self.hint[i], front].into_iter().flatten().min()
    }

    /// Decide the next round: run the GVT fixpoint (committing staged
    /// sends below the bound until no commit can raise it), then either
    /// grant horizons and schedule every lane with work, or declare the
    /// phase over. See the module docs for the full argument.
    pub(crate) fn next_step(&mut self, merger: &mut EpochMerger, noc: &mut Noc) -> Step {
        let n = self.n;
        // ---- GVT fixpoint: commit staged sends below the bound until no
        // commit can raise it further ----
        let gvt = loop {
            merger.arrival_floors(noc, &mut self.floors);
            for i in 0..n {
                let floor = self.floors[i].map(|f| f.max(self.pos[i] + 1));
                self.base[i] = [self.next_action(i), floor].into_iter().flatten().min();
            }
            let Some(g) = self.base.iter().flatten().copied().min() else {
                break None;
            };
            let (slots, pos) = (&mut self.slots, &self.pos);
            let committed = merger.commit(noc, Some(g), |w, arr, pkt| {
                debug_assert!(
                    arr > pos[w],
                    "delivery at {arr} behind lane {w} at {}",
                    pos[w]
                );
                slots[w].push((arr, pkt));
            });
            if committed == 0 {
                break Some(g);
            }
        };
        debug_assert!(
            self.prev_gvt.is_none_or(|p| gvt.is_none_or(|g| g > p)),
            "GVT must strictly increase across rounds"
        );
        self.prev_gvt = gvt;

        let Some(gvt) = gvt.filter(|&g| g <= self.cap) else {
            // ---- exit: flush the merger, pick the common top-up cycle ----
            let mut extra = 0usize;
            merger.commit(noc, None, |_, _, _| extra += 1);
            debug_assert_eq!(extra, 0, "staged sends survived past the cap");
            debug_assert!(merger.is_drained(), "merger left unreconciled state");
            let to = self.pos.iter().copied().max().unwrap_or(self.now0);
            let expect_idle = self.quiescent.iter().all(|&q| q) && self.prev_gvt.is_none();
            if expect_idle {
                debug_assert!(
                    self.slots.iter().all(Vec::is_empty),
                    "quiescent exit with undelivered NoC traffic"
                );
            }
            return Step::Finish {
                to,
                expect_idle,
                gvt: self.prev_gvt,
            };
        };

        // ---- grant horizons, schedule lanes with work ----
        if self.mode == LookaheadMode::Matrix {
            self.islands.prepare(&self.base, noc);
        }
        let mut lanes: Vec<RoundEntry> = Vec::new();
        for i in 0..n {
            let h = match self.mode {
                LookaheadMode::Global => gvt.saturating_add(self.lmin - 1).min(self.cap),
                LookaheadMode::Matrix => {
                    self.islands
                        .horizon(i, &self.base, self.floors[i], noc, self.cap)
                }
            };
            debug_assert!(h >= gvt, "horizon below the GVT stalls the round");
            if self.next_action(i).is_some_and(|t| t <= h) {
                lanes.push((i, h, std::mem::take(&mut self.slots[i])));
            }
        }
        debug_assert!(
            !lanes.is_empty(),
            "GVT <= cap must schedule at least the GVT lane"
        );
        Step::Round { lanes, gvt }
    }
}

impl Machine {
    /// The epoch-parallel phase of [`Machine::run_to_quiescence_limit`]:
    /// advance the machine as far as the lookahead allows on
    /// `sim_threads` real threads, bit-exactly, then return so the serial
    /// loop can apply its uniform exit conditions. See the module docs and
    /// DESIGN.md §11 for the argument.
    pub(crate) fn run_epochs(&mut self, start: u64, limit: u64) {
        if limit == 0 || self.is_quiescent() {
            return;
        }
        let mode = self.lookahead_mode;
        // Never run at or past the crash cycle: the crash cycle must be
        // *ticked* (by the serial loop) so the crash-instant state and the
        // hook's durable snapshot are bit-identical to a serial run.
        let mut cap = start.saturating_add(limit) - 1;
        if let Some(c) = self.fault_plan.crash_at {
            if c <= self.now + 1 {
                return;
            }
            cap = cap.min(c - 1);
        }
        let t0 = if self.any_buffered_responses() {
            Some(self.now + 1)
        } else {
            self.next_event()
        };
        let Some(t0) = t0 else { return };
        if t0 > cap {
            return;
        }

        // Host-time split: each lap charges the time since the previous one
        // to one part, so the parts sum exactly to the phase's wall time.
        let wall0 = Instant::now();
        let mut mark = wall0;
        let mut lap = |part: &mut u64| {
            let now = Instant::now();
            *part += now.duration_since(mark).as_nanos() as u64;
            mark = now;
        };
        let host = &mut self.epoch_host_time;
        let n = self.workers.len();
        let threads = self.sim_threads.min(n);
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let now0 = self.now;
        // Split the machine into disjoint per-worker lanes. The host DRAM
        // view, catalogue, NoC, and trace sink stay with the coordinator.
        let noc = &mut self.noc;
        let sink = &mut self.trace_sink;
        let lmin = noc.min_hop_latency();
        // The merger's depth mirror must be captured before `begin_epoch`
        // detaches the delivery queues.
        let mut merger = EpochMerger::new(noc);
        let links: Vec<EpochLink> = noc.begin_epoch();

        // Coordinator-side per-lane state lives in the EpochCoordinator,
        // refreshed from LaneOut at each barrier (stale-safe for
        // unscheduled lanes: nothing they own changes while they sit out).
        let mut init: Vec<(Option<u64>, bool, bool)> = Vec::with_capacity(n);
        let mut idle_ns: Vec<u64> = vec![0; n];

        let cells: Vec<Mutex<LaneCell<'_>>> = self
            .workers
            .iter_mut()
            .zip(self.banks.iter_mut())
            .zip(self.partitions.iter_mut())
            .zip(links)
            .enumerate()
            .map(|(idx, (((worker, bank), part), link))| {
                let lane = Lane {
                    idx,
                    worker,
                    bank,
                    tables: &mut part.tables,
                    pos: now0,
                    ticks: 0,
                    skips: 0,
                    rounds: 0,
                    epoch_len: LatencyHistogram::new(),
                    trace: Vec::new(),
                };
                init.push((
                    lane_next(&lane, &link),
                    link.next_ready(now0).is_none(),
                    lane.worker.is_quiescent(),
                ));
                Mutex::new((lane, link))
            })
            .collect();
        let mut coord = EpochCoordinator::new(mode, cap, lmin, now0, init);
        let crew = Crew {
            cells,
            orders: Mutex::new((Cmd::Run, Vec::new())),
            reports: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
            gate: Gate::new(threads, spin_for(threads, cpus)),
            cat: &self.cat,
            tracing: sink.enabled(),
        };
        let mut rounds_done = 0u64;
        let mut trace_buf: Vec<(u64, u32, TxnEvent)> = Vec::new();

        let (slots, to) = std::thread::scope(|s| {
            for t in 1..threads {
                let crew = &crew;
                s.spawn(move || {
                    let _guard = PanicGuard(&crew.gate);
                    crew.participate(t);
                });
            }
            let _guard = PanicGuard(&crew.gate);
            lap(&mut host.fold_ns);
            loop {
                let step = coord.next_step(&mut merger, noc);
                // Trace events below the GVT are final in serial order; at
                // the exit, all of them are.
                let (orders, gvt, exit) = match step {
                    Step::Round { lanes, gvt } => ((Cmd::Run, lanes), gvt, None),
                    Step::Finish {
                        to, expect_idle, ..
                    } => {
                        let all = (0..n).map(|i| (i, to, Vec::new())).collect();
                        ((Cmd::Finish { to, expect_idle }, all), u64::MAX, Some(to))
                    }
                };
                if crew.tracing {
                    let cut = trace_buf.partition_point(|&(c, _, _)| c < gvt);
                    for (_, _, ev) in trace_buf.drain(..cut) {
                        sink.txn(&ev);
                    }
                }
                *lock(&crew.orders) = orders;
                lap(&mut host.next_step_ns);
                crew.gate.wait(); // release the round
                lap(&mut host.release_wait_ns);
                crew.run_slice(0);
                lap(&mut host.lane_work_ns);
                if let Some(to) = exit {
                    break (coord.take_slots(), to);
                }
                crew.gate.wait(); // all results in
                lap(&mut host.all_in_wait_ns);
                rounds_done += 1;

                // ---- fold the round in schedule order ----
                let barrier_end = Instant::now();
                let mut reports: Vec<_> = crew.reports.iter().map(lock).collect();
                let deposits = reports
                    .iter_mut()
                    .flat_map(|rep| rep.drain(..))
                    .filter_map(|r| {
                        coord.note_out(r.idx, &r.out);
                        idle_ns[r.idx] += barrier_end.duration_since(r.done_at).as_nanos() as u64;
                        r.node
                    });
                let round = fold_nodes(deposits);
                merger.absorb(noc, round.batch);
                trace_buf = merge_traces(std::mem::take(&mut trace_buf), round.trace);
                lap(&mut host.fold_ns);
            }
        });
        // Leaving the scope joined the peers' finish slices.
        lap(&mut host.all_in_wait_ns);

        let mut total_ticks = 0u64;
        let mut links: Vec<EpochLink> = Vec::with_capacity(n);
        for (i, cell) in crew.cells.into_iter().enumerate() {
            let (lane, link) = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
            total_ticks += lane.ticks;
            let la = &mut self.lane_activity[i];
            la.ticks += lane.ticks;
            la.skips += lane.skips;
            la.rounds += lane.rounds;
            la.barrier_idle_ns += idle_ns[i];
            la.epoch_len.merge(&lane.epoch_len);
            links.push(link);
        }
        noc.absorb_epoch(links, slots);
        self.now = to;
        // In parallel mode a "tick" is one *component* tick (a single
        // worker at a single cycle) rather than one whole-machine cycle —
        // like strict-vs-fast, the unit deliberately measures the
        // simulator, not the machine.
        self.ticks_executed += total_ticks;
        self.epoch_rounds += rounds_done;
        lap(&mut host.fold_ns);
        host.total_ns += mark.duration_since(wall0).as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_noc::Topology;
    use proptest::prelude::*;

    /// The per-round Bellman–Ford fixpoint the scheduler ran before the
    /// one-pass grant, kept as the reference: relax earliest-action bounds
    /// `A_j = min(base_j, min_{k != j}(A_k + L(k, j)))` until nothing
    /// changes, then grant `H_i = min(floor_i, min_{j != i}(A_j + L(j, i))) - 1`,
    /// capped.
    fn fixpoint_horizons(
        base: &[Option<u64>],
        floors: &[Option<u64>],
        noc: &Noc,
        cap: u64,
    ) -> Vec<u64> {
        let n = base.len();
        let pid = |i: usize| PartitionId(i as u16);
        let mut act = base.to_vec();
        loop {
            let mut changed = false;
            for j in 0..n {
                for k in (0..n).filter(|&k| k != j) {
                    if let Some(ak) = act[k] {
                        let via = ak.saturating_add(noc.min_latency(pid(k), pid(j)));
                        if act[j].is_none_or(|aj| via < aj) {
                            act[j] = Some(via);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        (0..n)
            .map(|i| {
                let mut bound = floors[i];
                for (j, aj) in act.iter().enumerate() {
                    if let (true, Some(aj)) = (j != i, aj) {
                        let arr = aj.saturating_add(noc.min_latency(pid(j), pid(i)));
                        bound = Some(bound.map_or(arr, |b| b.min(arr)));
                    }
                }
                bound.map_or(cap, |b| b.saturating_sub(1)).min(cap)
            })
            .collect()
    }

    /// Lane `i`'s [`LookaheadMode::Matrix`] horizon straight from the
    /// per-pair definition in O(n) — the pairwise pass the scheduler ran
    /// before grouping lanes by island, kept as the reference:
    /// `H_i = min(floor_i, base_i + RT_i, min_{k != i}(base_k + L(k, i))) - 1`,
    /// capped.
    fn matrix_horizon(
        i: usize,
        base: &[Option<u64>],
        floor: Option<u64>,
        noc: &Noc,
        cap: u64,
    ) -> u64 {
        let pid = |k: usize| PartitionId(k as u16);
        let bounce = base[i]
            .zip(noc.min_round_trip(pid(i)))
            .map(|(b, rt)| b.saturating_add(rt));
        let direct = (0..base.len())
            .filter(|&k| k != i)
            .filter_map(|k| base[k].map(|b| b.saturating_add(noc.min_latency(pid(k), pid(i)))));
        floor
            .into_iter()
            .chain(bounce)
            .chain(direct)
            .min()
            .map_or(cap, |b| b.saturating_sub(1))
            .min(cap)
    }

    fn opt_cycle() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![Just(None), (0u64..5_000).prop_map(Some)]
    }

    fn topology(which: usize, per: usize, inter: u64) -> Topology {
        match which {
            0 => Topology::Crossbar,
            1 => Topology::Ring,
            2 => Topology::MultiChip {
                workers_per_node: per,
                inter_node_hops: inter,
            },
            _ => Topology::Fleet {
                workers_per_chip: per,
                neighbor_hops: inter,
            },
        }
    }

    fn cap() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..6_000, Just(u64::MAX - 1)]
    }

    /// A send from lane `src` to lane `dst`, tagged with `seq`.
    fn pkt(src: usize, dst: usize, seq: u64) -> Packet {
        use bionicdb_noc::Payload;
        use bionicdb_softcore::catalogue::TableId;
        use bionicdb_softcore::request::{CpSlot, DbOp, DbRequest};
        Packet {
            src: PartitionId(src as u16),
            dst: PartitionId(dst as u16),
            seq,
            payload: Payload::Request(DbRequest {
                op: DbOp::Search,
                table: TableId(0),
                key_addr: 0,
                payload_addr: 0,
                scan_count: 0,
                out_addr: 0,
                ts: 1,
                cp: CpSlot {
                    worker: PartitionId(src as u16),
                    index: 0,
                },
                home: PartitionId(dst as u16),
                batch_group: 0,
            }),
        }
    }

    fn event(worker: usize, id: u64) -> TxnEvent {
        TxnEvent {
            worker: worker as u16,
            block_addr: id,
            submitted_at: 0,
            logic_start: 0,
            logic_end: 0,
            commit_start: 0,
            finished_at: 0,
            committed: true,
        }
    }

    proptest! {
        /// The one-pass horizon grant equals the Bellman–Ford fixpoint on
        /// random bases and arrival floors (absent ones included) over every
        /// topology family — the exactness the metric property buys.
        #[test]
        fn one_pass_horizons_match_fixpoint(
            which in 0usize..4,
            n in 1usize..12,
            raw_hop in 0u64..8,
            per in 1usize..5,
            inter in 0u64..60,
            base in prop::collection::vec(opt_cycle(), 11),
            floors in prop::collection::vec(opt_cycle(), 11),
            cap in cap(),
        ) {
            let topology = topology(which, per, inter);
            let noc = Noc::new(topology, n, raw_hop);
            let (base, floors) = (&base[..n], &floors[..n]);
            let expect = fixpoint_horizons(base, floors, &noc, cap);
            for (i, &h) in expect.iter().enumerate() {
                prop_assert_eq!(
                    matrix_horizon(i, base, floors[i], &noc, cap),
                    h,
                    "lane {} under {:?}",
                    i,
                    topology
                );
            }
        }

        /// The per-island pass equals the pairwise definition for every
        /// lane, over every topology family — chips that do not divide the
        /// worker count, one-worker islands, and ties for an island's
        /// minimum included.
        #[test]
        fn island_horizons_match_pairwise(
            which in 0usize..4,
            n in 1usize..12,
            raw_hop in 0u64..8,
            per in 1usize..5,
            inter in 0u64..60,
            base in prop::collection::vec(
                prop_oneof![Just(None), (0u64..8).prop_map(Some), (0u64..5_000).prop_map(Some)],
                11,
            ),
            floors in prop::collection::vec(opt_cycle(), 11),
            cap in cap(),
        ) {
            let topology = topology(which, per, inter);
            let noc = Noc::new(topology, n, raw_hop);
            let (base, floors) = (&base[..n], &floors[..n]);
            let mut islands = IslandHorizons::default();
            islands.prepare(base, &noc);
            for (i, &floor) in floors.iter().enumerate() {
                prop_assert_eq!(
                    islands.horizon(i, base, floor, &noc, cap),
                    matrix_horizon(i, base, floor, &noc, cap),
                    "lane {} under {:?}",
                    i,
                    topology
                );
            }
        }

        /// Folding the lanes' reports in thread order — each thread
        /// holding its contiguous slice of the schedule — yields a stable
        /// `(cycle, lane)` sort of the concatenated per-lane sends and
        /// traces, whatever the thread count. Lanes with nothing to report
        /// are skipped, as in a real round.
        #[test]
        fn lane_order_fold_is_a_stable_sort(
            n in 2usize..9,
            threads in 1usize..6,
            per_lane in prop::collection::vec(
                (
                    prop::collection::vec((0u64..40, 1usize..8), 0..6),
                    prop::collection::vec(0u64..40, 0..4),
                ),
                8,
            ),
        ) {
            use bionicdb_noc::Link;
            let mut noc = Noc::new(Topology::Crossbar, n, 3);
            let mut links = noc.begin_epoch();
            let mut nodes = Vec::new();
            let (mut sends, mut traces) = (Vec::new(), Vec::new());
            let mut seq = 0u64;
            for (i, link) in links.iter_mut().enumerate() {
                let (mut lane_sends, mut lane_trace) = per_lane[i].clone();
                lane_sends.sort_by_key(|&(c, _)| c);
                lane_sends.dedup_by_key(|&mut (c, _)| c); // one issue slot per cycle
                lane_trace.sort();
                link.begin_round(Vec::new());
                for (c, off) in lane_sends {
                    let dst = (i + 1 + off % (n - 1)) % n;
                    link.send(c, pkt(i, dst, seq)).expect("one send per cycle");
                    sends.push((c, i as u32, seq));
                    seq += 1;
                }
                let trace: Vec<_> = lane_trace
                    .into_iter()
                    .map(|c| {
                        seq += 1;
                        (c, i as u32, event(i, seq))
                    })
                    .collect();
                traces.extend(trace.iter().copied());
                let batch = StagedBatch::from_traffic(link.harvest());
                let node = (!batch.is_empty() || !trace.is_empty())
                    .then_some(RoundNode { batch, trace });
                nodes.push(node);
            }
            let per_thread: Vec<Vec<RoundNode>> = (0..threads)
                .map(|t| slice(n, t, threads).filter_map(|i| nodes[i].take()).collect())
                .collect();
            let round = fold_nodes(per_thread.into_iter().flatten());
            sends.sort_by_key(|&(c, src, _)| (c, src));
            traces.sort_by_key(|&(c, lane, _)| (c, lane));
            prop_assert_eq!(&round.trace, &traces);
            // Commit order is the batch's send order.
            let mut merger = EpochMerger::new(&noc);
            merger.absorb(&mut noc, round.batch);
            let mut got = Vec::new();
            merger.commit(&mut noc, None, |_, arr, p| got.push((arr - 3, p.src.0 as u32, p.seq)));
            prop_assert_eq!(got, sends);
        }
    }

    #[test]
    fn spin_only_when_every_thread_has_a_cpu() {
        for (threads, cpus) in [(1, 1), (2, 2), (2, 8)] {
            assert_eq!(
                spin_for(threads, cpus),
                SPIN,
                "{threads} threads on {cpus} CPUs"
            );
        }
        for (threads, cpus) in [(2, 1), (3, 2), (4, 2)] {
            assert!(
                spin_for(threads, cpus).is_zero(),
                "{threads} threads on {cpus} CPUs"
            );
        }
    }

    /// The gate synchronises rounds whether waiters spin or park: nobody
    /// leaves round `r` before everyone has entered it.
    #[test]
    fn gate_separates_rounds() {
        use std::sync::atomic::AtomicUsize;
        for spin in [SPIN, Duration::ZERO] {
            let gate = Gate::new(3, spin);
            let entered = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        for r in 1..=200 {
                            entered.fetch_add(1, Ordering::SeqCst);
                            gate.wait();
                            assert!(entered.load(Ordering::SeqCst) >= 3 * r);
                            gate.wait();
                        }
                    });
                }
            });
        }
    }

    /// A poisoned gate releases its peers into a panic whether they are
    /// spinning or parked, instead of leaving them blocked forever.
    #[test]
    fn poisoned_gate_releases_spinning_and_parked_peers() {
        for parked in [false, true] {
            let spin = if parked {
                Duration::ZERO
            } else {
                Duration::from_secs(600)
            };
            let gate = Gate::new(3, spin);
            std::thread::scope(|s| {
                let peers: Vec<_> = (0..2).map(|_| s.spawn(|| gate.wait())).collect();
                while gate.arrived.load(Ordering::SeqCst) < 2
                    || (parked && gate.parked.load(Ordering::SeqCst) < 2)
                {
                    std::thread::yield_now();
                }
                assert_eq!(
                    gate.parked.load(Ordering::SeqCst),
                    if parked { 2 } else { 0 }
                );
                gate.poison();
                for p in peers {
                    assert!(p.join().is_err(), "a poisoned gate must panic its peers");
                }
            });
        }
    }
}
