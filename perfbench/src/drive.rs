//! The load: client threads that call the session API directly, and the
//! migration thread that calls `MigrationEngine::migrate`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use remus::cluster::{Cluster, Session};
use remus::common::{ClientId, DbError, DbResult, NodeId, ShardId, Timestamp};
use remus::migration::{MigrationEngine, MigrationReport, MigrationTask, RemusEngine};
use remus::shard::TableLayout;
use remus::workload::engine::{ArrivalGen, Pacing};

use crate::db::{decode, encode, initial_owner, NODES, ROWS};
use crate::hist::Hist;
use crate::trace::{Call, TxnCalls, TxnTracer};

const READS_PER_TXN: usize = 4;
/// Offered load of the open loop, in transactions per second: far below
/// what one client thread sustains closed-loop, so the foreground stays
/// light and queueing comes from the migration alone.
const OPEN_RATE: f64 = 8_000.0;
/// Logical open-loop clients multiplexed onto the open-loop thread.
const CLIENTS: usize = 16;
/// Due arrivals a client thread holds before it sheds new ones.
const QUEUE_BOUND: usize = 1_024;
/// Pause between two migrations: short, so that about half of the
/// arrivals fall inside a `migrate` call.
const MOVE_GAP: Duration = Duration::from_millis(5);
/// Traced runs alternate untraced and traced segments of this length, so
/// `trace.overhead_ratio` compares the two under the same conditions.
const TRACE_SEGMENT: u64 = 500_000_000;
/// The shard that migrates: about ROWS / SHARDS rows, first owned by node 0.
pub const MOVED_SHARD: ShardId = ShardId(0);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OltpSteady,
    MigrateChurn,
    Durable2pc,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "oltp-steady" => Some(Workload::OltpSteady),
            "migrate-churn" => Some(Workload::MigrateChurn),
            "durable-2pc" => Some(Workload::Durable2pc),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpSteady => "oltp-steady",
            Workload::MigrateChurn => "migrate-churn",
            Workload::Durable2pc => "durable-2pc",
        }
    }

    pub fn open_loop(self) -> bool {
        self == Workload::MigrateChurn
    }

    pub fn durable(self) -> bool {
        self == Workload::Durable2pc
    }

    /// Whether the run starts the cluster's maintenance thread (chain GC
    /// and WAL truncation) before its warm-up. See README.md for why the
    /// other two workloads run without it.
    pub fn maintained(self) -> bool {
        self == Workload::OltpSteady
    }
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on (empty if the call fails).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to `cpus`.
pub fn pin(cpus: &[usize]) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    match rc {
        0 => Ok(()),
        _ => Err(format!("sched_setaffinity({cpus:?}) failed")),
    }
}

/// Keeps `cpu` busy at `SCHED_IDLE` priority until `stop`. Any other
/// runnable thread on that CPU preempts it at once, so it only fills the
/// time the CPU would otherwise be idle. On a virtual machine an idle vCPU
/// is halted, and waking it costs up to milliseconds; the run then measures
/// the hypervisor's wake-up rather than the program. Returns at once if the
/// thread cannot be put at `SCHED_IDLE`, since spinning at normal priority
/// would compete with the program.
pub fn idle_poll(cpu: usize, stop: &AtomicBool) {
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` is a valid `sched_param` and pid 0 names the calling
    // thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc != 0 || pin(&[cpu]).is_err() {
        eprintln!("perfbench: no idle poll on CPU {cpu}");
        return;
    }
    while !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

pub fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// splitmix64: the benchmark's only source of key choices.
#[derive(Default)]
pub struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// The `migrate` calls made so far, as offsets from the run epoch.
#[derive(Default)]
pub struct Windows {
    any: AtomicBool,
    calls: Mutex<Calls>,
}

#[derive(Default)]
struct Calls {
    /// Finished calls as `(start, end)`, in start order.
    done: Vec<(u64, u64)>,
    /// Start of the call in progress.
    open: Option<u64>,
}

impl Windows {
    fn open(&self, epoch: Instant) -> u64 {
        let mut g = self.calls.lock().expect("windows lock poisoned");
        self.any.store(true, Ordering::SeqCst);
        let start = ns(epoch);
        g.open = Some(start);
        start
    }

    fn close(&self, start: u64, end: u64) {
        let mut g = self.calls.lock().expect("windows lock poisoned");
        g.done.push((start, end));
        g.open = None;
    }

    /// Whether `at` fell inside a `migrate` call. Exact once the caller has
    /// passed `at`: every call that began before it is recorded by then.
    pub fn contains(&self, at: u64) -> bool {
        if !self.any.load(Ordering::SeqCst) {
            return false;
        }
        let g = self.calls.lock().expect("windows lock poisoned");
        if g.open.is_some_and(|s| s <= at) {
            return true;
        }
        let i = g.done.partition_point(|&(s, _)| s <= at);
        i > 0 && at < g.done[i - 1].1
    }
}

/// What every thread of one run shares.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub threads: usize,
    pub epoch: Instant,
    /// The measured window `[w0, w1)`, in ns from the epoch.
    pub w0: u64,
    pub w1: u64,
    /// The closed-loop workloads' migration probe, which runs before their
    /// warm-up: its measured span `[p0, p1)`, in ns from the epoch.
    pub probe: Option<(u64, u64)>,
    pub trace: bool,
    /// The CPU the open-loop client thread is pinned to, if any; the
    /// program's threads then run on the other CPUs.
    pub client_cpu: Option<usize>,
    /// Every CPU this process may use: the closed-loop clients' set.
    pub all_cpus: Vec<usize>,
    pub stop_clients: AtomicBool,
    pub stop_migrations: AtomicBool,
    pub windows: Windows,
}

impl Run {
    pub fn in_window(&self, at: u64) -> bool {
        (self.w0..self.w1).contains(&at)
    }

    fn in_probe(&self, at: u64) -> bool {
        self.probe.is_some_and(|(p0, p1)| (p0..p1).contains(&at))
    }

    /// Whether `at` falls in the window or the probe: warm-up is not
    /// measured.
    pub fn measured(&self, at: u64) -> bool {
        self.in_window(at) || self.in_probe(at)
    }

    /// Traced runs time calls in odd segments of the window and throughout
    /// the migration probe.
    fn traced(&self, at: u64) -> bool {
        self.trace
            && (self.in_probe(at)
                || (self.in_window(at) && ((at - self.w0) / TRACE_SEGMENT) % 2 == 1))
    }
}

/// One client thread's results.
#[derive(Default)]
pub struct ClientOut {
    /// `(arrival, latency)` in ns of window transactions outside any
    /// migration.
    pub normal: Vec<(u64, u64)>,
    /// `(arrival, latency)` in ns of transactions that arrived inside a
    /// `migrate` call.
    pub migration: Vec<(u64, u64)>,
    /// How late open-loop arrivals began against their schedule.
    pub lag: Hist,
    /// Commits of window transactions, untraced and traced.
    pub commits: [u64; 2],
    pub attempted: u64,
    pub failed: u64,
    pub failed_in_migration: u64,
    pub migration_aborts: u64,
    pub wrong_reads: u64,
    pub offered: u64,
    pub executed: u64,
    pub dropped: u64,
    pub max_cts: Timestamp,
    /// Sequence number of this thread's last write.
    pub seq: u64,
    /// Key choices, carried across phases so they depend on the seed alone.
    rng: Rng,
    /// Per own key (index `key / threads`): commit ts and sequence number
    /// of its highest-commit-ts committed writer.
    pub expected: Vec<(u64, u64)>,
    pub tracer: TxnTracer,
    pub first_error: Option<String>,
    pub first_wrong: Option<String>,
}

/// What one transaction does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mix {
    /// 4 uniform point reads and 1 update of an own key.
    Point,
    /// The point mix without its update.
    Reads,
    /// Updates of 2 own keys owned by different nodes, so every commit is
    /// 2PC.
    TwoPc,
}

/// How a client thread paces its transactions.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Back to back until `stop_clients`.
    Closed,
    /// Poisson arrivals due in `[from, until)`.
    Open { from: u64, until: u64 },
}

struct Client<'a> {
    t: usize,
    run: &'a Run,
    layout: &'a TableLayout,
    session: Session,
    mix: Mix,
    /// `durable-2pc`: this thread's keys grouped by the node owning them.
    by_node: Vec<Vec<u64>>,
    out: ClientOut,
}

/// Runs `f` and, when tracing, files it as one call span.
fn timed<T>(
    calls: Option<&mut TxnCalls>,
    epoch: Instant,
    call: Call,
    f: impl FnOnce() -> DbResult<T>,
) -> DbResult<T> {
    let Some(calls) = calls else { return f() };
    let start = ns(epoch);
    let r = f();
    calls.push((call, start, ns(epoch), r.is_ok()));
    r
}

impl Client<'_> {
    /// Thread `t` writes only keys `k` with `k % threads == t`, so writes
    /// never conflict and no transaction should fail.
    fn own_key(&mut self) -> u64 {
        let n = self.run.threads as u64;
        let count = (ROWS - self.t as u64).div_ceil(n);
        self.t as u64 + n * self.out.rng.below(count)
    }

    fn keys(&mut self) -> (Vec<u64>, Vec<u64>) {
        if self.mix == Mix::TwoPc {
            let a = self.out.rng.below(NODES as u64) as usize;
            let b = (a + 1 + self.out.rng.below(NODES as u64 - 1) as usize) % NODES;
            let pick = |rng: &mut Rng, keys: &Vec<u64>| keys[rng.below(keys.len() as u64) as usize];
            let ka = pick(&mut self.out.rng, &self.by_node[a]);
            let kb = pick(&mut self.out.rng, &self.by_node[b]);
            (Vec::new(), vec![ka, kb])
        } else {
            let reads = (0..READS_PER_TXN)
                .map(|_| self.out.rng.below(ROWS))
                .collect();
            let write = self.own_key();
            (
                reads,
                if self.mix == Mix::Point {
                    vec![write]
                } else {
                    Vec::new()
                },
            )
        }
    }

    fn exec(
        &mut self,
        reads: &[u64],
        writes: &[u64],
        seq: u64,
        mut calls: Option<&mut TxnCalls>,
    ) -> DbResult<Timestamp> {
        let epoch = self.run.epoch;
        let session = &self.session;
        let mut txn = timed(calls.as_deref_mut(), epoch, Call::Begin, || {
            Ok(session.begin())
        })?;
        for &k in reads {
            let got = timed(calls.as_deref_mut(), epoch, Call::Read, || {
                txn.read(self.layout, k)
            })?;
            if got.as_deref().and_then(decode).map(|(key, _)| key) != Some(k) {
                self.out.wrong_reads += 1;
                if self.out.first_wrong.is_none() {
                    let shard = self.layout.shard_for(k);
                    self.out.first_wrong = Some(format!(
                        "key {k} on {shard:?} read {:?} at {}us (snapshot {:?})",
                        got.as_deref().map(decode),
                        ns(epoch) / 1000,
                        txn.start_ts()
                    ));
                }
            }
        }
        for &k in writes {
            timed(calls.as_deref_mut(), epoch, Call::Update, || {
                txn.update(self.layout, k, encode(k, seq))
            })?;
        }
        timed(calls, epoch, Call::Commit, || txn.commit())
    }

    /// Runs one transaction that was due at `due` (ns from the epoch).
    fn txn(&mut self, due: u64) {
        let run = self.run;
        let (reads, writes) = self.keys();
        self.out.seq += 1;
        let seq = self.out.seq;
        let traced = run.traced(due);
        let mut calls = TxnCalls::new();
        let start = ns(run.epoch);
        let result = self.exec(&reads, &writes, seq, traced.then_some(&mut calls));
        let end = ns(run.epoch);
        let in_migration = run.windows.contains(due);
        let out = &mut self.out;
        match &result {
            Ok(cts) => {
                out.max_cts = out.max_cts.max(*cts);
                for &k in &writes {
                    let slot = &mut out.expected[(k / run.threads as u64) as usize];
                    if cts.0 > slot.0 {
                        *slot = (cts.0, seq);
                    }
                }
            }
            Err(e) => {
                if matches!(e, DbError::MigrationAbort { .. }) {
                    out.migration_aborts += 1;
                }
                if out.first_error.is_none() {
                    out.first_error = Some(format!("{e:?}"));
                }
            }
        }
        if !run.measured(due) {
            return;
        }
        let ok = result.is_ok();
        let window = run.in_window(due);
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.executed += 1;
        if in_migration {
            out.migration.push((due, end - due));
            out.failed_in_migration += u64::from(!ok);
        } else if window {
            out.normal.push((due, end - due));
        }
        if window {
            out.commits[usize::from(traced)] += u64::from(ok);
        }
        if traced {
            out.tracer
                .record_txn(self.t, start, end, &calls, in_migration, window);
        }
    }

    fn closed_loop(&mut self) {
        while !self.run.stop_clients.load(Ordering::Relaxed) {
            let due = ns(self.run.epoch);
            self.txn(due);
        }
    }

    /// Poisson arrivals from `ArrivalGen`, merged over this thread's
    /// logical clients. Latency runs from the intended arrival.
    ///
    /// The thread busy-polls its schedule instead of sleeping: on a virtual
    /// machine an idle vCPU is halted, and waking it again costs
    /// milliseconds. A sleeping generator would measure that, not the
    /// program.
    fn open_loop(&mut self, from: u64, until: u64) {
        let run = self.run;
        let mean = Duration::from_secs_f64(CLIENTS as f64 / OPEN_RATE);
        let mut gens: Vec<ArrivalGen> = (0..CLIENTS)
            .map(|c| ArrivalGen::new(run.seed, ClientId(c as u32), Pacing::Poisson { mean }))
            .collect();
        for g in &mut gens {
            while g.current() < from {
                g.advance();
            }
        }
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = gens
            .iter()
            .enumerate()
            .map(|(c, g)| Reverse((g.current(), c)))
            .collect();
        let mut queue: VecDeque<u64> = VecDeque::new();
        loop {
            let now = ns(run.epoch);
            while let Some(&Reverse((due, c))) = heap.peek() {
                if due > now || due >= until {
                    break;
                }
                heap.pop();
                let measured = run.measured(due);
                self.out.offered += u64::from(measured);
                if queue.len() < QUEUE_BOUND {
                    queue.push_back(due);
                } else if measured {
                    self.out.dropped += 1;
                }
                gens[c].advance();
                heap.push(Reverse((gens[c].current(), c)));
            }
            if let Some(due) = queue.pop_front() {
                if run.measured(due) {
                    self.out.lag.record(ns(run.epoch) - due);
                }
                self.txn(due);
                continue;
            }
            match heap.peek() {
                Some(&Reverse((due, _))) if due < until => std::hint::spin_loop(),
                _ => break,
            }
        }
    }
}

impl ClientOut {
    pub fn new(t: usize, threads: usize, seed: u64) -> ClientOut {
        let own = (ROWS - t as u64).div_ceil(threads as u64);
        ClientOut {
            expected: vec![(0, 0); own as usize],
            rng: Rng(seed ^ (t as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)),
            ..ClientOut::default()
        }
    }
}

/// Runs client thread `t` at `pace`, continuing from `out`. The open loop
/// runs on the client CPU; closed-loop clients may use every CPU.
pub fn client_thread(
    t: usize,
    run: &Run,
    cluster: &Arc<Cluster>,
    layout: &TableLayout,
    out: ClientOut,
    pace: Pace,
) -> ClientOut {
    let cpus = match pace {
        Pace::Open { .. } => run.client_cpu.map(|c| vec![c]),
        Pace::Closed => run.client_cpu.map(|_| run.all_cpus.clone()),
    };
    if let Some(cpus) = cpus {
        pin(&cpus).expect("pinning to CPUs taken from the allowed set");
    }
    // One open-loop thread cannot offer `OPEN_RATE` durable commits a
    // second, so the probe on the `durable-2pc` cluster offers the reads
    // alone.
    let mix = match (pace, run.workload.durable()) {
        (_, false) => Mix::Point,
        (Pace::Open { .. }, true) => Mix::Reads,
        (Pace::Closed, true) => Mix::TwoPc,
    };
    let mut by_node = vec![Vec::new(); NODES];
    if mix == Mix::TwoPc {
        for k in (t as u64..ROWS).step_by(run.threads) {
            by_node[initial_owner(layout.shard_for(k)).raw() as usize].push(k);
        }
    }
    let mut client = Client {
        t,
        run,
        layout,
        session: Session::connect(cluster, NodeId((t % NODES) as u32)),
        mix,
        by_node,
        out,
    };
    match pace {
        Pace::Open { from, until } => client.open_loop(from, until),
        Pace::Closed => client.closed_loop(),
    }
    client.out
}

/// One `migrate` call, as offsets from the epoch, with its report.
pub struct Move {
    pub start: u64,
    pub end: u64,
    pub report: MigrationReport,
}

#[derive(Default)]
pub struct MigrationOut {
    pub moves: Vec<Move>,
    /// Owner of `MOVED_SHARD` after the last completed move.
    pub owner: Option<NodeId>,
    pub error: Option<String>,
}

/// Moves `MOVED_SHARD` between nodes 0 and 1 with `RemusEngine`, with
/// `MOVE_GAP` between moves, until `stop_migrations` finds the shard back
/// on its first owner: the layout after the loop is the set-up layout.
pub fn migrate_loop(cluster: &Arc<Cluster>, run: &Run) -> MigrationOut {
    let engine = RemusEngine::new();
    let mut out = MigrationOut::default();
    let home = initial_owner(MOVED_SHARD);
    let (mut src, mut dst) = (home, NodeId(1));
    while !(run.stop_migrations.load(Ordering::SeqCst) && src == home) {
        let task = MigrationTask::single(MOVED_SHARD, src, dst);
        let start = run.windows.open(run.epoch);
        let result = engine.migrate(cluster, &task);
        let end = ns(run.epoch);
        run.windows.close(start, end);
        match result {
            Ok(report) => out.moves.push(Move { start, end, report }),
            Err(e) => {
                out.error = Some(format!("migrate {src:?} -> {dst:?}: {e:?}"));
                break;
            }
        }
        out.owner = Some(dst);
        std::mem::swap(&mut src, &mut dst);
        std::thread::sleep(MOVE_GAP);
    }
    out
}
