//! The repository's benchmark: builds a Remus cluster through the public
//! API, drives one workload from this process, checks the results and
//! prints every metric by name with its unit. See `README.md` beside this
//! package for the workloads and metrics.
//!
//! Usage: `perfbench --workload <oltp-steady|migrate-churn|durable-2pc>
//! --seed <n> --seconds <n> --trace <0|1> --out <dir>`

mod db;
mod drive;
mod hist;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use remus::cluster::Cluster;
use remus::common::Timestamp;

use db::{initial_owner, Db};
use drive::{
    client_thread, migrate_loop, ClientOut, MigrationOut, Pace, Run, Workload, MOVED_SHARD,
};
use hist::Hist;
use trace::{migration_self, migration_spans, Call, TxnTracer, PHASES};

/// Warm-up before the measured window and before the probe: GC and GTS
/// leases reach steady state, and the migration loop has a move under way.
const WARMUP: Duration = Duration::from_secs(1);
/// Cluster builds per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Transactions per block when summarising latency: the smallest block
/// whose p99 has ten samples beyond it.
const BLOCK: usize = 1_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        out: PathBuf::from(get("--out")?),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Counter totals over all labels, by name.
fn counters(cluster: &Cluster) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for s in cluster.metrics_snapshot() {
        if s.kind == "counter" {
            *out.entry(s.name).or_insert(0) += s.value;
        }
    }
    out
}

fn delta(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, name: &str) -> u64 {
    let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    get(b).saturating_sub(get(a))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `v` by rank, as `Hist::quantile` takes it.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident memory of this process, in MiB.
fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("rss: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("rss: no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Latency of one class of transactions. The reported percentiles are
/// medians over consecutive blocks of `BLOCK` transactions (by arrival) of
/// each block's own percentile: one burst moves one block, not the run.
/// The pooled percentiles over every sample are kept for the log.
struct Latency {
    samples: usize,
    blocks: usize,
    /// Block medians of p50, p90 and p99, in µs.
    block: [f64; 3],
    /// Pooled p50, p90, p99 and p99.9, in µs.
    pooled: [f64; 4],
}

impl Latency {
    fn of(mut samples: Vec<(u64, u64)>) -> Latency {
        samples.sort_unstable();
        let lat: Vec<f64> = samples.iter().map(|&(_, l)| l as f64 / 1e3).collect();
        let blocks: Vec<&[f64]> = match lat.len() >= BLOCK {
            true => lat.chunks_exact(BLOCK).collect(),
            false => vec![&lat[..]],
        };
        let per_block = |q| median(blocks.iter().map(|b| quantile(b.to_vec(), q)).collect());
        Latency {
            samples: lat.len(),
            blocks: blocks.len(),
            block: [per_block(0.5), per_block(0.9), per_block(0.99)],
            pooled: [0.5, 0.9, 0.99, 0.999].map(|q| quantile(lat.clone(), q)),
        }
    }

    fn log(&self, what: &str) {
        let [b50, b90, b99] = self.block;
        let [p50, p90, p99, p999] = self.pooled;
        println!(
            "latency {what}: p50={b50:.1}us p90={b90:.1}us p99={b99:.1}us (medians of {} blocks of {BLOCK}); \
             pooled p50={p50:.1}us p90={p90:.1}us p99={p99:.1}us p99.9={p999:.1}us; samples={}",
            self.blocks, self.samples
        );
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Sets its flag when dropped, on every way out of a scope.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Runs the benchmark with an idle-poll thread on every allowed CPU (see
/// `drive::idle_poll`), stopped and joined on every way out.
fn run(args: &Args) -> Result<bool, String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for cpu in drive::allowed_cpus() {
            let stop = &stop;
            s.spawn(move || drive::idle_poll(cpu, stop));
        }
        let _stop = SetOnDrop(&stop);
        measure(args)
    })
}

fn measure(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The open loop runs one busy-polling client thread on the first CPU.
    // This thread, and so every thread the cluster spawns (GC, WAL
    // flushers, migration workers), keeps off that CPU, so thread placement
    // is the same on every run. Closed-loop clients may use every CPU.
    let all_cpus = drive::allowed_cpus();
    let client_cpu = match all_cpus.split_first() {
        Some((&first, rest)) if !rest.is_empty() => {
            drive::pin(rest)?;
            Some(first)
        }
        _ => None,
    };
    let threads = match w.open_loop() {
        true => 1,
        false => nproc.min(db::NODES),
    };

    let mut setup_s = Vec::new();
    let mut db = None;
    for i in 0..SETUPS {
        let wal = w.durable().then(|| args.out.join(format!("wal-{i}")));
        // Close the previous cluster first: its maintenance thread would
        // compete with this build.
        if let Some(old) = db.take() {
            Db::close(old);
        }
        let t = Instant::now();
        db = Some(Db::build(wal)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut db = db.expect("SETUPS is at least 1");

    // The closed-loop workloads have no migration in their window. They
    // first run a migration probe on the freshly loaded cluster:
    // `migrate-churn`'s open loop and moves, with its warm-up, for as long
    // as the window. Their own warm-up and window follow it.
    let span = args.seconds * 1_000_000_000;
    let warmup = WARMUP.as_nanos() as u64;
    let (probe, w0) = match w.open_loop() {
        true => (None, warmup),
        false => (Some((warmup, warmup + span)), 2 * warmup + span),
    };
    let run = Run {
        workload: w,
        seed: args.seed,
        threads,
        epoch: Instant::now(),
        w0,
        w1: w0 + span,
        probe,
        trace: args.trace,
        client_cpu,
        all_cpus,
        stop_clients: Default::default(),
        stop_migrations: Default::default(),
        windows: Default::default(),
    };
    let sleep_until = |at: u64| loop {
        let now = drive::ns(run.epoch);
        if now >= at {
            break;
        }
        std::thread::sleep(Duration::from_nanos(at - now));
    };
    let mut outs: Vec<ClientOut> = (0..threads)
        .map(|t| ClientOut::new(t, threads, args.seed))
        .collect();

    let probed = run.probe.map(|(p0, p1)| {
        std::thread::scope(|s| {
            let pace = Pace::Open { from: 0, until: p1 };
            let client = spawn_clients(s, &run, &db, vec![std::mem::take(&mut outs[0])], pace);
            let migrations = s.spawn(|| migrate_loop(&db.cluster, &run));
            sleep_until(p0);
            let m0 = counters(&db.cluster);
            sleep_until(p1);
            let m1 = counters(&db.cluster);
            run.stop_migrations.store(true, Ordering::SeqCst);
            let mig = migrations.join().expect("migration thread panicked");
            for h in client {
                outs[0] = h.join().expect("client thread panicked");
            }
            (mig, m0, m1)
        })
    });

    // Warm-up and the measured window.
    if w.maintained() {
        db.start_maintenance();
    }
    let pace = match w.open_loop() {
        true => Pace::Open {
            from: 0,
            until: run.w1,
        },
        false => Pace::Closed,
    };
    let (outs, churn, c0, c1) = std::thread::scope(|s| {
        let clients = spawn_clients(s, &run, &db, outs, pace);
        let churn = w
            .open_loop()
            .then(|| s.spawn(|| migrate_loop(&db.cluster, &run)));
        sleep_until(run.w0);
        let c0 = counters(&db.cluster);
        sleep_until(run.w1);
        let c1 = counters(&db.cluster);
        let churn = churn.map(|h| {
            run.stop_migrations.store(true, Ordering::SeqCst);
            h.join().expect("migration thread panicked")
        });
        (join_clients(&run, clients), churn, c0, c1)
    });
    // Counters over the window, and over the span the migrations were
    // measured in: the window of `migrate-churn`, the probe of the others.
    let (mig, snaps) = match (probed, churn) {
        (Some((mig, m0, m1)), _) => (mig, [c0, c1, m0, m1]),
        (None, Some(mig)) => (mig, [c0.clone(), c1.clone(), c0, c1]),
        (None, None) => unreachable!("every workload migrates in its window or its probe"),
    };

    // See README.md for the defect a write to a moved shard followed by a
    // restart exposes; `durable-2pc`'s probe makes no writes.
    let restarted = match w.durable() {
        true => check_restarts(&db, &run, &outs),
        false => Ok(()),
    };

    let checks = restarted.and_then(|()| check(&db, &run, &outs, &mig));
    let correct = checks.is_ok();
    if let Err(e) = &checks {
        eprintln!("perfbench: correctness check failed: {e}");
    }
    let metrics = report(args, &run, &outs, &mig, &snaps, &setup_s, nproc)?;
    db.close();

    let attempted: u64 = outs.iter().map(|o| o.attempted + o.dropped).sum();
    let failed: u64 = outs.iter().map(|o| o.failed + o.dropped).sum();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    Ok(correct)
}

fn spawn_clients<'s, 'e>(
    s: &'s std::thread::Scope<'s, 'e>,
    run: &'e Run,
    db: &'e Db,
    outs: Vec<ClientOut>,
    pace: Pace,
) -> Vec<std::thread::ScopedJoinHandle<'s, ClientOut>> {
    outs.into_iter()
        .enumerate()
        .map(|(t, out)| s.spawn(move || client_thread(t, run, &db.cluster, &db.layout, out, pace)))
        .collect()
}

fn join_clients(
    run: &Run,
    handles: Vec<std::thread::ScopedJoinHandle<'_, ClientOut>>,
) -> Vec<ClientOut> {
    run.stop_clients.store(true, Ordering::SeqCst);
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect()
}

/// The correctness checks; the first failure is returned.
fn check(db: &Db, run: &Run, outs: &[ClientOut], mig: &MigrationOut) -> Result<(), String> {
    if let Some(e) = &mig.error {
        return Err(e.clone());
    }
    let wrong: u64 = outs.iter().map(|o| o.wrong_reads).sum();
    if wrong > 0 {
        let first = outs.iter().find_map(|o| o.first_wrong.clone());
        return Err(format!(
            "{wrong} point reads returned a missing or foreign row (first: {first:?})"
        ));
    }
    let forced: u64 = mig.moves.iter().map(|m| m.report.forced_aborts).sum();
    let aborted: u64 = outs
        .iter()
        .map(|o| o.migration_aborts + o.failed_in_migration)
        .sum();
    if forced + aborted > 0 {
        let first = outs.iter().find_map(|o| o.first_error.clone());
        return Err(format!(
            "migration-induced aborts: {forced} forced by the engine, {aborted} seen by clients (first: {first:?})"
        ));
    }
    let planned = |shard| match (shard == MOVED_SHARD, mig.owner) {
        (true, Some(owner)) => owner,
        _ => initial_owner(shard),
    };
    db.check_owners(planned)?;
    let (after, expected) = acknowledged(run, outs);
    db.check_values(after, expected)
}

/// A causal token covering every commit, and each key's expected writer.
fn acknowledged<'a>(run: &Run, outs: &'a [ClientOut]) -> (Timestamp, impl Fn(u64) -> u64 + 'a) {
    let after = outs.iter().map(|o| o.max_cts).max().unwrap_or(Timestamp(0));
    let n = run.threads as u64;
    (after, move |k: u64| {
        outs[(k % n) as usize].expected[(k / n) as usize].1
    })
}

fn check_restarts(db: &Db, run: &Run, outs: &[ClientOut]) -> Result<(), String> {
    let (after, expected) = acknowledged(run, outs);
    db.check_restarts(after, expected)
}

fn report(
    args: &Args,
    run: &Run,
    outs: &[ClientOut],
    mig: &MigrationOut,
    snaps: &[BTreeMap<String, u64>; 4],
    setup_s: &[f64],
    nproc: usize,
) -> Result<Metrics, String> {
    let w = run.workload;
    let mut lag = Hist::default();
    let mut tracer = TxnTracer::default();
    for o in outs {
        lag.merge(&o.lag);
        tracer.merge(o.tracer.clone());
    }
    let normal = Latency::of(outs.iter().flat_map(|o| o.normal.iter().copied()).collect());
    let in_mig = Latency::of(
        outs.iter()
            .flat_map(|o| o.migration.iter().copied())
            .collect(),
    );
    let sum = |f: fn(&ClientOut) -> u64| -> u64 { outs.iter().map(f).sum() };
    let commits = sum(|o| o.commits[0] + o.commits[1]);
    let window_s = (run.w1 - run.w0) as f64 / 1e9;
    let moves: Vec<_> = mig.moves.iter().filter(|m| run.measured(m.start)).collect();
    let move_ms: Vec<f64> = moves
        .iter()
        .map(|m| (m.end - m.start) as f64 / 1e6)
        .collect();
    let attempted = sum(|o| o.attempted + o.dropped);
    let failed = sum(|o| o.failed + o.dropped);

    println!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} client_threads={} client_cpu={:?}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.threads,
        run.client_cpu
    );
    normal.log("outside migration");
    in_mig.log("inside migration");
    println!(
        "migrations: moves={} p50={:.2}ms samples={}",
        moves.len(),
        median(move_ms.clone()),
        move_ms.len()
    );
    if w.open_loop() {
        println!(
            "open loop: offered={} executed={} dropped={} lag_p99_us={:.1}",
            sum(|o| o.offered),
            sum(|o| o.executed),
            sum(|o| o.dropped),
            us(lag.quantile(0.99))
        );
    }
    if in_mig.samples == 0 || moves.is_empty() {
        return Err("no transaction arrived inside a migration".into());
    }

    let mut m = Metrics(Vec::new());
    if !run.trace {
        m.add("setup_s", median(setup_s.to_vec()), "s");
        m.add("txn_per_s", commits as f64 / window_s, "1/s");
        m.add("latency_p50_us", normal.block[0], "us");
        m.add("latency_p90_us", normal.block[1], "us");
        m.add("migration_latency_p50_us", in_mig.block[0], "us");
        m.add("migration_latency_p99_us", in_mig.block[2], "us");
        m.add("migration_p50_ms", median(move_ms), "ms");
        m.add(
            "committed_ratio",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        );
        m.add("rss_peak_mb", rss_peak_mb()?, "MiB");
        return Ok(m);
    }

    // Per-layer metrics of the traced run. Counter ratios are window
    // deltas; migration counters are deltas over the migrations' span.
    let [c0, c1, m0, m1] = snaps;
    let per_commit = |name: &str| ratio(delta(c0, c1, name) as f64, commits as f64);
    for call in Call::ALL {
        let stats = &tracer.calls[call as usize];
        let name = call.name();
        m.add(format!("{name}.calls"), stats.hist.count() as f64, "count");
        m.add(
            format!("{name}.busy_ms"),
            stats.hist.sum_ns() as f64 / 1e6,
            "ms",
        );
        m.add(
            format!("{name}.p50_ns"),
            stats.hist.quantile(0.5) as f64,
            "ns",
        );
        m.add(
            format!("{name}.p99_ns"),
            stats.hist.quantile(0.99) as f64,
            "ns",
        );
        m.add(format!("{name}.errors"), stats.errors as f64, "count");
    }
    m.add(
        "cluster.read.migration_p99_ns",
        tracer.migration_reads.quantile(0.99) as f64,
        "ns",
    );
    m.add(
        "clock.gts_rpcs_per_commit",
        per_commit("clock.gts_rpcs"),
        "ratio",
    );
    m.add(
        "storage.prepare_wait_blocks",
        delta(c0, c1, "storage.prepare_wait_blocks") as f64,
        "count",
    );
    m.add(
        "storage.gc_pruned",
        delta(c0, c1, "storage.gc_pruned") as f64,
        "count",
    );
    m.add(
        "txn.2pc_hops_per_commit",
        per_commit("txn.2pc_hops"),
        "ratio",
    );
    m.add(
        "txn.ww_aborts",
        delta(c0, c1, "txn.ww_aborts") as f64,
        "count",
    );
    m.add("wal.appends_per_commit", per_commit("wal.appends"), "ratio");
    m.add("wal.fsyncs_per_commit", per_commit("wal.fsyncs"), "ratio");
    m.add(
        "wal.appends_per_fsync",
        ratio(
            delta(c0, c1, "wal.appends") as f64,
            delta(c0, c1, "wal.fsyncs") as f64,
        ),
        "ratio",
    );

    let mut migrate = Hist::default();
    let mut migrate_self = Duration::ZERO;
    let mut phase: BTreeMap<&str, (Vec<f64>, Duration)> = BTreeMap::new();
    let (mut tuples, mut copy_time, mut replayed, mut conflicts) = (0, Duration::ZERO, 0, 0);
    let mut spans = tracer.spans;
    for (i, mv) in moves.iter().enumerate() {
        let total = Duration::from_nanos(mv.end - mv.start);
        migrate.record(mv.end - mv.start);
        let r = &mv.report;
        tuples += r.tuples_copied;
        copy_time += r.snapshot_phase;
        replayed += r.records_replayed;
        conflicts += r.validation_conflicts;
        let trace = r.traces.first().ok_or("migration recorded no trace")?;
        let selfs = migration_self(total, trace);
        migrate_self += selfs.migrate;
        for (name, dur, own) in selfs.phases {
            let e = phase.entry(name).or_default();
            e.0.push(ms(dur));
            e.1 += own;
        }
        spans.extend(migration_spans(i as u64, mv.start, mv.end, trace));
    }
    m.add("core.migrate.calls", migrate.count() as f64, "count");
    m.add("core.migrate.busy_ms", migrate.sum_ns() as f64 / 1e6, "ms");
    m.add("core.migrate.self_ms", ms(migrate_self), "ms");
    m.add("core.migrate.p50_ns", migrate.quantile(0.5) as f64, "ns");
    m.add("core.migrate.p99_ns", migrate.quantile(0.99) as f64, "ns");
    m.add(
        "core.migrate.errors",
        u64::from(mig.error.is_some()) as f64,
        "count",
    );
    for name in PHASES {
        let (durs, own) = phase.remove(name).unwrap_or_default();
        m.add(
            format!("core.{name}.p50_ms"),
            quantile(durs.clone(), 0.5),
            "ms",
        );
        m.add(format!("core.{name}.p90_ms"), quantile(durs, 0.9), "ms");
        m.add(format!("core.{name}.self_ms"), ms(own), "ms");
    }
    m.add(
        "core.copy_tuples_per_s",
        ratio(tuples as f64, copy_time.as_secs_f64()),
        "1/s",
    );
    m.add("core.records_replayed", replayed as f64, "count");
    m.add("core.validation_conflicts", conflicts as f64, "count");
    m.add("replay.jobs", delta(m0, m1, "replay.jobs") as f64, "count");
    m.add(
        "migration.copy_chunks",
        delta(m0, m1, "migration.copy_chunks") as f64,
        "count",
    );
    m.add("workload.lag_p99_us", us(lag.quantile(0.99)), "us");
    m.add("workload.offered", sum(|o| o.offered) as f64, "count");
    m.add("workload.dropped", sum(|o| o.dropped) as f64, "count");
    m.add("workload.self_ms", tracer.driver_self_ns as f64 / 1e6, "ms");
    let untraced = sum(|o| o.commits[0]);
    let traced = sum(|o| o.commits[1]);
    m.add(
        "trace.overhead_ratio",
        ratio(traced as f64, untraced as f64),
        "ratio",
    );

    let path = args.out.join(format!("trace-{}.jsonl", w.name()));
    trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(m)
}
