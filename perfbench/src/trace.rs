//! Per-layer timers and in-memory spans for the traced run.
//!
//! Every call the driver makes into the system is timed from outside:
//! `Session::begin`, `SessionTxn::{read, update, commit}` and
//! `MigrationEngine::migrate`. Each transaction gets a parent span with
//! one child per call. Each migration gets a `core.migrate` span whose
//! children are the engine's own root phases, copied from
//! `MigrationReport::traces`. A span's self time is its duration minus
//! the part of it that its children cover.

use std::io::Write;
use std::time::Duration;

use remus::migration::MigrationTrace;

use crate::hist::Hist;

/// Spans kept per client thread: enough for any analysis of one run
/// without letting a fast run's memory grow with its throughput. Timers
/// and self times still cover every traced transaction.
const KEPT_TXNS_PER_THREAD: usize = 10_000;

/// The six root phases of a Remus migration, in protocol order.
pub const PHASES: [&str; 6] = [
    "snapshot_copy",
    "catchup",
    "sync_barrier",
    "tm_2pc",
    "dual_execution",
    "cleanup",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Begin,
    Read,
    Update,
    Commit,
}

impl Call {
    pub const ALL: [Call; 4] = [Call::Begin, Call::Read, Call::Update, Call::Commit];

    pub fn name(self) -> &'static str {
        match self {
            Call::Begin => "cluster.begin",
            Call::Read => "cluster.read",
            Call::Update => "cluster.update",
            Call::Commit => "txn.commit",
        }
    }
}

/// Timings of one kind of call.
#[derive(Clone, Default)]
pub struct CallStats {
    pub hist: Hist,
    pub errors: u64,
}

impl CallStats {
    pub fn merge(&mut self, other: &CallStats) {
        self.hist.merge(&other.hist);
        self.errors += other.errors;
    }
}

#[derive(Clone, Debug)]
pub struct SpanRec {
    /// `txn-<thread>-<n>` or `mig-<n>`, shared by every span of one trace.
    pub trace: String,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One client thread's traced calls.
#[derive(Clone, Default)]
pub struct TxnTracer {
    pub calls: [CallStats; 4],
    /// Reads of transactions whose arrival fell inside a migration.
    pub migration_reads: Hist,
    /// Transaction span time not covered by any call: the driver itself.
    pub driver_self_ns: u64,
    pub spans: Vec<SpanRec>,
    pub traced_txns: u64,
}

/// The calls of one transaction, as `(call, start_ns, end_ns, ok)`.
pub type TxnCalls = Vec<(Call, u64, u64, bool)>;

impl TxnTracer {
    /// Files one finished transaction spanning `[start_ns, end_ns]`. Call
    /// timers and self time count `window` transactions only; migration
    /// reads also count those of the migration probe.
    pub fn record_txn(
        &mut self,
        thread: usize,
        start_ns: u64,
        end_ns: u64,
        calls: &TxnCalls,
        in_migration: bool,
        window: bool,
    ) {
        let mut covered = 0;
        for &(call, s, e, ok) in calls {
            if window {
                let stats = &mut self.calls[call as usize];
                stats.hist.record(e - s);
                stats.errors += u64::from(!ok);
            }
            if call == Call::Read && in_migration {
                self.migration_reads.record(e - s);
            }
            covered += e - s;
        }
        if window {
            self.driver_self_ns += (end_ns - start_ns).saturating_sub(covered);
        }
        if self.traced_txns < KEPT_TXNS_PER_THREAD as u64 {
            let trace = format!("txn-{thread}-{}", self.traced_txns);
            self.spans.push(SpanRec {
                trace: trace.clone(),
                id: 0,
                parent: None,
                name: "txn",
                start_ns,
                end_ns,
            });
            for (i, &(call, s, e, _)) in calls.iter().enumerate() {
                self.spans.push(SpanRec {
                    trace: trace.clone(),
                    id: i as u32 + 1,
                    parent: Some(0),
                    name: call.name(),
                    start_ns: s,
                    end_ns: e,
                });
            }
        }
        self.traced_txns += 1;
    }

    pub fn merge(&mut self, other: TxnTracer) {
        for (a, b) in self.calls.iter_mut().zip(&other.calls) {
            a.merge(b);
        }
        self.migration_reads.merge(&other.migration_reads);
        self.driver_self_ns += other.driver_self_ns;
        self.spans.extend(other.spans);
        self.traced_txns += other.traced_txns;
    }
}

/// Length of the union of `intervals`.
fn covered(mut intervals: Vec<(Duration, Duration)>) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self times of one migration: the `migrate` call minus its root phases,
/// and each root phase minus its own child spans.
pub struct MigrationSelf {
    pub migrate: Duration,
    pub phases: Vec<(&'static str, Duration, Duration)>,
}

pub fn migration_self(total: Duration, trace: &MigrationTrace) -> MigrationSelf {
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    let root_cover = covered(
        roots
            .iter()
            .map(|s| (s.start, s.start + s.duration()))
            .collect(),
    );
    let phases = roots
        .iter()
        .map(|r| {
            let kids = trace
                .children(r.id)
                .iter()
                .map(|c| (c.start, c.start + c.duration()))
                .collect();
            (
                r.name,
                r.duration(),
                r.duration().saturating_sub(covered(kids)),
            )
        })
        .collect();
    MigrationSelf {
        migrate: total.saturating_sub(root_cover),
        phases,
    }
}

/// Spans of migration `n`, whose `migrate` call ran over
/// `[start_ns, end_ns]`. Phase offsets are relative to the engine's own
/// epoch, which opens just after the call starts.
pub fn migration_spans(n: u64, start_ns: u64, end_ns: u64, trace: &MigrationTrace) -> Vec<SpanRec> {
    let id = format!("mig-{n}");
    let mut out = vec![SpanRec {
        trace: id.clone(),
        id: 0,
        parent: None,
        name: "core.migrate",
        start_ns,
        end_ns,
    }];
    for (i, s) in trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .enumerate()
    {
        out.push(SpanRec {
            trace: id.clone(),
            id: i as u32 + 1,
            parent: Some(0),
            name: s.name,
            start_ns: start_ns + s.start.as_nanos() as u64,
            end_ns: start_ns + (s.start + s.duration()).as_nanos() as u64,
        });
    }
    out
}

/// Writes `spans` as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"trace\":\"{}\",\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.id, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let ms = Duration::from_millis;
        assert_eq!(
            covered(vec![(ms(5), ms(8)), (ms(0), ms(2)), (ms(1), ms(3))]),
            ms(6)
        );
        assert_eq!(covered(Vec::new()), Duration::ZERO);
    }
}
