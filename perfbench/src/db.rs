//! Cluster set-up through the public API, and the correctness checks run
//! against it after the measured window.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use remus::clock::OracleKind;
use remus::cluster::{Cluster, ClusterBuilder, Session};
use remus::common::{HotPathConfig, NodeId, ShardId, SimConfig, TableId, Timestamp, WalConfig};
use remus::shard::TableLayout;
use remus::storage::Value;

pub const NODES: usize = 3;
pub const ROWS: u64 = 200_000;
pub const SHARDS: u32 = 24;
/// Keys read per transaction by the final-value check.
const CHECK_BATCH: u64 = 2_000;

/// Where shard `shard` is placed at set-up: round-robin over the nodes.
pub fn initial_owner(shard: ShardId) -> NodeId {
    NodeId((shard.0 % NODES as u64) as u32)
}

/// A row's value: its key, then the sequence number of the write that
/// produced it (0 for the loaded value). Every write is thus traceable to
/// the transaction that made it.
pub fn encode(key: u64, seq: u64) -> Value {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    Value::from(v)
}

pub fn decode(v: &[u8]) -> Option<(u64, u64)> {
    let key = u64::from_le_bytes(v.get(..8)?.try_into().ok()?);
    let seq = u64::from_le_bytes(v.get(8..16)?.try_into().ok()?);
    Some((key, seq))
}

pub struct Db {
    pub cluster: Arc<Cluster>,
    pub layout: TableLayout,
    maintenance: Option<JoinHandle<()>>,
    wal_dir: Option<PathBuf>,
}

impl Db {
    /// Builds the cluster from the library presets (`SimConfig::instant()`
    /// with `HotPathConfig::tuned()`, GTS oracle) and loads the table.
    /// With `wal_dir` the WAL is file-backed with the default group commit.
    pub fn build(wal_dir: Option<PathBuf>) -> Result<Db, String> {
        let mut config = SimConfig::instant();
        config.hot_path = HotPathConfig::tuned();
        if let Some(dir) = &wal_dir {
            let _ = std::fs::remove_dir_all(dir);
            config.wal = WalConfig::file(dir);
        }
        let cluster = ClusterBuilder::new(NODES)
            .oracle(OracleKind::Gts)
            .config(config)
            .build();
        let layout = cluster.create_table(TableId(1), 0, SHARDS, |i| {
            initial_owner(ShardId(u64::from(i)))
        });
        let db = Db {
            cluster,
            layout,
            maintenance: None,
            wal_dir,
        };
        db.load()?;
        Ok(db)
    }

    /// Starts the maintenance thread: chain GC at the preset's
    /// `gc_interval` and WAL truncation. The vacuum period keeps full
    /// sweeps out of the run.
    pub fn start_maintenance(&mut self) {
        self.maintenance = Some(self.cluster.start_maintenance(Duration::from_secs(3600)));
    }

    /// Loads every shard in one transaction on its owner node.
    fn load(&self) -> Result<(), String> {
        let mut by_shard: BTreeMap<ShardId, Vec<u64>> = BTreeMap::new();
        for k in 0..ROWS {
            by_shard
                .entry(self.layout.shard_for(k))
                .or_default()
                .push(k);
        }
        let sessions: Vec<Session> = (0..NODES)
            .map(|n| Session::connect(&self.cluster, NodeId(n as u32)))
            .collect();
        let mut loaded = Timestamp(0);
        for (shard, keys) in by_shard {
            let mut txn = sessions[initial_owner(shard).raw() as usize].begin();
            for k in keys {
                txn.insert(&self.layout, k, encode(k, 0))
                    .map_err(|e| format!("load insert {k}: {e:?}"))?;
            }
            let cts = txn.commit().map_err(|e| format!("load commit: {e:?}"))?;
            loaded = loaded.max(cts);
        }
        // With leased GTS timestamps a node's next snapshot may predate a
        // commit made on another node; this causal token makes every node's
        // snapshots include the whole load.
        for node in self.cluster.nodes() {
            self.cluster.oracle.observe(node.id(), loaded);
        }
        Ok(())
    }

    /// Stops the maintenance thread, drops the cluster and removes its WAL.
    pub fn close(self) {
        self.cluster.stop_maintenance();
        if let Some(h) = self.maintenance {
            h.join().expect("maintenance thread panicked");
        }
        drop(self.cluster);
        if let Some(dir) = self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Every row is present exactly once and holds the value of its
    /// highest-commit-ts committed writer. `expected(k)` is that writer's
    /// sequence number; `after` is a causal token covering every commit.
    pub fn check_values(
        &self,
        after: Timestamp,
        expected: impl Fn(u64) -> u64,
    ) -> Result<(), String> {
        let session = Session::connect(&self.cluster, NodeId(0));
        let mut start = 0;
        while start < ROWS {
            let mut txn = session.begin_after(after);
            for k in start..(start + CHECK_BATCH).min(ROWS) {
                let got = txn
                    .read(&self.layout, k)
                    .map_err(|e| format!("check read {k}: {e:?}"))?;
                let want = expected(k);
                match got.as_deref().and_then(decode) {
                    Some((key, seq)) if key == k && seq == want => {}
                    other => {
                        return Err(format!(
                            "key {k}: read {other:?}, want ({k}, {want}) from its last committed writer"
                        ))
                    }
                }
            }
            txn.commit().map_err(|e| format!("check commit: {e:?}"))?;
            start += CHECK_BATCH;
        }
        let mut txn = session.begin_after(after);
        let rows = txn
            .scan_table(&self.layout)
            .map_err(|e| format!("scan: {e:?}"))?;
        txn.commit().map_err(|e| format!("scan commit: {e:?}"))?;
        let mut keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        if before != keys.len() {
            return Err(format!("scan saw {} duplicated keys", before - keys.len()));
        }
        if keys.len() as u64 != ROWS || keys.last() != Some(&(ROWS - 1)) {
            return Err(format!("scan saw {} rows, want {ROWS}", keys.len()));
        }
        Ok(())
    }

    /// Every shard is owned by `planned(shard)` in every node's shard map,
    /// and only that node still holds a copy of its rows.
    pub fn check_owners(&self, planned: impl Fn(ShardId) -> NodeId) -> Result<(), String> {
        for shard in self.layout.shard_ids() {
            let want = planned(shard);
            for node in self.cluster.nodes() {
                let row = self
                    .cluster
                    .current_owner(node, shard)
                    .map_err(|e| format!("owner of {shard:?}: {e:?}"))?;
                if row.node != want {
                    return Err(format!(
                        "{shard:?}: node {:?} routes to {:?}, planned {want:?}",
                        node.id(),
                        row.node
                    ));
                }
                if node.storage.table(shard).is_some() != (node.id() == want) {
                    return Err(format!(
                        "{shard:?}: node {:?} holds a copy, planned owner {want:?}",
                        node.id()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Crash-restarts each node in turn, checking every acknowledged write
    /// after each restart.
    pub fn check_restarts(
        &self,
        after: Timestamp,
        expected: impl Fn(u64) -> u64,
    ) -> Result<(), String> {
        for n in 0..NODES {
            self.cluster
                .restart_node(NodeId(n as u32))
                .map_err(|e| format!("restart node {n}: {e:?}"))?;
            self.check_values(after, &expected)
                .map_err(|e| format!("after restarting node {n}: {e}"))?;
        }
        Ok(())
    }
}
