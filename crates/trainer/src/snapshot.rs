//! Overlapped checkpointing: snapshot-then-persist in the background.
//!
//! The related work the paper builds on (CheckFreq, Gemini) hides
//! checkpoint I/O behind training compute: the blocking cost drops to an
//! in-memory snapshot, and persistence runs on a background thread. UCP is
//! orthogonal to this optimization — the background writer emits the exact
//! same native distributed checkpoint — so the two compose: this module
//! provides the snapshot every save starts from and the background writer
//! behind overlapped saves ([`crate::SaveMode::Overlapped`]).
//!
//! At per-iteration cadence the snapshot clone itself becomes the fixed
//! cost, so snapshots are drawn from a bounded [`SnapshotPool`]: a small
//! set of reusable buffers recycled when a background writer finishes.
//! Filling a recycled buffer is a `clone_from` (a memcpy into existing
//! capacity, no allocation), and when every buffer is in flight the
//! training thread blocks in [`SnapshotPool::acquire`] — backpressure that
//! bounds snapshot memory instead of letting it grow with writer lag. The
//! wait, if any, lands on the `save/snapshot_pool_wait_us` metric.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ucp_core::checkpoint::{save_model_states, save_optim_states, CommonState, OptimShard};
use ucp_model::ParamStore;
use ucp_storage::layout as disk;

use crate::TrainError;

/// An owned, immutable copy of everything one rank persists at a step.
#[derive(Debug, Clone)]
pub struct CheckpointSnapshot {
    /// Common training state.
    pub common: CommonState,
    /// (tp, pp) coordinate of the slice.
    pub tp: usize,
    /// Pipeline coordinate.
    pub pp: usize,
    /// Model shards to write (only the zi=0 replica carries them).
    pub model: Option<ParamStore>,
    /// This rank's optimizer chunk.
    pub shard: OptimShard,
    /// `fsync` the files before reporting the save complete — telemetry
    /// then splits serialization (`storage/write`) from durability
    /// (`storage/fsync`).
    pub durable: bool,
    /// Parameter ranges touched since the previous snapshot (shard-flat
    /// coordinates; see [`crate::dirty`]). `None` means unknown — the save
    /// pipeline then exchanges every fragment. `Some(map)` lets writers
    /// send only dirty sub-fragments, and parameters absent from the map
    /// are clean everywhere, so their atoms can be hard-linked from the
    /// prior universal step instead of rewritten.
    pub dirty: Option<crate::dirty::DirtyMap>,
}

impl CheckpointSnapshot {
    /// The cluster rank that owns this snapshot (its writer thread is
    /// traced under this rank's pid).
    pub fn owner_rank(&self) -> usize {
        let p = &self.common.parallel;
        let zi = self.shard.dp;
        p.rank_of(ucp_parallel::RankCoord {
            dp: zi / p.sp,
            sp: zi % p.sp,
            tp: self.tp,
            pp: self.pp,
        })
    }

    /// Persist the snapshot under `base/global_step<iteration>`.
    pub fn persist(&self, base: &Path) -> Result<(), TrainError> {
        let _sp = ucp_telemetry::trace::span(ucp_telemetry::TraceCat::Checkpoint, "persist");
        let t = ucp_telemetry::enabled().then(std::time::Instant::now);
        let step_dir = disk::step_dir(base, self.common.iteration);
        if let Some(model) = &self.model {
            save_model_states(
                &step_dir,
                &self.common,
                self.tp,
                self.pp,
                model,
                self.durable,
            )
            .map_err(TrainError::Ucp)?;
        }
        save_optim_states(
            &step_dir,
            &self.common,
            self.tp,
            self.pp,
            &self.shard,
            self.durable,
        )
        .map_err(TrainError::Ucp)?;
        if let Some(t) = t {
            ucp_telemetry::global().record_span("save/persist", t.elapsed());
            ucp_telemetry::count("save/snapshots", 1);
        }
        Ok(())
    }
}

/// A bounded pool of reusable snapshot buffers.
///
/// Capacity is the maximum number of snapshots alive at once — in flight
/// on background writers plus the one being captured. Acquiring past
/// capacity blocks until a writer finishes and its buffer recycles.
pub struct SnapshotPool {
    capacity: usize,
    /// Free slots; `Some` carries a recycled snapshot whose buffers the
    /// next fill reuses, `None` is a never-used slot.
    free: Mutex<Vec<Option<CheckpointSnapshot>>>,
    bell: Condvar,
}

impl SnapshotPool {
    /// A pool of `capacity` buffers (clamped to at least 1).
    pub fn new(capacity: usize) -> Arc<SnapshotPool> {
        let capacity = capacity.max(1);
        Arc::new(SnapshotPool {
            capacity,
            free: Mutex::new((0..capacity).map(|_| None).collect()),
            bell: Condvar::new(),
        })
    }

    /// Check out a buffer, blocking while all are in flight. Every call
    /// records its wait (usually 0) on `save/snapshot_pool_wait_us`.
    pub fn acquire(self: &Arc<Self>) -> PooledSnapshot {
        let t = ucp_telemetry::enabled().then(std::time::Instant::now);
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        while free.is_empty() {
            free = self.bell.wait(free).unwrap_or_else(|e| e.into_inner());
        }
        let slot = free.pop().expect("free list non-empty");
        drop(free);
        if let Some(t) = t {
            ucp_telemetry::observe("save/snapshot_pool_wait_us", t.elapsed().as_micros() as u64);
        }
        PooledSnapshot {
            snap: slot,
            pool: Some(Arc::clone(self)),
        }
    }

    fn recycle(&self, snap: Option<CheckpointSnapshot>) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < self.capacity {
            free.push(snap);
        }
        self.bell.notify_one();
    }
}

/// A snapshot slot checked out of a [`SnapshotPool`]. Dropping it returns
/// the buffers to the pool for reuse — including on writer panic, since
/// the background thread owns it for the duration of the save. A plain
/// [`CheckpointSnapshot`] converts `Into<PooledSnapshot>` without a pool
/// attached (nothing recycles; drop just frees it).
pub struct PooledSnapshot {
    snap: Option<CheckpointSnapshot>,
    pool: Option<Arc<SnapshotPool>>,
}

impl PooledSnapshot {
    /// The snapshot held in this slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot has not been filled (freshly acquired slots are
    /// filled by [`crate::RankEngine::snapshot_pooled`]).
    pub fn get(&self) -> &CheckpointSnapshot {
        self.snap.as_ref().expect("pooled snapshot slot is filled")
    }

    /// The raw slot, for in-place filling that reuses a recycled
    /// snapshot's buffers.
    pub(crate) fn slot_mut(&mut self) -> &mut Option<CheckpointSnapshot> {
        &mut self.snap
    }
}

impl From<CheckpointSnapshot> for PooledSnapshot {
    fn from(snap: CheckpointSnapshot) -> PooledSnapshot {
        PooledSnapshot {
            snap: Some(snap),
            pool: None,
        }
    }
}

impl Drop for PooledSnapshot {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.recycle(self.snap.take());
        }
    }
}

/// Handle to an in-flight background persist.
pub struct PendingSave {
    /// The step being persisted.
    pub step: u64,
    handle: JoinHandle<Result<(), TrainError>>,
    /// Signalled by the writer the moment the native persist finishes —
    /// before any born-universal pipeline work — so the training thread
    /// can publish `latest` without waiting for atom assembly.
    persisted: std::sync::mpsc::Receiver<Result<(), String>>,
}

impl PendingSave {
    /// Spawn the background writer for a snapshot. The step is pinned
    /// against retention pruning before the thread starts and stays
    /// pinned until the writer finishes, so `prune` can never delete a
    /// directory that is still materializing.
    pub fn spawn(snapshot: impl Into<PooledSnapshot>, base: PathBuf) -> PendingSave {
        PendingSave::spawn_with(snapshot, base, None)
    }

    /// Like [`PendingSave::spawn`], but after the native persist succeeds
    /// the writer also runs its part of the born-universal save pipeline
    /// ([`crate::pipeline`]) — still on the same background thread, so
    /// atom assembly stays off the training critical path and its trace
    /// spans land on the owning rank's "saver" track. The snapshot's
    /// buffers (pooled or not) are released only when the writer finishes.
    pub fn spawn_with(
        snapshot: impl Into<PooledSnapshot>,
        base: PathBuf,
        pipeline: Option<crate::pipeline::WriterTask>,
    ) -> PendingSave {
        let pooled = snapshot.into();
        let step = pooled.get().common.iteration;
        let guard = ucp_storage::retention::begin_save(&base, step);
        let owner = pooled.get().owner_rank();
        let (persisted_tx, persisted) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            // The writer appears as a second thread on the owning rank's
            // trace timeline, making the overlap visible (no-op when
            // tracing is disabled).
            ucp_telemetry::trace::register_rank(owner, "saver");
            // The retention pin must not outlive the writer even when it
            // panics: catch the unwind, release the pin deterministically,
            // and surface the panic as an error. (If the writer dies with
            // a pipeline task in hand, dropping the task's endpoint is
            // what tells peer assemblers to abort instead of hanging; a
            // panic before the persist signal drops `persisted_tx`, which
            // unblocks `wait_persisted` the same way.)
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                test_panic_injection(&base);
                let snapshot = pooled.get();
                let persist_result = snapshot.persist(&base);
                let _ = persisted_tx.send(
                    persist_result
                        .as_ref()
                        .map(|_| ())
                        .map_err(|e| e.to_string()),
                );
                persist_result?;
                match pipeline {
                    Some(task) => crate::pipeline::run_writer(task, snapshot, &base),
                    None => Ok(()),
                }
            }));
            // Recycle the snapshot buffers only after the pipeline is done
            // with them (the unwind path recycles too — `pooled` is owned
            // by this thread either way).
            drop(pooled);
            drop(guard);
            match result {
                Ok(r) => r,
                Err(payload) => Err(TrainError::Config(format!(
                    "background checkpoint writer panicked: {}",
                    panic_message(payload.as_ref())
                ))),
            }
        });
        PendingSave {
            step,
            handle,
            persisted,
        }
    }

    /// Block until the writer's *native persist* is done (success or
    /// failure), leaving the writer running its pipeline work in the
    /// background. The caller may then publish the native `latest` marker
    /// — but must still [`PendingSave::wait`] later to collect the
    /// writer's final result.
    pub fn wait_persisted(&self) -> Result<(), TrainError> {
        match self.persisted.recv() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(msg)) => Err(TrainError::Config(msg)),
            // Sender dropped without a signal: the writer panicked before
            // finishing the persist. The detailed payload surfaces at
            // wait(); this call just reports the persist never completed.
            Err(_) => Err(TrainError::Config(
                "background checkpoint writer died before persisting".into(),
            )),
        }
    }

    /// Block until the writer finishes, surfacing its result.
    pub fn wait(self) -> Result<(), TrainError> {
        self.handle
            .join()
            .map_err(|_| TrainError::Config("background checkpoint writer panicked".into()))?
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Test-only kill switch: the next writer spawned under this base
/// directory panics before it touches disk, so the panic-safety of the
/// retention pin and of the run's writer join is testable. Scoped to one
/// base so concurrently running tests never trip each other's writers.
#[cfg(test)]
pub(crate) static PANIC_NEXT_PERSIST: Mutex<Option<PathBuf>> = Mutex::new(None);

#[cfg_attr(not(test), allow(unused_variables))]
fn test_panic_injection(base: &Path) {
    #[cfg(test)]
    {
        let mut armed = PANIC_NEXT_PERSIST.lock().unwrap_or_else(|e| e.into_inner());
        if armed.as_deref() == Some(base) {
            *armed = None;
            drop(armed);
            panic!("injected writer panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_model::ModelConfig;
    use ucp_parallel::{FlatLayout, ParallelConfig, ZeroStage};
    use ucp_tensor::{Shape, Tensor};

    fn snapshot(iteration: u64) -> CheckpointSnapshot {
        let layout = FlatLayout::build(&[("p".to_string(), Shape::new([6]))], 2, 1);
        let mut model = ParamStore::new();
        model.insert("p", Tensor::full([6], 1.5));
        CheckpointSnapshot {
            common: CommonState {
                iteration,
                seed: 1,
                data_cursor: 0,
                adam_step: iteration,
                model: ModelConfig::gpt3_tiny(),
                parallel: ParallelConfig::new(1, 1, 1, 1, ZeroStage::Zero1),
                params_to_average: vec![],
            },
            tp: 0,
            pp: 0,
            model: Some(model),
            shard: OptimShard {
                dp: 0,
                layout: layout.clone(),
                fp32: vec![0.5; layout.chunk],
                exp_avg: vec![0.0; layout.chunk],
                exp_avg_sq: vec![0.0; layout.chunk],
            },
            durable: false,
            dirty: None,
        }
    }

    #[test]
    fn pool_recycles_buffers_and_bounds_outstanding() {
        let pool = SnapshotPool::new(2);
        let mut a = pool.acquire();
        let _b = pool.acquire();
        // Fill slot `a`, release it, and check the next acquire gets the
        // recycled buffers back (same fp32 allocation).
        *a.slot_mut() = Some(snapshot(1));
        let ptr = a.get().shard.fp32.as_ptr();
        drop(a);
        let c = pool.acquire();
        assert_eq!(
            c.snap.as_ref().map(|s| s.shard.fp32.as_ptr()),
            Some(ptr),
            "recycled slot should carry the previous snapshot's buffers"
        );
    }

    #[test]
    fn pool_acquire_blocks_until_a_writer_recycles() {
        let pool = SnapshotPool::new(1);
        let held = pool.acquire();
        let (tx, rx) = std::sync::mpsc::channel();
        let p2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            let _got = p2.acquire();
            tx.send(()).unwrap();
        });
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(50))
                .is_err(),
            "acquire should block while the only buffer is out"
        );
        drop(held);
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("recycling must unblock the waiter");
        waiter.join().unwrap();
    }

    #[test]
    fn background_persist_writes_both_files() {
        let base = std::env::temp_dir().join("ucp_snapshot_test");
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();
        let pending = PendingSave::spawn(snapshot(7), base.clone());
        assert_eq!(pending.step, 7);
        pending.wait().unwrap();
        let step_dir = disk::step_dir(&base, 7);
        assert!(disk::model_states_path(&step_dir, 0, 0).is_file());
        assert!(disk::optim_states_path(&step_dir, 0, 0, 0).is_file());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn durable_persist_writes_identical_files() {
        let base = std::env::temp_dir().join("ucp_snapshot_durable_test");
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();
        let mut snap = snapshot(3);
        snap.durable = true;
        snap.persist(&base).unwrap();
        let step_dir = disk::step_dir(&base, 3);
        let durable_bytes = std::fs::read(disk::optim_states_path(&step_dir, 0, 0, 0)).unwrap();
        let mut plain = snapshot(3);
        plain.common.iteration = 4;
        plain.persist(&base).unwrap();
        let plain_bytes =
            std::fs::read(disk::optim_states_path(&disk::step_dir(&base, 4), 0, 0, 0)).unwrap();
        // fsync changes durability, never content; only the header's
        // iteration differs between the two writes.
        assert_eq!(durable_bytes.len(), plain_bytes.len());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn writer_error_surfaces_at_wait() {
        // An unwritable base propagates the I/O error to wait().
        let base = PathBuf::from("/proc/definitely/not/writable");
        let pending = PendingSave::spawn(snapshot(1), base);
        assert!(pending.wait().is_err());
    }

    #[test]
    fn writer_panic_releases_retention_pin() {
        use ucp_storage::retention::{prune, RetentionPolicy};
        let base = std::env::temp_dir().join("ucp_snapshot_panic_pin_test");
        std::fs::remove_dir_all(&base).ok();
        // Two committed steps on disk; the marker pins step 9.
        for s in [8u64, 9] {
            let dir = disk::step_dir(&base, s);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("payload"), [0u8; 10]).unwrap();
        }
        disk::write_latest(&base, 9).unwrap();
        // The writer panics before touching disk. Its step stays pinned
        // only while the writer lives — the panic must release the pin,
        // not leak it for the rest of the run.
        *PANIC_NEXT_PERSIST.lock().unwrap() = Some(base.clone());
        let pending = PendingSave::spawn(snapshot(8), base.clone());
        let err = pending.wait().unwrap_err();
        assert!(
            err.to_string().contains("panicked: injected writer panic"),
            "panic payload should surface: {err}"
        );
        // If the pin leaked, step 8 would survive this prune.
        let report = prune(&base, &RetentionPolicy::last(1)).unwrap();
        assert_eq!(report.removed, vec![8], "panicked writer leaked its pin");
        std::fs::remove_dir_all(&base).ok();
    }
}
