//! Run drivers: complete train → checkpoint → reconfigure → resume flows.
//!
//! Every run goes through one segment runner, `run_segment`: one
//! cluster fan-out, one resume dispatch, one iterate loop and one save
//! step. A save takes a snapshot of the rank's state and hands it to the
//! sinks the run's [`SaveMode`] selects — a blocking persist +
//! publish on the training thread, or an overlapped background writer
//! (optionally born-universal) — plus the hot tier when a supervisor has
//! armed one. [`train_run`] runs one bare segment; [`crate::supervise`]
//! runs segments with its fault hook and hot tier and recovers between
//! them. These are the entry points used by the figure harness,
//! integration tests, and examples.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ucp_collectives::{Cluster, ClusterOptions, Comm, RankFailure};
use ucp_core::convert::{convert_to_universal, ConvertOptions, ConvertStats};
use ucp_core::load::{LoadOptions, LoadSession};
use ucp_core::manifest::UcpManifest;
use ucp_storage::JournalEvent;
use ucp_telemetry::trace::{self, TraceCat};

use crate::engine::{RankEngine, SaveMode, TrainConfig, UniversalSource};
use crate::hot::HotTier;
use crate::pipeline::{SavePipelines, SNAPSHOT_POOL_CAPACITY};
use crate::snapshot::{CheckpointSnapshot, PendingSave, SnapshotPool};
use crate::TrainError;

/// How a run obtains its initial state.
#[derive(Debug, Clone)]
pub enum ResumeMode {
    /// Fresh initialization from the run seed.
    Fresh,
    /// Resume a native distributed checkpoint (same strategy only).
    Native {
        /// Checkpoint base directory.
        dir: PathBuf,
        /// Step to resume from.
        step: u64,
    },
    /// Resume a universal checkpoint (any strategy).
    Universal {
        /// Checkpoint base directory.
        dir: PathBuf,
        /// Step to resume from.
        step: u64,
    },
    /// Resume from a peer-assembled in-memory universal checkpoint — the
    /// hot tier's recovery path (constructed by the supervisor, never by
    /// CLI parsing). Serves the same atoms as `Universal` for the same
    /// step, without touching disk.
    Hot {
        /// The consolidated checkpoint, shared across rank threads.
        checkpoint: std::sync::Arc<ucp_core::MemoryCheckpoint>,
    },
}

/// A complete run description.
#[derive(Debug, Clone)]
pub struct TrainPlan {
    /// Run configuration.
    pub config: TrainConfig,
    /// Iterations to run (resume runs continue from the checkpoint's
    /// iteration up to `until_iteration`).
    pub until_iteration: u64,
    /// Initial-state source.
    pub resume: ResumeMode,
    /// Save a native distributed checkpoint every N iterations (`None`
    /// disables periodic saving).
    pub checkpoint_every: Option<u64>,
    /// Checkpoint base directory (required if `checkpoint_every` is set).
    pub checkpoint_dir: Option<PathBuf>,
}

impl TrainPlan {
    /// A plain run with no checkpointing.
    pub fn simple(config: TrainConfig, iterations: u64) -> TrainPlan {
        TrainPlan {
            config,
            until_iteration: iterations,
            resume: ResumeMode::Fresh,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Mean LM loss per iteration, indexed by absolute iteration number
    /// (the first entry is `(start_iteration, loss)`).
    pub losses: Vec<(u64, f64)>,
    /// Iteration the run started at (0 for fresh runs).
    pub start_iteration: u64,
    /// Wall-clock seconds spent saving checkpoints (across the run, max
    /// over ranks).
    pub save_secs: f64,
    /// Wall-clock seconds spent loading/initializing state (max over
    /// ranks).
    pub load_secs: f64,
    /// Per-iteration observability records (rank 0's view).
    pub metrics: Vec<crate::engine::IterStats>,
}

/// Execute a training plan on an in-process cluster, saving the way
/// `plan.config.saves` asks. Returns the per-rank agreed result (losses
/// are identical on every rank; rank 0's copy is returned).
///
/// # Panics
///
/// Panics if a rank thread panics, like a fatal NCCL abort taking down
/// the job; [`crate::supervise`] recovers from rank failures instead.
pub fn train_run(plan: &TrainPlan) -> Result<RunResult, TrainError> {
    run_segment(plan, None).map_err(|e| match e {
        SegmentError::Hard(e) => e,
        SegmentError::Failure(failure) => panic!("{failure}"),
    })
}

/// [`train_run`] with born-universal overlapped saves
/// (`SaveMode::Overlapped { universal: true }`), whatever the plan's
/// config asks for. At each checkpoint boundary the rank takes an
/// in-memory snapshot — the only blocking cost — and a background thread
/// writes the files while training continues, assembling the step's
/// universal atom checkpoints as it goes ([`crate::pipeline`]). The
/// `latest` and `latest_universal` markers for a step are published as
/// soon as that step's writers have drained (at the next checkpoint
/// boundary, or at run end), so a crash mid-run resumes from the newest
/// completed save — under *any* target strategy, with no convert pass.
/// The native on-disk checkpoints are byte-identical to blocking saves.
pub fn train_run_overlapped(plan: &TrainPlan) -> Result<RunResult, TrainError> {
    let mut plan = plan.clone();
    plan.config.saves = SaveMode::Overlapped { universal: true };
    train_run(&plan)
}

/// What a supervisor threads through [`run_segment`]. Unsupervised runs
/// pass none.
pub(crate) struct SegmentHooks<'h> {
    /// Watchdog deadline of the cluster run; also bounds hot-tier
    /// exchanges.
    pub deadline: Duration,
    /// Called on every rank at every step boundary, before the iteration
    /// runs (fault injection).
    pub at_step: &'h (dyn Fn(&Comm, u64) + Sync),
    /// The armed hot tier: every save replicates into it.
    pub hot: Option<&'h HotTier>,
}

/// Why a segment ended before completing its plan.
pub(crate) enum SegmentError {
    /// A rank died; recoverable.
    Failure(RankFailure),
    /// A non-failure error (bad config, unreadable checkpoint, ...).
    Hard(TrainError),
}

/// Run `plan` as one cluster segment: resume, iterate up to
/// `until_iteration`, and save every `checkpoint_every` iterations. The
/// training math is the same with or without `hooks` — they only sleep,
/// panic or replicate — so supervised segments stay bitwise-comparable to
/// unsupervised runs.
pub(crate) fn run_segment(
    plan: &TrainPlan,
    hooks: Option<&SegmentHooks>,
) -> Result<RunResult, SegmentError> {
    plan.config
        .validate()
        .map_err(|e| SegmentError::Hard(TrainError::Config(e)))?;
    let world = plan.config.parallel.world_size();
    // One load session for the whole fan-out: ranks needing the same atom
    // ranges (all DP replicas of a (tp, pp) slice) share the cached bytes
    // instead of each re-reading them.
    let session = open_resume_session(&plan.resume).map_err(SegmentError::Hard)?;
    let hot = hooks.and_then(|h| h.hot);
    if let Some(tier) = hot {
        // Fresh mesh + empty replica banks for the new topology: epochs
        // restart per segment, and stale replicas from a previous shape
        // cannot masquerade as current ones.
        tier.begin_segment(world);
    }
    // One persistent exchange mesh for the born-universal pipeline, wired
    // before the fan-out so every rank's background writer leases the same
    // fabric. Each save step claims an epoch-tagged lease instead of
    // paying for a fresh O(world²) mesh — the fixed cost that dominates at
    // per-iteration cadence.
    let pipelines = (plan.config.saves == SaveMode::Overlapped { universal: true })
        .then(|| SavePipelines::new(world));
    // Fleet metric mesh: per-rank recorders gathered to rank 0 at run end
    // (only when telemetry is on — the mesh itself is cheap, but skipping
    // it keeps the disabled path allocation-free).
    let fleet = ucp_telemetry::enabled().then(|| crate::fleet::FleetMesh::new(world));
    let orphans = Mutex::new(Vec::new());
    let cluster_opts = hooks.map_or_else(ClusterOptions::default, |h| ClusterOptions {
        deadline: h.deadline,
    });
    let results =
        Cluster::try_run_with(world, &cluster_opts, |comm| -> Result<RunResult, String> {
            let _segment = hooks.map(|_| trace::span(TraceCat::Recovery, "segment"));
            let t_load = Instant::now();
            let rank = comm.rank();
            let config = plan.config.clone();
            let mut engine = match &plan.resume {
                ResumeMode::Fresh => RankEngine::fresh(config, comm),
                ResumeMode::Native { dir, step } => {
                    RankEngine::resume_native(config, comm, dir, *step)
                }
                ResumeMode::Universal { .. } => RankEngine::resume_universal_session(
                    config,
                    comm,
                    session.as_ref().expect("session opened for Universal"),
                ),
                ResumeMode::Hot { checkpoint } => RankEngine::resume_universal_source(
                    config,
                    comm,
                    &UniversalSource::Memory(checkpoint.as_ref()),
                ),
            }
            .map_err(|e| e.to_string())?;
            let load_secs = t_load.elapsed().as_secs_f64();

            let start_iteration = engine.iteration;
            let local = fleet.as_ref().map(|_| ucp_telemetry::Recorder::new());
            let mut saver = match (plan.checkpoint_every, &plan.checkpoint_dir) {
                (Some(every), Some(dir)) => Some(Saver {
                    dir,
                    every,
                    mode: plan.config.saves,
                    rank,
                    // Overlapped snapshots come from a bounded pool of
                    // reusable buffers sized to the writers the tail bound
                    // allows in flight: capturing one is a memcpy into
                    // recycled capacity, and a lagging pipeline blocks the
                    // next capture instead of growing memory without bound.
                    pool: SnapshotPool::new(SNAPSHOT_POOL_CAPACITY),
                    pipelines: pipelines.as_ref(),
                    hot: hot.map(|tier| (tier, cluster_opts.deadline)),
                    pending: None,
                    tail: Vec::new(),
                    orphans: &orphans,
                }),
                _ => None,
            };
            let mut losses = Vec::new();
            let mut metrics = Vec::new();
            let mut save_secs = 0.0f64;
            while engine.iteration < plan.until_iteration {
                let it = engine.iteration;
                if let Some(h) = hooks {
                    comm.set_step(it);
                    (h.at_step)(comm, it);
                }
                let t_it = local.as_ref().map(|_| Instant::now());
                let loss = engine.train_iteration().map_err(|e| e.to_string())?;
                if let (Some(loc), Some(t)) = (&local, t_it) {
                    loc.count("rank/iterations", 1);
                    loc.observe("rank/step_us", t.elapsed().as_micros() as u64);
                }
                losses.push((it + 1, loss));
                metrics.extend(engine.last_stats);
                if let Some(saver) = saver.as_mut().filter(|s| engine.iteration % s.every == 0) {
                    let blocked = saver.save(&mut engine)?;
                    save_secs += blocked.as_secs_f64();
                    if let Some(loc) = &local {
                        loc.observe("rank/save_block_us", blocked.as_micros() as u64);
                    }
                }
            }
            if let Some(saver) = saver {
                saver.finish(&engine)?;
            }
            if let (Some(mesh), Some(loc)) = (fleet.as_ref(), local.as_ref()) {
                crate::fleet::gather(mesh, rank, loc);
            }
            Ok(RunResult {
                losses,
                start_iteration,
                save_secs,
                load_secs,
                metrics,
            })
        });
    // Join the writers ranks left in flight when they exited early, so no
    // writer outlives the run. Only now: dropping the pipelines is what
    // releases rank 0's writer from waiting on a native publish that will
    // never come (joining inside the rank closure would stall for the
    // pipeline's exchange deadline).
    drop(pipelines);
    for writer in orphans.into_inner().unwrap_or_else(|e| e.into_inner()) {
        // The run already failed; its root cause is what gets reported.
        let _ = writer.wait();
    }
    match results {
        Ok(per_rank) => collect_results(per_rank).map_err(SegmentError::Hard),
        Err(failure) => Err(SegmentError::Failure(failure)),
    }
}

/// One rank's save step, and the overlapped writers it has in flight.
struct Saver<'r> {
    dir: &'r Path,
    every: u64,
    mode: SaveMode,
    rank: usize,
    pool: Arc<SnapshotPool>,
    pipelines: Option<&'r SavePipelines>,
    /// The armed hot tier and its exchange deadline.
    hot: Option<(&'r HotTier, Duration)>,
    /// The newest overlapped writer, not yet drained.
    pending: Option<PendingSave>,
    /// Drained writers still assembling universal atoms; joined (and
    /// their errors surfaced) at run end. Bounded so a pipeline that
    /// can't keep up with the save cadence applies backpressure instead
    /// of accumulating snapshots.
    tail: Vec<PendingSave>,
    /// Where writers still in flight go when the rank exits early (error
    /// or panic), for the runner to join once the cluster is down.
    orphans: &'r Mutex<Vec<PendingSave>>,
}

impl Saver<'_> {
    /// Save the step the engine just completed: snapshot first, then the
    /// sinks. Returns how long training was blocked.
    fn save(&mut self, engine: &mut RankEngine) -> Result<Duration, String> {
        let t0 = Instant::now();
        let step = engine.iteration;
        if self.rank == 0 {
            journal(self.dir, &JournalEvent::SaveStarted { step })?;
        }
        if self.mode == SaveMode::Blocking {
            // Nothing overlaps a blocking save, so its snapshot borrows the
            // engine's buffers instead of copying them (a copy measurably
            // raised peak RSS).
            let snapshot = engine.lend_snapshot();
            snapshot.persist(self.dir).map_err(|e| e.to_string())?;
            // The publish barriers: when it returns, every rank's files
            // and the `latest` marker are durable.
            engine
                .publish_markers(self.dir, step, false)
                .map_err(|e| e.to_string())?;
            if self.rank == 0 {
                journal(self.dir, &JournalEvent::NativePersisted { step })?;
            }
            self.replicate(&snapshot)?;
            engine.restore(snapshot);
            return Ok(t0.elapsed());
        }
        // Overlapped: only the drain of the previous writer's persist, the
        // snapshot and the hot-tier wave block training.
        if let Some(prev) = self.pending.take() {
            self.tail.push(prev);
            self.drain(engine)?;
        }
        while self.tail.len() > 2 {
            self.tail.remove(0).wait().map_err(|e| e.to_string())?;
        }
        let t_snap = ucp_telemetry::enabled().then(Instant::now);
        let snapshot = engine.snapshot_pooled(&self.pool);
        if let Some(t) = t_snap {
            ucp_telemetry::global().record_span("save/snapshot", t.elapsed());
        }
        self.replicate(snapshot.get())?;
        let blocked = t0.elapsed();
        let task = self.pipelines.and_then(|p| p.take(step, self.rank));
        self.pending = Some(PendingSave::spawn_with(
            snapshot,
            self.dir.to_path_buf(),
            task,
        ));
        Ok(blocked)
    }

    /// Drain the newest tail writer only as far as its native persist and
    /// commit the native `latest` marker. The writer keeps assembling
    /// universal atoms in the background and publishes `latest_universal`
    /// itself once rank 0's training thread reports the native marker
    /// durable — atom assembly never blocks training.
    fn drain(&self, engine: &RankEngine) -> Result<(), String> {
        let prev = self.tail.last().expect("the drained writer is in the tail");
        let step = prev.step;
        let t_drain = ucp_telemetry::enabled().then(Instant::now);
        {
            let _drain = trace::span(TraceCat::Checkpoint, "drain");
            prev.wait_persisted().map_err(|e| e.to_string())?;
        }
        if let Some(t) = t_drain {
            ucp_telemetry::global().record_span("save/drain", t.elapsed());
        }
        // The drained step's native files are complete on every rank:
        // publish `latest` now, so a crash later in the run loses one
        // interval, not the whole run.
        engine
            .publish_markers(self.dir, step, false)
            .map_err(|e| e.to_string())?;
        // Native marker durable (the publish barrier guarantees it on
        // every rank): clear the step's writer to publish the universal
        // marker whenever its manifest lands.
        if self.rank == 0 {
            journal(self.dir, &JournalEvent::NativePersisted { step })?;
            if let Some(p) = self.pipelines {
                p.notify_native_published(step);
            }
        }
        Ok(())
    }

    /// Replicate the step's snapshot into `K` peer banks when the hot tier
    /// is armed. All ranks save at the same boundary, so the wave
    /// completes before any fault can fire. A push failure degrades to
    /// disk-only recovery for this generation — it never fails the run.
    fn replicate(&self, snapshot: &CheckpointSnapshot) -> Result<(), String> {
        let Some((tier, deadline)) = self.hot else {
            return Ok(());
        };
        let step = snapshot.common.iteration;
        match tier.replicate(self.rank, snapshot, deadline) {
            Ok(bytes) if self.rank == 0 => journal(
                self.dir,
                &JournalEvent::HotReplicated {
                    step,
                    ranks: snapshot.common.parallel.world_size() as u64,
                    bytes,
                },
            ),
            Ok(_) => Ok(()),
            Err(e) => {
                ucp_telemetry::count("hot/replica_errors", 1);
                eprintln!(
                    "hot tier: rank {} replication at step {step} failed ({e}); this \
                     generation recovers from disk",
                    self.rank
                );
                Ok(())
            }
        }
    }

    /// Run end: drain the last overlapped writer and join every
    /// outstanding one.
    fn finish(mut self, engine: &RankEngine) -> Result<(), String> {
        if self.mode == SaveMode::Blocking {
            return Ok(());
        }
        if let Some(prev) = self.pending.take() {
            self.tail.push(prev);
            self.drain(engine)?;
        }
        // This is shutdown latency, not a training stall (there is no more
        // training to overlap with), so it lands on its own span.
        let t_final = ucp_telemetry::enabled().then(Instant::now);
        {
            let _sp = trace::span(TraceCat::Checkpoint, "final_drain");
            while !self.tail.is_empty() {
                self.tail.remove(0).wait().map_err(|e| e.to_string())?;
            }
        }
        if let Some(t) = t_final {
            ucp_telemetry::global().record_span("save/final_drain", t.elapsed());
        }
        Ok(())
    }
}

impl Drop for Saver<'_> {
    fn drop(&mut self) {
        let mut orphans = self.orphans.lock().unwrap_or_else(|e| e.into_inner());
        orphans.extend(self.pending.take());
        orphans.append(&mut self.tail);
    }
}

/// Append a run-journal event under `dir`, mapping the error into the
/// cluster closure's `String` error space.
fn journal(dir: &Path, event: &JournalEvent) -> Result<(), String> {
    ucp_storage::journal::append(dir, event).map_err(|e| e.to_string())
}

/// Open the shared [`LoadSession`] a universal resume needs (`None` for
/// the other modes). Opening it before the cluster fan-out is what lets
/// every rank load through one atom cache.
fn open_resume_session(resume: &ResumeMode) -> Result<Option<LoadSession>, TrainError> {
    match resume {
        ResumeMode::Universal { dir, step } => Ok(Some(
            LoadSession::open(dir, *step, LoadOptions::default()).map_err(TrainError::Ucp)?,
        )),
        _ => Ok(None),
    }
}

/// Merge per-rank results, surfacing the most informative error.
fn collect_results(
    results: Vec<std::result::Result<RunResult, String>>,
) -> Result<RunResult, TrainError> {
    let mut out: Option<RunResult> = None;
    let mut errors: Vec<(usize, String)> = Vec::new();
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok(res) => {
                if let Some(first) = &mut out {
                    first.save_secs = first.save_secs.max(res.save_secs);
                    first.load_secs = first.load_secs.max(res.load_secs);
                } else {
                    out = Some(res);
                }
            }
            Err(msg) => errors.push((rank, msg)),
        }
    }
    if !errors.is_empty() {
        // When one rank fails, its peers observe secondary peer-failure
        // errors (disconnects, dead marks, watchdog timeouts); surface the
        // root cause, not the symptom.
        let secondary =
            |m: &str| m.contains("disconnected") || m.contains("is dead") || m.contains("watchdog");
        let (rank, msg) = errors
            .iter()
            .find(|(_, m)| !secondary(m))
            .unwrap_or(&errors[0]);
        return Err(TrainError::Config(format!("rank {rank}: {msg}")));
    }
    Ok(out.expect("world_size >= 1"))
}

/// Convert a native checkpoint under `dir` at `step` into a universal
/// checkpoint (the lazy, on-demand conversion of §3.1).
pub fn convert_checkpoint(
    dir: &Path,
    step: u64,
    opts: &ConvertOptions,
) -> Result<(UcpManifest, ConvertStats), TrainError> {
    convert_to_universal(dir, step, opts).map_err(TrainError::Ucp)
}

/// Train under `source`, checkpoint at `ckpt_step`, convert to UCP, and
/// resume under `target` up to `until`: the paper's single-source →
/// single-target experiment unit. Returns `(source run, target run)`.
#[allow(clippy::too_many_arguments)]
pub fn resume_run(
    source: TrainConfig,
    target: TrainConfig,
    dir: &Path,
    ckpt_step: u64,
    until: u64,
) -> Result<(RunResult, RunResult), TrainError> {
    let src_plan = TrainPlan {
        config: source,
        until_iteration: ckpt_step,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(ckpt_step),
        checkpoint_dir: Some(dir.to_path_buf()),
    };
    let src_result = train_run(&src_plan)?;
    convert_checkpoint(dir, ckpt_step, &ConvertOptions::default())?;
    let tgt_plan = TrainPlan {
        config: target,
        until_iteration: until,
        resume: ResumeMode::Universal {
            dir: dir.to_path_buf(),
            step: ckpt_step,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    };
    let tgt_result = train_run(&tgt_plan)?;
    Ok((src_result, tgt_result))
}

/// One phase of an elastic schedule: a parallelism strategy held until a
/// target iteration.
#[derive(Debug, Clone)]
pub struct ElasticPhase {
    /// Strategy for this phase (rank count may differ per phase).
    pub parallel: ucp_parallel::ParallelConfig,
    /// Train until this absolute iteration, then checkpoint and hand over.
    pub until_iteration: u64,
}

/// Run an elastic schedule: train each phase under its strategy,
/// checkpointing at the phase boundary and converting to a universal
/// checkpoint so the next phase can resume under a different strategy —
/// the paper's failure-resilience / elastic-capacity scenario as a single
/// driver call. Returns the per-phase results.
pub fn run_elastic(
    base: TrainConfig,
    phases: &[ElasticPhase],
    dir: &Path,
) -> Result<Vec<RunResult>, TrainError> {
    if phases.is_empty() {
        return Ok(Vec::new());
    }
    let mut results = Vec::with_capacity(phases.len());
    let mut prev_boundary: Option<u64> = None;
    for phase in phases {
        let mut config = base.clone();
        config.parallel = phase.parallel;
        let resume = match prev_boundary {
            None => ResumeMode::Fresh,
            Some(step) => {
                convert_checkpoint(dir, step, &ConvertOptions::default())?;
                ResumeMode::Universal {
                    dir: dir.to_path_buf(),
                    step,
                }
            }
        };
        let result = train_run(&TrainPlan {
            config,
            until_iteration: phase.until_iteration,
            resume,
            checkpoint_every: Some(phase.until_iteration),
            checkpoint_dir: Some(dir.to_path_buf()),
        })?;
        prev_boundary = Some(phase.until_iteration);
        results.push(result);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_model::ModelConfig;
    use ucp_parallel::{ParallelConfig, ZeroStage};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ucp_driver_test_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fresh_single_rank_loss_decreases() {
        let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 42);
        let result = train_run(&TrainPlan::simple(cfg, 10)).unwrap();
        assert_eq!(result.losses.len(), 10);
        let first = result.losses[0].1;
        let last = result.losses.last().unwrap().1;
        assert!(
            last < first,
            "loss should decrease over 10 iterations: {first} → {last}"
        );
    }

    #[test]
    fn dp2_matches_single_rank_losses() {
        let single = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 7);
        let dp2 = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            7,
        );
        let a = train_run(&TrainPlan::simple(single, 5)).unwrap();
        let b = train_run(&TrainPlan::simple(dp2, 5)).unwrap();
        for ((ia, la), (ib, lb)) in a.losses.iter().zip(&b.losses) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < 5e-3,
                "iteration {ia}: DP1 {la} vs DP2 {lb}"
            );
        }
    }

    #[test]
    fn native_resume_same_strategy_continues_exactly() {
        let dir = tmp("native_resume");
        let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 3);
        // Uninterrupted baseline.
        let full = train_run(&TrainPlan::simple(cfg.clone(), 8)).unwrap();
        // Interrupted at 4, resumed natively.
        let part1 = train_run(&TrainPlan {
            config: cfg.clone(),
            until_iteration: 4,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(4),
            checkpoint_dir: Some(dir.clone()),
        })
        .unwrap();
        let part2 = train_run(&TrainPlan {
            config: cfg,
            until_iteration: 8,
            resume: ResumeMode::Native {
                dir: dir.clone(),
                step: 4,
            },
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap();
        assert_eq!(part2.start_iteration, 4);
        let stitched: Vec<(u64, f64)> = part1.losses.iter().chain(&part2.losses).cloned().collect();
        for ((ia, la), (ib, lb)) in full.losses.iter().zip(&stitched) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < 1e-9,
                "iteration {ia}: uninterrupted {la} vs resumed {lb}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn native_resume_rejects_strategy_change() {
        let dir = tmp("native_reject");
        let src = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 5);
        train_run(&TrainPlan {
            config: src,
            until_iteration: 2,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(2),
            checkpoint_dir: Some(dir.clone()),
        })
        .unwrap();
        let target = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            5,
        );
        let err = train_run(&TrainPlan {
            config: target,
            until_iteration: 4,
            resume: ResumeMode::Native {
                dir: dir.clone(),
                step: 2,
            },
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("convert it to a universal checkpoint"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn universal_resume_across_strategies_continues_loss_curve() {
        let dir = tmp("universal_resume");
        let src = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
            11,
        );
        let tgt = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            11,
        );
        // Uninterrupted source baseline for comparison.
        let baseline = train_run(&TrainPlan::simple(src.clone(), 8)).unwrap();
        let (src_run, tgt_run) = resume_run(src, tgt, &dir, 4, 8).unwrap();
        assert_eq!(src_run.losses.len(), 4);
        assert_eq!(tgt_run.start_iteration, 4);
        // The resumed curve must continue the baseline.
        for ((ia, la), (ib, lb)) in baseline.losses[4..].iter().zip(&tgt_run.losses) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < 5e-3,
                "iteration {ia}: baseline {la} vs UCP-resumed {lb}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn elastic_schedule_crosses_three_strategies() {
        let dir = tmp("elastic");
        let base = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 13);
        let phases = [
            ElasticPhase {
                parallel: ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero1),
                until_iteration: 3,
            },
            ElasticPhase {
                parallel: ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero2),
                until_iteration: 6,
            },
            ElasticPhase {
                parallel: ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
                until_iteration: 9,
            },
        ];
        let results = run_elastic(base.clone(), &phases, &dir).unwrap();
        assert_eq!(results.len(), 3);
        // The stitched curve equals one uninterrupted run.
        let mut baseline_cfg = base;
        baseline_cfg.parallel = ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero1);
        let baseline = train_run(&TrainPlan::simple(baseline_cfg, 9)).unwrap();
        let stitched: Vec<(u64, f64)> = results.iter().flat_map(|r| r.losses.clone()).collect();
        assert_eq!(stitched.len(), baseline.losses.len());
        for ((ia, la), (ib, lb)) in baseline.losses.iter().zip(&stitched) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < 2e-3,
                "elastic run diverges at iteration {ia}: {la} vs {lb}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_overlapped_run_joins_its_writers() {
        use ucp_storage::retention::{prune, RetentionPolicy};
        let dir = tmp("writer_join");
        let mut cfg = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            31,
        );
        cfg.saves = SaveMode::Overlapped { universal: true };
        // The first writer dies before persisting; its rank fails at the
        // next drain while the peer's writer of the same step may still be
        // running.
        *crate::snapshot::PANIC_NEXT_PERSIST.lock().unwrap() = Some(dir.clone());
        let err = train_run(&TrainPlan {
            config: cfg,
            until_iteration: 4,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(1),
            checkpoint_dir: Some(dir.clone()),
        })
        .unwrap_err();
        assert!(err.to_string().contains("writer"), "{err}");
        // Every writer was joined before the run returned, so no step is
        // pinned in flight: a prune keeping only a newer step removes all
        // the run wrote except what a marker names.
        let newest = 99;
        std::fs::create_dir_all(ucp_storage::layout::step_dir(&dir, newest)).unwrap();
        let report = prune(&dir, &RetentionPolicy::last(1)).unwrap();
        let markers = [
            ucp_storage::layout::read_latest(&dir),
            ucp_storage::layout::read_latest_universal(&dir),
        ];
        for step in report.kept {
            assert!(
                step == newest || markers.contains(&Some(step)),
                "step {step} still pinned in flight after the run returned"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_record_every_iteration() {
        let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 99);
        let clip = cfg.grad_clip;
        let run = train_run(&TrainPlan::simple(cfg, 4)).unwrap();
        assert_eq!(run.metrics.len(), 4);
        for (m, (it, loss)) in run.metrics.iter().zip(&run.losses) {
            assert_eq!(m.iteration, *it);
            assert_eq!(m.loss, *loss);
            assert!(m.grad_norm.is_finite() && m.grad_norm > 0.0);
            assert!(m.lr > 0.0);
            assert!(m.tokens_per_sec > 0.0);
            let _ = clip;
        }
    }

    #[test]
    fn one_f_one_b_matches_sequential() {
        use crate::engine::PipelineSchedule;
        // Same run under both schedules: losses must agree to f64-reorder
        // precision, across deep-pipeline and PP×DP layouts.
        for (parallel, seed) in [
            (ParallelConfig::new(1, 4, 1, 1, ZeroStage::Zero1), 101u64),
            (ParallelConfig::new(1, 2, 2, 1, ZeroStage::Zero1), 102),
            (ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1), 103),
        ] {
            let mut sequential = TrainConfig::quick(ModelConfig::gpt3_tiny(), parallel, seed);
            sequential.global_batch = 8;
            sequential.micro_batch = 1; // 8 microbatches: real overlap depth
            let mut one_f_one_b = sequential.clone();
            one_f_one_b.schedule = PipelineSchedule::OneFOneB;
            let a = train_run(&TrainPlan::simple(sequential, 3)).unwrap();
            let b = train_run(&TrainPlan::simple(one_f_one_b, 3)).unwrap();
            for ((ia, la), (ib, lb)) in a.losses.iter().zip(&b.losses) {
                assert_eq!(ia, ib);
                assert!(
                    (la - lb).abs() < 1e-9,
                    "{} iteration {ia}: sequential {la} vs 1F1B {lb}",
                    parallel.label()
                );
            }
        }
    }

    #[test]
    fn one_f_one_b_checkpoints_resume_under_sequential() {
        use crate::engine::PipelineSchedule;
        let dir = tmp("schedule_resume");
        let mut cfg = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 2, 1, 1, ZeroStage::Zero1),
            104,
        );
        cfg.schedule = PipelineSchedule::OneFOneB;
        train_run(&TrainPlan {
            config: cfg.clone(),
            until_iteration: 2,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(2),
            checkpoint_dir: Some(dir.clone()),
        })
        .unwrap();
        convert_checkpoint(&dir, 2, &ucp_core::convert::ConvertOptions::default()).unwrap();
        let mut tgt = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
            104,
        );
        tgt.schedule = PipelineSchedule::Sequential;
        let run = train_run(&TrainPlan {
            config: tgt,
            until_iteration: 4,
            resume: ResumeMode::Universal {
                dir: dir.clone(),
                step: 2,
            },
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap();
        assert!(run.losses.iter().all(|(_, l)| l.is_finite()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
