//! Elastic recovery: rank-fault injection and a restart supervisor.
//!
//! The paper's motivating failure scenario is a rank dying mid-run and the
//! job resuming on whatever capacity survives, under a *different*
//! parallelism strategy. This module closes that loop in-process:
//!
//! - a deterministic **rank-fault injector** ([`RankFault`], mirroring the
//!   storage crate's `FaultPlan`): panic / hang / slow-down a chosen rank
//!   at a chosen step boundary, armed programmatically or via the
//!   `UCP_RANK_FAULTS` environment variable;
//! - a **supervisor** ([`supervise`]) that runs a training plan through
//!   the segment runner with this hook and the hot tier attached, and on
//!   a [`RankFailure`] tears the cluster down, consults the checkpoint
//!   directory for the latest committed step, degrades the topology to
//!   the next rung of a caller-provided ladder, converts the checkpoint
//!   to universal form if needed, and resumes — repeating until the plan
//!   completes or the restart budget is exhausted.
//!
//! Because resuming replays the loss trajectory deterministically, a
//! supervised run that survives faults is bitwise-comparable to a
//! fault-free run from the same checkpoint — the invariant
//! `tests/elastic_recovery.rs` asserts.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ucp_collectives::{ClusterOptions, Comm, RankFailure};
use ucp_core::convert::ConvertOptions;
use ucp_parallel::ParallelConfig;
use ucp_storage::layout;
use ucp_telemetry::trace::{self, TraceCat};

use crate::driver::{run_segment, ResumeMode, RunResult, SegmentError, SegmentHooks, TrainPlan};
use crate::TrainError;

/// What an injected fault does to its rank at the step boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic immediately — a hard crash the peers observe as a typed
    /// `PeerDead` within one watchdog tick.
    Panic,
    /// Stop participating in collectives without dying. Peers detect the
    /// hang via the watchdog deadline; once the cluster is poisoned the
    /// hung rank unwinds too (so the in-process harness can join it).
    Hang,
    /// Sleep this many milliseconds, then continue. A slow rank under the
    /// deadline is *not* a failure — the negative control.
    SlowMs(u64),
}

/// One scheduled rank fault: `kind` fires on `rank` just before it
/// executes training iteration `step` (0-based, i.e. after `step`
/// iterations have completed). Each fault fires at most once per
/// [`supervise`] call, so a fault at a replayed step does not re-kill the
/// resumed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFault {
    /// Rank the fault targets (in the topology active when it fires).
    pub rank: usize,
    /// Iteration boundary at which it fires.
    pub step: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl RankFault {
    /// Parse one `rank=R,step=S,kind=K` clause (`K` ∈ `panic` | `hang` |
    /// `slow:<ms>`).
    fn parse(clause: &str) -> Result<RankFault, String> {
        let (mut rank, mut step, mut kind) = (None, None, None);
        for part in clause.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            match key.trim() {
                "rank" => {
                    rank = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|e| format!("bad rank {value:?}: {e}"))?,
                    )
                }
                "step" => {
                    step = Some(
                        value
                            .trim()
                            .parse::<u64>()
                            .map_err(|e| format!("bad step {value:?}: {e}"))?,
                    )
                }
                "kind" => {
                    let value = value.trim();
                    kind = Some(match value {
                        "panic" => FaultKind::Panic,
                        "hang" => FaultKind::Hang,
                        _ => match value.strip_prefix("slow:") {
                            Some(ms) => FaultKind::SlowMs(
                                ms.parse().map_err(|e| format!("bad slow ms {ms:?}: {e}"))?,
                            ),
                            None => return Err(format!("unknown fault kind {value:?}")),
                        },
                    })
                }
                other => return Err(format!("unknown fault field {other:?}")),
            }
        }
        Ok(RankFault {
            rank: rank.ok_or("fault clause missing rank=")?,
            step: step.ok_or("fault clause missing step=")?,
            kind: kind.ok_or("fault clause missing kind=")?,
        })
    }
}

/// Environment variable holding `;`-separated fault clauses, e.g.
/// `UCP_RANK_FAULTS="rank=1,step=3,kind=panic;rank=0,step=5,kind=hang"`.
pub const RANK_FAULTS_ENV: &str = "UCP_RANK_FAULTS";

/// Parse [`RANK_FAULTS_ENV`] (empty vec when unset).
pub fn faults_from_env() -> Result<Vec<RankFault>, String> {
    let Ok(spec) = std::env::var(RANK_FAULTS_ENV) else {
        return Ok(Vec::new());
    };
    parse_faults(&spec)
}

/// Parse a `;`-separated fault schedule string.
pub fn parse_faults(spec: &str) -> Result<Vec<RankFault>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(RankFault::parse)
        .collect()
}

/// A fault plus its once-only trigger state, shared across restarts.
/// `fired_segment` records which supervised segment the fault fired in,
/// so the recovery path can tell a *co-scheduled* fault (fired in the
/// segment that just died — its rank's memory is gone too) from one that
/// fired before an earlier restart.
struct ArmedFault {
    fault: RankFault,
    fired: AtomicBool,
    fired_segment: AtomicUsize,
}

/// The injection hook: called by the supervised training loop at every
/// step boundary, on every rank. Panics (by design) when a `Panic` or
/// `Hang` fault fires — the cluster run converts the unwind into a
/// structured [`RankFailure`].
fn fault_point(armed: &[ArmedFault], comm: &Comm, step: u64, segment: usize) {
    for a in armed {
        if a.fault.rank != comm.rank() || a.fault.step != step {
            continue;
        }
        if a.fired.swap(true, Ordering::SeqCst) {
            continue; // already fired in an earlier segment
        }
        a.fired_segment.store(segment, Ordering::SeqCst);
        match a.fault.kind {
            FaultKind::Panic => {
                panic!("injected fault: rank {} panics at step {step}", comm.rank())
            }
            FaultKind::Hang => {
                // Stop participating. Peers blocked on this rank trip the
                // watchdog deadline and poison the cluster; only then does
                // this rank unwind (a real hang would never return, but the
                // in-process harness must join every thread).
                let tick = Duration::from_millis(2);
                while !comm.poisoned() {
                    std::thread::sleep(tick);
                }
                panic!("injected fault: rank {} hung at step {step}", comm.rank())
            }
            FaultKind::SlowMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
        }
    }
}

/// The set of ranks whose memory died with this failure: the root cause,
/// every fatal fault that fired in the segment that just died (several
/// ranks can panic at the same boundary; `try_run_with` reports only the
/// first), and every co-scheduled fatal fault at or before the failing
/// step that had not fired yet — the cluster unwound before it could
/// trigger, but the scenario it models (several machines lost at once)
/// means its rank's RAM must not be trusted either. Unfired faults are
/// marked fired so they don't re-kill the resumed run at a replayed step.
fn lost_ranks(failure: &RankFailure, armed: &[ArmedFault], segment: usize) -> Vec<usize> {
    let mut lost = vec![failure.rank];
    for a in armed {
        if !matches!(a.fault.kind, FaultKind::Panic | FaultKind::Hang)
            || a.fault.step > failure.step
        {
            continue;
        }
        if a.fired.swap(true, Ordering::SeqCst) {
            if a.fired_segment.load(Ordering::SeqCst) == segment {
                lost.push(a.fault.rank);
            }
        } else {
            a.fired_segment.store(segment, Ordering::SeqCst);
            lost.push(a.fault.rank);
        }
    }
    lost.sort_unstable();
    lost.dedup();
    lost
}

/// Supervisor policy: watchdog deadline, restart budget, and the
/// degraded-topology ladder consumed one rung per restart.
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Watchdog deadline for every supervised cluster run.
    pub deadline: Duration,
    /// Restarts allowed before the supervisor gives up.
    pub max_restarts: usize,
    /// Topologies to fall back to, in order, one per restart (e.g.
    /// TP2×PP2×DP2 → TP2×PP2×DP1 → TP1×PP2). When the ladder is
    /// exhausted the last active topology is retried.
    pub ladder: Vec<ParallelConfig>,
    /// Faults to inject (merged with [`RANK_FAULTS_ENV`] at
    /// [`supervise`] entry).
    pub faults: Vec<RankFault>,
    /// Peer-replication factor for the in-memory hot checkpoint tier:
    /// every save, each rank pushes its shard to this many successor
    /// ranks, and recovery tries the surviving RAM copies before falling
    /// back to disk. `None` disables the tier (disk-only recovery, the
    /// pre-hot behaviour). Must be ≥ 1 and < the smallest world size the
    /// run can degrade to.
    pub hot_replicas: Option<usize>,
}

impl Default for SupervisorOptions {
    fn default() -> SupervisorOptions {
        SupervisorOptions {
            deadline: ClusterOptions::default().deadline,
            max_restarts: 3,
            ladder: Vec::new(),
            faults: Vec::new(),
            hot_replicas: None,
        }
    }
}

/// One recovery cycle: what failed, and how the run resumed.
#[derive(Debug, Clone)]
pub struct RestartEvent {
    /// Root-cause rank of the failure.
    pub rank: usize,
    /// Step the failing rank had reached.
    pub step: u64,
    /// Stringified panic payload.
    pub payload: String,
    /// Checkpoint step the run resumed from (`None` = fresh restart, no
    /// committed checkpoint existed).
    pub resume_step: Option<u64>,
    /// Steps of progress lost (failing step − resumed step).
    pub lost_steps: u64,
    /// Topology of the resumed segment.
    pub parallel: ParallelConfig,
    /// Wall-clock milliseconds from observing the failure to having the
    /// resume plan ready (teardown + retention lookup + convert).
    pub recovery_ms: u64,
    /// Which tier served the resume state: `"peer"` when the hot tier
    /// assembled the checkpoint from surviving RAM replicas, `"disk"`
    /// when the run fell back to the latest committed checkpoint (or
    /// restarted fresh).
    pub source: String,
}

/// The outcome of a supervised run.
#[derive(Debug, Clone)]
pub struct SuperviseReport {
    /// Per-segment results; the last segment is the one that completed
    /// the plan.
    pub segments: Vec<RunResult>,
    /// One entry per recovery cycle, in order.
    pub restarts: Vec<RestartEvent>,
}

impl SuperviseReport {
    /// The completed final segment.
    pub fn final_segment(&self) -> &RunResult {
        self.segments.last().expect("supervise returns >=1 segment")
    }
}

/// Run `plan` under supervision: inject scheduled faults, and on each
/// rank failure resume from the latest committed checkpoint under the
/// next topology of the ladder. Returns when the plan's
/// `until_iteration` is reached or errors once the restart budget is
/// spent.
pub fn supervise(
    plan: &TrainPlan,
    opts: &SupervisorOptions,
) -> Result<SuperviseReport, TrainError> {
    let mut faults: Vec<RankFault> = opts.faults.clone();
    faults.extend(faults_from_env().map_err(TrainError::Config)?);
    let armed: Vec<ArmedFault> = faults
        .into_iter()
        .map(|fault| ArmedFault {
            fault,
            fired: AtomicBool::new(false),
            fired_segment: AtomicUsize::new(usize::MAX),
        })
        .collect();

    let hot = match opts.hot_replicas {
        None => None,
        Some(0) => {
            return Err(TrainError::Config(
                "hot_replicas must be >= 1 (use None to disable the hot tier)".to_string(),
            ))
        }
        Some(k) => {
            // The factor must leave room for K distinct successor ranks in
            // *every* topology the run can degrade to, or a late rung would
            // wrap the placement ring onto the source rank itself.
            let min_world = std::iter::once(plan.config.parallel)
                .chain(opts.ladder.iter().copied())
                .map(|p| p.world_size())
                .min()
                .unwrap_or(1);
            if k >= min_world {
                return Err(TrainError::Config(format!(
                    "hot_replicas ({k}) must be < the smallest world size the run \
                     can degrade to ({min_world})"
                )));
            }
            Some(crate::hot::HotTier::new(k))
        }
    };

    let mut current = plan.clone();
    let mut ladder = opts.ladder.iter();
    let mut report = SuperviseReport {
        segments: Vec::new(),
        restarts: Vec::new(),
    };
    loop {
        let segment = report.restarts.len();
        let at_step = |comm: &Comm, step: u64| fault_point(&armed, comm, step, segment);
        let hooks = SegmentHooks {
            deadline: opts.deadline,
            at_step: &at_step,
            hot: hot.as_ref(),
        };
        match run_segment(&current, Some(&hooks)) {
            Ok(result) => {
                report.segments.push(result);
                return Ok(report);
            }
            Err(SegmentError::Hard(e)) => return Err(e),
            Err(SegmentError::Failure(failure)) => {
                let t_recover = Instant::now();
                let _detect = trace::span(TraceCat::Recovery, "recover");
                if ucp_telemetry::enabled() {
                    ucp_telemetry::count("recovery/failures", 1);
                }
                if report.restarts.len() >= opts.max_restarts {
                    return Err(TrainError::Config(format!(
                        "supervisor: restart budget ({}) exhausted; last failure: {failure}",
                        opts.max_restarts
                    )));
                }
                let dir = current.checkpoint_dir.clone().ok_or_else(|| {
                    TrainError::Config(format!(
                        "supervisor: no checkpoint_dir to recover from after: {failure}"
                    ))
                })?;
                if failure.payload.contains("watchdog") {
                    journal(
                        &dir,
                        &ucp_storage::JournalEvent::Watchdog {
                            rank: failure.rank,
                            step: failure.step,
                            detail: failure.payload.clone(),
                        },
                    )?;
                }
                journal(
                    &dir,
                    &ucp_storage::JournalEvent::RecoveryBegin {
                        rank: failure.rank,
                        step: failure.step,
                        cause: failure.payload.clone(),
                    },
                )?;
                if let Some(tier) = &hot {
                    tier.mark_lost(&lost_ranks(&failure, &armed, segment));
                }
                if let Some(next) = ladder.next() {
                    current.config.parallel = *next;
                }
                // Tiered recovery: surviving RAM replicas first, disk only
                // when the hot copy is incomplete or stale.
                let mut source = "disk".to_string();
                let mut resume_step = None;
                if let Some(tier) = &hot {
                    journal(
                        &dir,
                        &ucp_storage::JournalEvent::HotRecoveryBegin { step: failure.step },
                    )?;
                    let hot_resume = tier.try_recover().filter(|(ckpt, _)| {
                        // A committed disk checkpoint newer than the hot copy
                        // wins — survivors only retain the last few saves, so
                        // a long demotion backlog cannot happen, but a disk
                        // save that completed after the newest surviving
                        // replica generation can.
                        layout::read_latest(&dir).is_none_or(|d| d <= ckpt.step())
                    });
                    match hot_resume {
                        Some((ckpt, served)) => {
                            let step = ckpt.step();
                            journal(
                                &dir,
                                &ucp_storage::JournalEvent::HotRecoveryEnd {
                                    served_ranks: served,
                                    fallback: false,
                                },
                            )?;
                            ucp_telemetry::count("recovery/source_peer", 1);
                            current.resume = ResumeMode::Hot {
                                checkpoint: std::sync::Arc::new(ckpt),
                            };
                            source = "peer".to_string();
                            resume_step = Some(step);
                        }
                        None => {
                            journal(
                                &dir,
                                &ucp_storage::JournalEvent::HotRecoveryEnd {
                                    served_ranks: Vec::new(),
                                    fallback: true,
                                },
                            )?;
                            ucp_telemetry::count("recovery/fallback_disk", 1);
                        }
                    }
                }
                if source != "peer" {
                    resume_step = recovery_resume(&dir, &mut current)?;
                }
                let lost_steps = failure.step.saturating_sub(resume_step.unwrap_or(0));
                let recovery_ms = t_recover.elapsed().as_millis() as u64;
                journal(
                    &dir,
                    &ucp_storage::JournalEvent::RecoveryEnd {
                        resume_step,
                        lost_steps,
                        recovery_ms,
                        parallel: current.config.parallel.label(),
                        source: source.clone(),
                    },
                )?;
                if ucp_telemetry::enabled() {
                    ucp_telemetry::count("recovery/restarts", 1);
                    ucp_telemetry::count("recovery/lost_steps", lost_steps);
                    ucp_telemetry::observe("recovery/recovery_ms", recovery_ms);
                }
                eprintln!(
                    "supervisor: rank {} failed at step {} ({}); resuming {} under {}",
                    failure.rank,
                    failure.step,
                    failure.payload,
                    match (&source[..], resume_step) {
                        ("peer", Some(s)) => format!("from peer-memory replicas at step {s}"),
                        (_, Some(s)) => format!("from committed step {s}"),
                        (_, None) => "fresh (no committed checkpoint)".to_string(),
                    },
                    current.config.parallel.label(),
                );
                report.restarts.push(RestartEvent {
                    rank: failure.rank,
                    step: failure.step,
                    payload: failure.payload,
                    resume_step,
                    lost_steps,
                    parallel: current.config.parallel,
                    recovery_ms,
                    source,
                });
            }
        }
    }
}

/// Append a lifecycle event to the run journal under `dir`. The
/// supervisor is single-threaded at the point of recovery, so these
/// records are totally ordered with the driver's save events.
fn journal(dir: &std::path::Path, event: &ucp_storage::JournalEvent) -> Result<(), TrainError> {
    ucp_storage::journal::append(dir, event).map_err(|e| TrainError::Ucp(e.into()))
}

/// Point `current.resume` at the latest committed checkpoint under
/// `dir`, converting it to universal form first if that has not happened
/// yet. Returns the resume step (`None` → fresh restart).
fn recovery_resume(
    dir: &std::path::Path,
    current: &mut TrainPlan,
) -> Result<Option<u64>, TrainError> {
    match layout::read_latest(dir) {
        Some(step) => {
            let universal = layout::universal_dir(dir, step);
            if !layout::manifest_path(&universal).exists() {
                let _convert = trace::span(TraceCat::Recovery, "convert");
                crate::driver::convert_checkpoint(dir, step, &ConvertOptions::default())?;
            } else {
                // Born-universal tree: the save pipeline already published
                // the atoms, so recovery skips the convert pass entirely.
                ucp_telemetry::count("recovery/convert_skipped", 1);
            }
            current.resume = ResumeMode::Universal {
                dir: dir.to_path_buf(),
                step,
            };
            Ok(Some(step))
        }
        None => {
            current.resume = ResumeMode::Fresh;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fault_schedules() {
        let faults = parse_faults(
            "rank=1,step=3,kind=panic; rank=0,step=5,kind=hang;rank=2,step=1,kind=slow:250",
        )
        .unwrap();
        assert_eq!(
            faults,
            vec![
                RankFault {
                    rank: 1,
                    step: 3,
                    kind: FaultKind::Panic
                },
                RankFault {
                    rank: 0,
                    step: 5,
                    kind: FaultKind::Hang
                },
                RankFault {
                    rank: 2,
                    step: 1,
                    kind: FaultKind::SlowMs(250)
                },
            ]
        );
    }

    #[test]
    fn recovery_skips_convert_when_manifest_exists() {
        use ucp_model::ModelConfig;
        use ucp_parallel::{ParallelConfig, ZeroStage};

        let dir = std::env::temp_dir().join(format!(
            "ucp_supervisor_skip_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // A born-universal tree: the native marker names step 4 and the
        // universal manifest is already on disk. The tree is otherwise
        // empty, so if recovery tried to convert anyway it would fail —
        // returning Ok proves the skip branch was taken.
        let universal = layout::universal_dir(&dir, 4);
        std::fs::create_dir_all(&universal).unwrap();
        std::fs::write(layout::manifest_path(&universal), b"stub").unwrap();
        layout::write_latest(&dir, 4).unwrap();
        let mut plan = TrainPlan {
            config: crate::TrainConfig::quick(
                ModelConfig::gpt3_tiny(),
                ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
                21,
            ),
            until_iteration: 6,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(2),
            checkpoint_dir: Some(dir.clone()),
        };
        assert_eq!(recovery_resume(&dir, &mut plan).unwrap(), Some(4));
        assert!(matches!(plan.resume, ResumeMode::Universal { step: 4, .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_fault_triggers_degraded_resume() {
        use ucp_model::ModelConfig;
        use ucp_parallel::{ParallelConfig, ZeroStage};

        let dir = std::env::temp_dir().join(format!(
            "ucp_supervisor_panic_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            21,
        );
        let plan = TrainPlan {
            config: cfg,
            until_iteration: 6,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(2),
            checkpoint_dir: Some(dir.clone()),
        };
        let opts = SupervisorOptions {
            deadline: Duration::from_secs(5),
            max_restarts: 2,
            ladder: vec![ParallelConfig::single()],
            faults: vec![RankFault {
                rank: 1,
                step: 3,
                kind: FaultKind::Panic,
            }],
            hot_replicas: None,
        };
        let report = supervise(&plan, &opts).unwrap();
        assert_eq!(report.restarts.len(), 1, "exactly one recovery cycle");
        let restart = &report.restarts[0];
        assert_eq!(restart.rank, 1);
        assert_eq!(restart.step, 3);
        assert!(restart.payload.contains("injected fault"), "{restart:?}");
        // Checkpoints landed at steps 2 (then the kill hit before step 3
        // finished): the resume starts from the last committed step.
        assert_eq!(restart.resume_step, Some(2));
        assert_eq!(restart.lost_steps, 1);
        assert_eq!(restart.parallel, ParallelConfig::single());
        let last = report.final_segment();
        assert_eq!(last.start_iteration, 2);
        assert_eq!(last.losses.last().unwrap().0, 6);
        assert!(last.losses.iter().all(|(_, l)| l.is_finite()));
        // The run journal recorded the full lifecycle in order: the saves
        // around the failure and exactly one recovery begin/end pair.
        let journal = ucp_storage::journal::read(&dir).unwrap();
        assert!(!journal.torn_tail, "no crash mid-append happened");
        assert_eq!(journal.malformed, 0);
        assert_eq!(journal.last_step("save_started"), Some(6));
        assert_eq!(journal.last_step("native_persisted"), Some(6));
        assert_eq!(journal.of_kind("recovery_begin").count(), 1);
        let ends: Vec<_> = journal.of_kind("recovery_end").collect();
        assert_eq!(ends.len(), 1);
        match &ends[0].event {
            ucp_storage::JournalEvent::RecoveryEnd {
                resume_step,
                lost_steps,
                parallel,
                ..
            } => {
                assert_eq!(*resume_step, Some(2));
                assert_eq!(*lost_steps, 1);
                assert_eq!(parallel, &ParallelConfig::single().label());
            }
            other => panic!("unexpected event: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_budget_exhaustion_is_an_error() {
        use ucp_model::ModelConfig;
        use ucp_parallel::ParallelConfig;

        let dir = std::env::temp_dir().join(format!(
            "ucp_supervisor_budget_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 5);
        let plan = TrainPlan {
            config: cfg,
            until_iteration: 4,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(2),
            checkpoint_dir: Some(dir.clone()),
        };
        // Two scheduled kills but a budget of one restart.
        let opts = SupervisorOptions {
            deadline: Duration::from_secs(5),
            max_restarts: 1,
            ladder: Vec::new(),
            faults: vec![
                RankFault {
                    rank: 0,
                    step: 1,
                    kind: FaultKind::Panic,
                },
                RankFault {
                    rank: 0,
                    step: 3,
                    kind: FaultKind::Panic,
                },
            ],
            hot_replicas: None,
        };
        let err = supervise(&plan, &opts).unwrap_err();
        assert!(
            err.to_string().contains("restart budget"),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_fault_is_not_a_failure() {
        use ucp_model::ModelConfig;
        use ucp_parallel::ParallelConfig;

        let cfg = crate::TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 9);
        let plan = TrainPlan::simple(cfg, 3);
        let opts = SupervisorOptions {
            deadline: Duration::from_secs(5),
            faults: vec![RankFault {
                rank: 0,
                step: 1,
                kind: FaultKind::SlowMs(30),
            }],
            ..SupervisorOptions::default()
        };
        let report = supervise(&plan, &opts).unwrap();
        assert!(report.restarts.is_empty());
        assert_eq!(report.final_segment().losses.len(), 3);
    }

    #[test]
    fn rejects_malformed_fault_schedules() {
        assert!(parse_faults("rank=1,step=3").is_err()); // missing kind
        assert!(parse_faults("rank=1,step=3,kind=explode").is_err());
        assert!(parse_faults("rank=x,step=3,kind=panic").is_err());
        assert!(parse_faults("rank=1,step=3,kind=slow:fast").is_err());
        assert!(parse_faults("bogus").is_err());
        assert!(parse_faults("").unwrap().is_empty());
    }
}
