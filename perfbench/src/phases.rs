//! The three phases every workload runs, each a sequence of calls into the
//! public API of `ucp-trainer`, `ucp-core` and `ucp-storage`:
//!
//! - **save**: per-iteration checkpointing with the born-universal
//!   pipeline (`train_run_overlapped`, `checkpoint_every = 1`);
//! - **reshard**: the paper's Fig. 12 loop — convert (Algorithm 1), a
//!   universal resume under another topology, a native resume;
//! - **recover**: `supervise` through a seeded schedule of rank kills,
//!   served from peer RAM (one rank lost) or from disk (both lost).
//!
//! Every call is wrapped in a benchmark-side trace span (`bench.*`), and
//! every phase keeps its window on the tracer clock, so a traced run can
//! split the phase into layers. Each phase also checks its outputs and
//! counts attempted and failed operations.

use std::path::Path;
use std::time::Duration;

use ucp_core::convert::ConvertOptions;
use ucp_core::fsck::{fsck, FsckOptions};
use ucp_core::load::{gen_ucp_metadata, load_with_plan_opts, LoadOptions, LoadSession};
use ucp_model::{ModelConfig, SizePreset};
use ucp_parallel::{ParallelConfig, ZeroStage};
use ucp_storage::container::Container;
use ucp_storage::layout;
use ucp_telemetry::trace::{self, TraceCat};
use ucp_telemetry::Report;
use ucp_trainer::supervisor::{FaultKind, RankFault, SupervisorOptions};
use ucp_trainer::{
    convert_checkpoint, supervise, train_run, train_run_overlapped, ResumeMode, RunResult,
    TrainConfig, TrainPlan,
};

use crate::probe::{self, ProcSample};
use crate::stats::{publish_lags, step_cycles, Ops, Samples};

/// The world size of every phase (one rank per core of the reference
/// machine).
pub const WORLD: usize = 2;

/// Source topology of every phase: TP2·PP1·DP1, ZeRO-1.
pub fn tp2() -> ParallelConfig {
    ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1)
}

/// The reshard target: TP1·PP1·DP2, ZeRO-1.
pub fn dp2() -> ParallelConfig {
    ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1)
}

/// Training configuration shared by the phases: global batch 4, micro
/// batch 2, checkpoints fsync'd before they count as saved.
pub fn train_config(size: SizePreset, parallel: ParallelConfig, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::quick(ModelConfig::sized(size), parallel, seed);
    cfg.global_batch = 4;
    cfg.micro_batch = 2;
    cfg.durable_saves = true;
    cfg
}

/// Configuration of the save phase and its checkpoint-free reference:
/// gpt-medium at global batch 8. The born-universal writers publish step
/// k only after step k + 1's boundary, and need most of a batch-4
/// iteration for each save; when fsync slows down (a neighbour writing
/// to the same disk) they fall behind at batch 4, saves queue, and the
/// publish lag grows through the run instead of settling. At batch 8 an
/// iteration gives them about twice the time, so the lag stays one step
/// cycle under the same load.
pub fn save_config(seed: u64) -> TrainConfig {
    let mut cfg = train_config(SizePreset::Medium, tp2(), seed);
    cfg.global_batch = 8;
    cfg
}

/// Seconds on the tracer clock (the clock trace events use).
pub fn now_ns() -> u64 {
    trace::global().now_ns()
}

/// A phase's window on the tracer clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Start (ns).
    pub start: u64,
    /// End (ns).
    pub end: u64,
}

impl Window {
    /// Open a window now.
    pub fn open() -> Window {
        let t = now_ns();
        Window { start: t, end: t }
    }

    /// Close it now.
    pub fn close(&mut self) {
        self.end = now_ns();
    }

    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }

    /// As an interval.
    pub fn pair(&self) -> (u64, u64) {
        (self.start, self.end)
    }
}

/// Summed length (s) of disjoint windows.
pub fn total_secs(windows: &[Window]) -> f64 {
    windows.iter().map(Window::secs).sum()
}

/// Time one call, inside a benchmark-side trace span.
fn timed<T>(cat: TraceCat, name: &str, f: impl FnOnce() -> T) -> (T, Window) {
    let _sp = trace::span(cat, name);
    let mut window = Window::open();
    let out = f();
    window.close();
    (out, window)
}

/// Take the global recorder's report for one phase and reset it, so each
/// phase's counters stand alone (a no-op report while telemetry is off).
fn take_report(label: &str) -> Report {
    let rec = ucp_telemetry::global();
    let report = rec.report(label);
    rec.reset();
    report
}

/// Delete a tree and flush the filesystem, so a phase starts from a
/// clean directory with no writeback pending from the previous one.
pub fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create benchmark work dir");
    probe::sync_fs(dir);
}

// ---------------------------------------------------------------------------
// save
// ---------------------------------------------------------------------------

/// Outcome of the save phase.
#[derive(Debug, Default)]
pub struct SaveOut {
    /// Window of the `train_run_overlapped` call (final drain included).
    pub window: Window,
    /// Iterations trained (one save each).
    pub iters: u64,
    /// `RunResult.save_secs`: time training blocked on saves.
    pub save_secs: f64,
    /// Per-step `save_started` → `universal_published` lag (ms), every
    /// step but the last.
    pub lags_ms: Samples,
    /// Per-step iteration + save cycle (ms), from the journal.
    pub cycles_ms: Samples,
    /// Σ per-iteration compute wall time (rank 0's view).
    pub compute_secs: f64,
    /// Files and bytes of the produced tree.
    pub tree_files: u64,
    /// See `tree_files`.
    pub tree_bytes: u64,
    /// Process counters accumulated over the timed call.
    pub proc: ProcSample,
    /// The phase's recorder report (empty while telemetry is off).
    pub report: Report,
    /// Saves attempted / failed.
    pub ops: Ops,
}

/// The checkpoint-free reference run: its losses are the oracle for the
/// save phase, and its speed the no-checkpoint baseline.
pub struct Reference {
    /// Losses of the uninterrupted run.
    pub losses: Vec<(u64, f64)>,
    /// Its iterations per second.
    pub iters_per_s: f64,
}

/// Train `iters` iterations with no checkpointing.
pub fn reference_run(cfg: &TrainConfig, iters: u64) -> Reference {
    let (run, window) = timed(TraceCat::Compute, "bench.train_run", || {
        train_run(&TrainPlan::simple(cfg.clone(), iters))
    });
    let run = run.expect("checkpoint-free reference run");
    Reference {
        losses: run.losses,
        iters_per_s: iters as f64 / window.secs(),
    }
}

/// Save every iteration for `iters` iterations into `dir`.
pub fn save_phase(cfg: &TrainConfig, iters: u64, dir: &Path, reference: &Reference) -> SaveOut {
    fresh_dir(dir);
    take_report("discard");
    let plan = TrainPlan {
        config: cfg.clone(),
        until_iteration: iters,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(1),
        checkpoint_dir: Some(dir.to_path_buf()),
    };
    let proc0 = ProcSample::now();
    let (run, window) = timed(TraceCat::Compute, "bench.train_run_overlapped", || {
        train_run_overlapped(&plan)
    });
    let proc = ProcSample::now().since(&proc0);
    let report = take_report("save");

    let mut out = SaveOut {
        window,
        iters,
        proc,
        report,
        ..SaveOut::default()
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("save phase: train_run_overlapped failed: {e}");
            out.ops.add(iters, iters);
            return out;
        }
    };
    out.save_secs = run.save_secs;
    out.compute_secs = run.metrics.iter().map(|m| m.wall_secs).sum();
    let (files, bytes) = probe::tree_size(dir);
    out.tree_files = files;
    out.tree_bytes = bytes;

    // Checks, outside the timed call.
    let journal = ucp_storage::journal::read(dir).unwrap_or_default();
    let (lags, missing) = publish_lags(&journal.records);
    // The last step is published by the run's final drain, not by the next
    // step's boundary, so its lag is not a steady-state sample.
    out.lags_ms = Samples(lags.range(..iters).map(|(_, lag)| *lag).collect());
    out.cycles_ms = Samples(step_cycles(&journal.records));
    let mut failed: Vec<bool> = (1..=iters)
        .map(|s| !lags.contains_key(&s) || missing.contains(&s))
        .collect();
    if layout::read_latest_universal(dir) != Some(iters) {
        eprintln!("save phase: latest_universal is not step {iters}");
        if let Some(last) = failed.last_mut() {
            *last = true;
        }
    }
    let clean = fsck_clean(dir);
    let bitwise = bitwise_losses(&run, &reference.losses);
    if !clean || !bitwise {
        eprintln!("save phase: fsck clean = {clean}, losses bitwise-equal = {bitwise}");
        failed.iter_mut().for_each(|f| *f = true);
    }
    out.ops
        .add(iters, failed.iter().filter(|f| **f).count() as u64);
    out
}

/// Whether `fsck` (report only, no repair) finds the tree clean.
pub fn fsck_clean(dir: &Path) -> bool {
    timed(TraceCat::Checkpoint, "bench.fsck", || {
        fsck(dir, &FsckOptions { repair: false })
    })
    .0
    .is_ok_and(|r| r.clean())
}

/// Whether a run's losses equal `want`, bit for bit.
fn bitwise_losses(run: &RunResult, want: &[(u64, f64)]) -> bool {
    run.losses.len() == want.len()
        && run
            .losses
            .iter()
            .zip(want)
            .all(|((ia, la), (ib, lb))| ia == ib && la.to_bits() == lb.to_bits())
}

// ---------------------------------------------------------------------------
// reshard
// ---------------------------------------------------------------------------

/// The step the reshard source checkpoint is saved at.
pub const SOURCE_STEP: u64 = 1;

/// Build the reshard phase's source: a fresh TP2 run saved at
/// [`SOURCE_STEP`] into `dir`. Returns the build's wall time, clearing
/// the previous tree excluded.
pub fn build_source(cfg: &TrainConfig, dir: &Path) -> f64 {
    fresh_dir(dir);
    let (run, window) = timed(TraceCat::Compute, "bench.train_run", || {
        train_run(&TrainPlan {
            config: cfg.clone(),
            until_iteration: SOURCE_STEP,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(SOURCE_STEP),
            checkpoint_dir: Some(dir.to_path_buf()),
        })
    });
    run.expect("reshard source checkpoint");
    window.secs()
}

/// Outcome of the reshard phase.
#[derive(Debug, Default)]
pub struct ReshardOut {
    /// Windows of the timed calls: each pass's convert, and its two loads.
    pub windows: Vec<Window>,
    /// `convert_checkpoint` wall time per pass.
    pub convert_s: Samples,
    /// Universal resume (`train_run`, TP1·DP2, zero iterations) per pass.
    pub reshard_load_s: Samples,
    /// Native resume (`train_run`, source topology) per pass.
    pub native_load_s: Samples,
    /// Benchmark-timed `LoadSession::open` + `gen_ucp_metadata` (per
    /// traced pass).
    pub plan_s: Samples,
    /// Benchmark-timed `load_with_plan_opts` per target rank.
    pub rank_load_s: Samples,
    /// Files of the universal tree.
    pub universal_files: u64,
    /// Hash of the universal tree the first convert wrote; every later
    /// convert, in this call or a later one, must write the same bytes.
    pub tree_hash: Option<u64>,
    /// Loads executed in the timed passes: the two resumes of each pass,
    /// plus the recorded load-API rank loads.
    pub loads: u64,
    /// The phase's recorder report.
    pub report: Report,
    /// Converts + loads attempted / failed.
    pub ops: Ops,
}

/// Run `passes` timed convert → universal load → native load passes over
/// the source checkpoint in `dir`. With `round_trip`, the last pass ends
/// with the round-trip check of the load API; with `per_pass_plan_loads`,
/// every pass does, and records its timings (`LoadSession::open`,
/// `gen_ucp_metadata`, `load_with_plan_opts`) apart from the pass's own.
/// Every convert's tree must hash to `tree_hash`, or to the first one's
/// if that is `None`. The caller checks the tree with `fsck` once the
/// last pass is done.
pub fn reshard_phase(
    src: &TrainConfig,
    dir: &Path,
    passes: usize,
    round_trip: bool,
    per_pass_plan_loads: bool,
    tree_hash: Option<u64>,
) -> ReshardOut {
    let mut tgt = src.clone();
    tgt.parallel = dp2();
    let universal = layout::universal_dir(dir, SOURCE_STEP);
    let mut out = ReshardOut {
        tree_hash,
        ..ReshardOut::default()
    };
    probe::sync_fs(dir);
    take_report("discard");
    for pass in 1..=passes {
        // Deleting a tree frees blocks the filesystem discards at its next
        // journal commit; commit now, so no pass pays for the last one.
        let _ = std::fs::remove_dir_all(&universal);
        probe::sync_fs(dir);
        let (converted, convert_w) = timed(TraceCat::Convert, "bench.convert", || {
            convert_checkpoint(dir, SOURCE_STEP, &ConvertOptions::default())
        });
        let mut convert_ok = converted.is_ok();
        if let Err(e) = &converted {
            eprintln!("reshard pass {pass}: convert failed: {e}");
        }

        // Untimed: the converted tree has the same bytes every pass.
        let hash = probe::tree_hash(&universal);
        if *out.tree_hash.get_or_insert(hash) != hash {
            eprintln!("reshard pass {pass}: universal tree differs from the first convert's");
            convert_ok = false;
        }
        if out.universal_files == 0 {
            out.universal_files = probe::tree_size(&universal).0;
        }

        let (uload, uload_w) = timed(TraceCat::Load, "bench.train_run_universal", || {
            train_run(&TrainPlan {
                config: tgt.clone(),
                until_iteration: SOURCE_STEP,
                resume: ResumeMode::Universal {
                    dir: dir.to_path_buf(),
                    step: SOURCE_STEP,
                },
                checkpoint_every: None,
                checkpoint_dir: None,
            })
        });
        let (nload, nload_w) = timed(TraceCat::Load, "bench.train_run_native", || {
            train_run(&TrainPlan {
                config: src.clone(),
                until_iteration: SOURCE_STEP,
                resume: ResumeMode::Native {
                    dir: dir.to_path_buf(),
                    step: SOURCE_STEP,
                },
                checkpoint_every: None,
                checkpoint_dir: None,
            })
        });
        out.windows.extend([convert_w, uload_w, nload_w]);
        out.convert_s.0.push(convert_w.secs());
        out.reshard_load_s.0.push(uload_w.secs());
        out.native_load_s.0.push(nload_w.secs());
        out.loads += 2;
        // The load API timed directly, after the pass's own timings.
        if convert_ok && (per_pass_plan_loads || (round_trip && pass == passes)) {
            if let Err(e) = plan_loads(dir, &tgt, &mut out, per_pass_plan_loads) {
                eprintln!("reshard pass {pass}: round-trip check failed: {e}");
                convert_ok = false;
            }
        }

        let failed = [convert_ok, pure_load(&uload), pure_load(&nload)]
            .iter()
            .filter(|ok| !**ok)
            .count();
        if failed > 0 {
            eprintln!("reshard pass {pass}: {failed} of 3 operations failed");
        }
        out.ops.add(3, failed as u64);
    }
    out.report = take_report("reshard");
    out
}

/// Whether a resume loaded the source step and trained nothing.
fn pure_load<E>(run: &Result<RunResult, E>) -> bool {
    matches!(run, Ok(r) if r.start_iteration == SOURCE_STEP && r.losses.is_empty())
}

/// Open the converted checkpoint through the load API and load every
/// target rank, timing planning and loading separately. The target is
/// TP1, so each rank's parameters must equal the fp32 atoms bit for bit
/// (the round trip `tests/algorithm1_workflow.rs` checks).
fn plan_loads(
    dir: &Path,
    tgt: &TrainConfig,
    out: &mut ReshardOut,
    record: bool,
) -> Result<(), String> {
    let universal = layout::universal_dir(dir, SOURCE_STEP);
    let (plans, plan_w) = timed(TraceCat::Load, "bench.load_plan", || {
        let session = LoadSession::open(dir, SOURCE_STEP, LoadOptions::default())?;
        (0..WORLD)
            .map(|rank| gen_ucp_metadata(session.manifest(), &tgt.parallel, rank, tgt.alignment))
            .collect::<Result<Vec<_>, _>>()
    });
    if record {
        out.plan_s.0.push(plan_w.secs());
    }
    let plans = plans.map_err(|e| e.to_string())?;
    for plan in &plans {
        let (state, load_w) = timed(TraceCat::Load, "bench.load_with_plan_opts", || {
            load_with_plan_opts(&universal, plan, &LoadOptions::default())
        });
        if record {
            out.rank_load_s.0.push(load_w.secs());
            out.loads += 1;
        }
        for (name, tensor) in state.map_err(|e| e.to_string())?.model_params {
            let atom = layout::atom_path(&universal, &name, layout::AtomFile::Fp32);
            let atom = Container::read_file(&atom).map_err(|e| e.to_string())?;
            if !atom.get("fp32").is_some_and(|a| a.bitwise_eq(&tensor)) {
                return Err(format!("{name} differs from its atom"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// recover
// ---------------------------------------------------------------------------

/// A SplitMix64 stream: the fault schedule's only source of randomness.
struct SplitMix(u64);

impl SplitMix {
    /// Next 64 random bits.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One generated fault schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Faults to inject, in step order.
    pub faults: Vec<RankFault>,
    /// Topology ladder: one rung per restart, alternating DP2 and TP2, so
    /// every recovery reshards.
    pub ladder: Vec<ParallelConfig>,
    /// Recovery tier each restart must use (`peer` or `disk`).
    pub expect: Vec<&'static str>,
    /// Iterations the supervised plan runs to.
    pub until: u64,
}

/// `n` restarts, one every `every` steps, alternating one-rank kills
/// (served from peer RAM) and both-rank kills (disk). The seed picks
/// which kind comes first and which rank a one-rank kill takes.
pub fn fault_schedule(n: usize, every: u64, seed: u64) -> Schedule {
    let mut rng = SplitMix(seed);
    let both_first = rng.next() & 1 == 1;
    let mut s = Schedule {
        faults: Vec::new(),
        ladder: Vec::new(),
        expect: Vec::new(),
        until: every * (n as u64 + 1),
    };
    for i in 0..n {
        let step = every * (i as u64 + 1);
        let both = (i % 2 == 0) == both_first;
        let ranks: Vec<usize> = if both {
            (0..WORLD).collect()
        } else {
            vec![(rng.next() % WORLD as u64) as usize]
        };
        s.faults.extend(ranks.into_iter().map(|rank| RankFault {
            rank,
            step,
            kind: FaultKind::Panic,
        }));
        s.ladder.push(if i % 2 == 0 { dp2() } else { tp2() });
        s.expect.push(if both { "disk" } else { "peer" });
    }
    s
}

/// Outcome of the recover phase.
#[derive(Debug, Default)]
pub struct RecoverOut {
    /// Window of the `supervise` call.
    pub window: Window,
    /// Iterations the plan completed.
    pub iters: u64,
    /// `RestartEvent.recovery_ms` of peer-served restarts.
    pub peer_ms: Samples,
    /// The same for disk-served restarts.
    pub disk_ms: Samples,
    /// Replica bytes per hot-tier save (journal `hot_replicated`).
    pub replicated_bytes: Samples,
    /// The phase's recorder report.
    pub report: Report,
    /// Faults attempted / failed.
    pub ops: Ops,
}

/// Supervise a TP2 run through `schedule` with a hot tier of one replica,
/// saving every iteration into `dir`.
pub fn recover_phase(cfg: &TrainConfig, schedule: &Schedule, dir: &Path) -> RecoverOut {
    fresh_dir(dir);
    take_report("discard");
    let n = schedule.expect.len() as u64;
    let plan = TrainPlan {
        config: cfg.clone(),
        until_iteration: schedule.until,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(1),
        checkpoint_dir: Some(dir.to_path_buf()),
    };
    let opts = SupervisorOptions {
        deadline: Duration::from_millis(2000),
        max_restarts: schedule.expect.len(),
        ladder: schedule.ladder.clone(),
        faults: schedule.faults.clone(),
        hot_replicas: Some(1),
    };
    // Injected panics are expected; keep their messages off stderr.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (report, window) = timed(TraceCat::Recovery, "bench.supervise", || {
        supervise(&plan, &opts)
    });
    std::panic::set_hook(hook);
    let mut out = RecoverOut {
        window,
        iters: schedule.until,
        report: take_report("recover"),
        ..RecoverOut::default()
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("recover phase: supervise failed: {e}");
            out.ops.add(n, n);
            return out;
        }
    };

    let mut failed = 0u64;
    for (i, want) in schedule.expect.iter().enumerate() {
        let Some(ev) = report.restarts.get(i) else {
            failed += 1;
            continue;
        };
        match ev.source.as_str() {
            "peer" => out.peer_ms.0.push(ev.recovery_ms as f64),
            _ => out.disk_ms.0.push(ev.recovery_ms as f64),
        }
        if ev.source != *want || ev.lost_steps != 0 {
            eprintln!(
                "recover phase: restart {i} at step {} served from {} (want {want}), lost {}",
                ev.step, ev.source, ev.lost_steps
            );
            failed += 1;
        }
    }
    let journal = ucp_storage::journal::read(dir).unwrap_or_default();
    out.replicated_bytes = Samples(
        journal
            .records
            .iter()
            .filter_map(|r| match r.event {
                ucp_storage::JournalEvent::HotReplicated { bytes, .. } => Some(bytes as f64),
                _ => None,
            })
            .collect(),
    );
    if report.restarts.len() != schedule.expect.len() || !final_segment_matches(cfg, &report, dir) {
        eprintln!("recover phase: final segment is not bitwise-equal to its reference");
        failed = n;
    }
    out.ops.add(n, failed);
    out
}

/// The `ucp chaos` oracle: the final segment's losses equal a fault-free
/// run from the same checkpoint under the same topology, bit for bit.
fn final_segment_matches(
    cfg: &TrainConfig,
    report: &ucp_trainer::SuperviseReport,
    dir: &Path,
) -> bool {
    let Some(last) = report.restarts.last() else {
        return false;
    };
    let Some(step) = last.resume_step else {
        return false;
    };
    // A peer-served resume never touched the disk copy: convert it now.
    if !layout::manifest_path(&layout::universal_dir(dir, step)).exists()
        && convert_checkpoint(dir, step, &ConvertOptions::default()).is_err()
    {
        return false;
    }
    let mut ref_cfg = cfg.clone();
    ref_cfg.parallel = last.parallel;
    let final_segment = report.final_segment();
    match train_run(&TrainPlan {
        config: ref_cfg,
        until_iteration: final_segment.losses.last().map_or(step, |(it, _)| *it),
        resume: ResumeMode::Universal {
            dir: dir.to_path_buf(),
            step,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    }) {
        Ok(reference) => bitwise_losses(final_segment, &reference.losses),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_alternates_tiers_and_topologies() {
        let s = fault_schedule(12, 3, 7);
        assert_eq!(s.expect.len(), 12);
        assert_eq!(s.until, 39);
        for pair in s.expect.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
        for (i, rung) in s.ladder.iter().enumerate() {
            assert_eq!(rung.world_size(), WORLD);
            assert_eq!(*rung, if i % 2 == 0 { dp2() } else { tp2() });
        }
        // Six both-rank kills (two faults each) and six one-rank kills.
        assert_eq!(s.faults.len(), 18);
        assert!(s.faults.iter().all(|f| f.step % 3 == 0 && f.rank < WORLD));
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = fault_schedule(12, 3, 11);
        let b = fault_schedule(12, 3, 11);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.expect, b.expect);
        let differs = (0..32).any(|seed| fault_schedule(12, 3, seed).faults != a.faults);
        assert!(differs, "different seeds should give different schedules");
    }
}
