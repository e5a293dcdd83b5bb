//! The repository benchmark: per-iteration checkpointing, reshard-resume
//! and fault recovery, measured end to end and, in a traced run, layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ckpt_every_iter|reshard_resume|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs rounds of the same three phases (see [`phases`])
//! in one process at world size 2, because every run reports every
//! end-to-end metric; the workloads differ in the reshard phase's model
//! size and the save phase's length. The seed picks the model
//! initialisation and the fault schedules. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ones. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Trees are written under `.perfbench_work/` in the current
//! directory and removed at exit.

mod layers;
mod phases;
mod probe;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ucp_model::SizePreset;

use crate::phases::{
    fault_schedule, recover_phase, reference_run, reshard_phase, save_config, save_phase, tp2,
    train_config, RecoverOut, Reference, ReshardOut, SaveOut,
};
use crate::stats::{Ops, Samples};

/// The `--seconds` value the workload sizes below are tuned for; other
/// values scale the number of rounds in proportion.
const NOMINAL_SECONDS: f64 = 30.0;

/// Source-checkpoint builds per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Steps between the recover phase's rank kills.
const FAULT_EVERY: u64 = 2;

/// One workload. A run repeats one round of the three phases `rounds`
/// times, so each metric's samples come from the whole run rather than
/// from one stretch of it: a burst of host contention then moves a few
/// samples of every metric instead of most samples of one.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    /// Iterations of the save phase per round (one save each).
    saves: u64,
    /// Model size of the reshard phase.
    reshard_size: SizePreset,
    /// Timed convert → load passes of the reshard phase per round.
    passes: usize,
    /// Rank kills of the recover phase per round (even: half are served
    /// from peer RAM, half from disk).
    faults: usize,
    /// Rounds at [`NOMINAL_SECONDS`].
    rounds: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "ckpt_every_iter",
        saves: 5,
        reshard_size: SizePreset::Medium,
        passes: 4,
        faults: 4,
        rounds: 3,
    },
    Workload {
        name: "reshard_resume",
        saves: 3,
        reshard_size: SizePreset::Large,
        passes: 1,
        faults: 4,
        rounds: 3,
    },
];

impl Workload {
    /// The workload resized for a `--seconds` budget.
    fn scaled(&self, seconds: f64) -> Workload {
        let rounds = (self.rounds as f64 * seconds / NOMINAL_SECONDS).round();
        Workload {
            rounds: rounds.max(1.0) as usize,
            ..*self
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A metric line of the result: name, value, unit, and the sample count
/// behind it (printed, not part of the JSON).
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: usize,
    range: Option<(f64, f64)>,
}

fn metric(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n,
        range: None,
    }
}

/// The median of `samples`, with its count and range.
fn median_metric(name: &str, samples: &Samples, unit: &'static str) -> Metric {
    Metric {
        range: samples.percentile(0.0).zip(samples.percentile(1.0)),
        ..metric(name, samples.p50().unwrap_or(0.0), unit, samples.n())
    }
}

/// One round of the three phases.
struct Pass {
    save: SaveOut,
    reshard: ReshardOut,
    recover: RecoverOut,
}

impl Pass {
    fn ops(&self) -> Ops {
        let mut ops = self.save.ops;
        ops.merge(self.reshard.ops);
        ops.merge(self.recover.ops);
        ops
    }

    fn wall_s(&self) -> f64 {
        self.save.window.secs()
            + phases::total_secs(&self.reshard.windows)
            + self.recover.window.secs()
    }
}

struct Outcome {
    ops: Ops,
    metrics: Vec<Metric>,
}

/// Run round `round` of the three phases. The reshard source must already
/// be in `work/reshard`; `tree_hash` is the universal tree every convert
/// must reproduce (`None` until the first round has written one).
///
/// Each round saves into directories of its own, and no tree is deleted
/// until the run ends: a delete frees blocks that the virtual disk
/// discards over the next seconds, and the disk restarts of a recover
/// phase that followed one ran 20–30 % slower than the first round's.
fn run_pass(
    w: &Workload,
    seed: u64,
    round: usize,
    work: &Path,
    reference: &Reference,
    tree_hash: Option<u64>,
    traced: bool,
) -> Pass {
    // The recover tree's saves are fsync'd like the other phases': a disk
    // restart's convert fsyncs its atoms, and with non-durable saves each
    // of those fsyncs also flushed whatever save data was still dirty, so
    // the restart's time tracked the disk's writeback state. Batch 2
    // halves the compute between faults.
    let mut recover_cfg = train_config(SizePreset::Medium, tp2(), seed);
    recover_cfg.global_batch = 2;
    recover_cfg.micro_batch = 1;
    let schedule_seed = seed.wrapping_add((round % w.rounds) as u64);
    let schedule = fault_schedule(w.faults, FAULT_EVERY, schedule_seed);
    let recover = recover_phase(
        &recover_cfg,
        &schedule,
        &work.join(format!("recover{round}")),
    );

    // The first round also checks the load API's round trip.
    let src = train_config(w.reshard_size, tp2(), seed);
    let reshard = reshard_phase(
        &src,
        &work.join("reshard"),
        w.passes,
        tree_hash.is_none(),
        traced,
        tree_hash,
    );

    // The save phase, which writes the most, goes last in a round.
    let save_dir = work.join(format!("save{round}"));
    let save = save_phase(&save_config(seed), w.saves, &save_dir, reference);
    Pass {
        save,
        reshard,
        recover,
    }
}

/// The reshard tree every round left behind must verify clean, or no
/// reshard operation of those rounds counts.
fn check_reshard_tree(work: &Path, passes: &mut [Pass]) {
    if !phases::fsck_clean(&work.join("reshard")) {
        eprintln!("reshard phase: fsck found problems");
        for p in passes {
            p.reshard.ops.failed = p.reshard.ops.attempted;
        }
    }
}

/// Every round's samples of one kind, pooled.
fn pooled(passes: &[Pass], f: impl Fn(&Pass) -> &Samples) -> Samples {
    Samples(passes.iter().flat_map(|p| f(p).0.iter().copied()).collect())
}

fn end_to_end(passes: &[Pass], setup: &Samples) -> Vec<Metric> {
    let iters: u64 = passes.iter().map(|p| p.recover.iters).sum();
    let recover_s: f64 = passes.iter().map(|p| p.recover.window.secs()).sum();
    vec![
        median_metric("setup_s", setup, "s"),
        median_metric(
            "ckpt_iters_per_s",
            &pooled(passes, |p| &p.save.cycles_ms).recip(1e3),
            "it/s",
        ),
        median_metric(
            "publish_lag_ms_p50",
            &pooled(passes, |p| &p.save.lags_ms),
            "ms",
        ),
        median_metric(
            "convert_s_p50",
            &pooled(passes, |p| &p.reshard.convert_s),
            "s",
        ),
        median_metric(
            "reshard_load_s_p50",
            &pooled(passes, |p| &p.reshard.reshard_load_s),
            "s",
        ),
        median_metric(
            "native_load_s_p50",
            &pooled(passes, |p| &p.reshard.native_load_s),
            "s",
        ),
        median_metric(
            "recovery_ms_peer_p50",
            &pooled(passes, |p| &p.recover.peer_ms),
            "ms",
        ),
        median_metric(
            "recovery_ms_disk_p50",
            &pooled(passes, |p| &p.recover.disk_ms),
            "ms",
        ),
        metric(
            "recover_iters_per_s",
            iters as f64 / recover_s,
            "it/s",
            iters as usize,
        ),
        metric("peak_rss_mb", probe::peak_rss_mb(), "MB", 1),
    ]
}

fn run_workload(w: &Workload, args: &Args, work: &Path) -> Outcome {
    probe::reset_peak_rss();
    let w = w.scaled(args.seconds);
    let src = train_config(w.reshard_size, tp2(), args.seed);
    let mut setup = Samples::default();
    // Each build writes a directory of its own, the last one the reshard
    // source, so no build deletes the tree the one before it wrote.
    for k in 1..=SETUPS {
        let dir = match k {
            SETUPS => work.join("reshard"),
            _ => work.join(format!("setup{k}")),
        };
        setup.0.push(phases::build_source(&src, &dir));
    }
    // Every round's save phase trains the same iterations from scratch,
    // so one reference covers them all.
    let reference = reference_run(&save_config(args.seed), w.saves);

    let mut passes: Vec<Pass> = Vec::new();
    for round in 0..w.rounds {
        let hash = passes.first().and_then(|p| p.reshard.tree_hash);
        passes.push(run_pass(
            &w, args.seed, round, work, &reference, hash, false,
        ));
    }
    check_reshard_tree(work, &mut passes);
    let mut ops = Ops::default();
    passes.iter().for_each(|p| ops.merge(p.ops()));
    let e2e = end_to_end(&passes, &setup);
    println!(
        "workload {} seed {} ({} cores available, {} rounds):",
        w.name,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.rounds
    );
    for m in &e2e {
        let range = m.range.map_or(String::new(), |(lo, hi)| {
            format!(", range {lo:.4}..{hi:.4}")
        });
        println!(
            "  {:<22} = {:>12.4} {:<5} (n={}{range})",
            m.name, m.value, m.unit, m.n
        );
    }
    let p50 = |f: fn(&Pass) -> &Samples| pooled(&passes, f).p50().unwrap_or(0.0);
    let native = p50(|p| &p.reshard.native_load_s);
    if native > 0.0 {
        println!(
            "  fig12_ratio (context, not a metric) = (convert + reshard load) / native load = {:.3}",
            (p50(|p| &p.reshard.convert_s) + p50(|p| &p.reshard.reshard_load_s)) / native
        );
    }
    // Too noisy to gate on (a few long drains dominate the mean), so it is
    // printed here and gated nowhere; traced runs report it per layer.
    let saves: u64 = passes.iter().map(|p| p.save.iters).sum();
    let save_secs: f64 = passes.iter().map(|p| p.save.save_secs).sum();
    println!(
        "  save_stall_ms (context, not a metric) = {:.4} ms (mean of n={saves} saves)",
        1e3 * save_secs / saves.max(1) as f64,
    );
    println!(
        "  failed_ops_frac        = {:>12.4} ratio (failed {} of {} ops)",
        ops.failed_frac(),
        ops.failed,
        ops.attempted
    );
    if !args.trace {
        return Outcome { ops, metrics: e2e };
    }

    // The traced round: recorder and trace session on, the work of the
    // first round again (same fault schedule, fresh directories), compared
    // with the median untraced round.
    let rec = ucp_telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    ucp_telemetry::trace::global().start();
    let hash = passes[0].reshard.tree_hash;
    let mut traced = [run_pass(
        &w, args.seed, w.rounds, work, &reference, hash, true,
    )];
    check_reshard_tree(work, &mut traced);
    let [traced] = traced;
    let session = ucp_telemetry::trace::global().take_session();
    ucp_telemetry::trace::global().set_enabled(false);
    rec.set_enabled(false);
    rec.reset();
    ops.merge(traced.ops());

    let timeline = layers::Timeline::from_session(&session);
    let t = layers::Traced {
        timeline: &timeline,
        save: &traced.save,
        reshard: &traced.reshard,
        recover: &traced.recover,
        reference: &reference,
        untraced_s: Samples(passes.iter().map(Pass::wall_s).collect())
            .p50()
            .unwrap_or(0.0),
    };
    // Layer times are unions clipped to the phase's timed calls, so no
    // layer can exceed the wall time it sits inside.
    let per_layer = layers::per_layer(&t);
    println!("workload {} traced (per layer):", w.name);
    for (name, value, unit) in &per_layer {
        println!("  {name:<34} = {value:>14.6} {unit}");
    }
    Outcome {
        ops,
        metrics: per_layer
            .into_iter()
            .map(|(name, value, unit)| metric(name, value, unit, 1))
            .collect(),
    }
}

/// A float as JSON, keeping every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn result_line(ops: Ops, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0 && ops.attempted > 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: --workload must be one of {names:?} or all");
        return ExitCode::from(2);
    }
    let work = PathBuf::from(".perfbench_work");
    let mut ops = Ops::default();
    let mut metrics = Vec::new();
    for w in &selected {
        let _ = std::fs::remove_dir_all(&work);
        let out = run_workload(w, &args, &work);
        ops.merge(out.ops);
        let prefix = if selected.len() > 1 {
            format!("{}.", w.name)
        } else {
            String::new()
        };
        metrics.extend(out.metrics.into_iter().map(|m| Metric {
            name: format!("{prefix}{}", m.name),
            ..m
        }));
    }
    let _ = std::fs::remove_dir_all(&work);
    probe::sync_fs(Path::new("."));
    println!("{}", result_line(ops, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_required_keys() {
        let mut ops = Ops::default();
        ops.add(10, 0);
        let line = result_line(ops, &[metric("setup_s", 0.8127, "s", 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        ops.add(1, 1);
        assert!(result_line(ops, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn scaling_changes_only_the_round_count() {
        let w = WORKLOADS[0].scaled(NOMINAL_SECONDS);
        assert_eq!(w.rounds, WORKLOADS[0].rounds);
        let long = WORKLOADS[0].scaled(2.0 * NOMINAL_SECONDS);
        assert_eq!(long.rounds, 2 * WORKLOADS[0].rounds);
        assert_eq!(long.saves, WORKLOADS[0].saves);
        assert_eq!(WORKLOADS[0].scaled(1.0).rounds, 1);
        assert!(WORKLOADS.iter().all(|w| w.faults >= 2 && w.faults % 2 == 0));
    }
}
