//! Integration tests for the `ucp` command-line tool (the
//! `ds_to_universal.py` counterpart): convert, inspect, and plan against a
//! real checkpoint.

use ucp_cli::args::{parse, Parsed};
use ucp_cli::commands;
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::trainer::{train_run, ResumeMode, TrainConfig, TrainPlan};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ucp_it_cli_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn make_checkpoint(name: &str) -> std::path::PathBuf {
    let dir = scratch(name);
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
        33,
    );
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: 2,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();
    dir
}

fn flags(args: &[&str]) -> Parsed {
    parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

#[test]
fn convert_then_inspect_then_plan() {
    let dir = make_checkpoint("full_flow");
    let dir_s = dir.to_string_lossy().to_string();

    // Convert resolves the step from the `latest` marker.
    commands::convert(&flags(&["--dir", &dir_s, "--workers", "2"])).unwrap();
    assert!(layout::universal_dir(&dir, 2).is_dir());

    // Inspect both halves.
    commands::inspect(&flags(&["--dir", &dir_s])).unwrap();

    // Plan for a reconfigured target.
    commands::plan(&flags(&[
        "--dir", &dir_s, "--step", "2", "--tp", "1", "--pp", "2", "--dp", "2", "--zero", "2",
        "--rank", "3",
    ]))
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_with_spill_and_no_verify() {
    let dir = make_checkpoint("spill");
    let dir_s = dir.to_string_lossy().to_string();
    commands::convert(&flags(&[
        "--dir",
        &dir_s,
        "--step",
        "2",
        "--spill",
        "--no-verify",
    ]))
    .unwrap();
    assert!(layout::universal_dir(&dir, 2)
        .join("manifest.ucpt")
        .is_file());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_rejects_out_of_range_rank() {
    let dir = make_checkpoint("bad_rank");
    let dir_s = dir.to_string_lossy().to_string();
    commands::convert(&flags(&["--dir", &dir_s])).unwrap();
    let err = commands::plan(&flags(&[
        "--dir", &dir_s, "--step", "2", "--tp", "1", "--pp", "1", "--dp", "1", "--rank", "5",
    ]))
    .unwrap_err();
    assert!(err.contains("out of range"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_dir_and_step_errors() {
    assert!(commands::convert(&flags(&[])).is_err());
    let empty = scratch("empty");
    let err = commands::convert(&flags(&["--dir", &empty.to_string_lossy()])).unwrap_err();
    assert!(err.contains("latest"), "{err}");
    std::fs::remove_dir_all(&empty).ok();
}

#[test]
fn verify_passes_then_detects_corruption() {
    let dir = make_checkpoint("verify");
    let dir_s = dir.to_string_lossy().to_string();
    commands::convert(&flags(&["--dir", &dir_s])).unwrap();
    commands::verify(&flags(&["--dir", &dir_s, "--step", "2"])).unwrap();

    // Flip a byte in one optimizer file.
    let victim = layout::optim_states_path(&layout::step_dir(&dir, 2), 0, 0, 0);
    let mut bytes = std::fs::read(&victim).unwrap();
    let n = bytes.len();
    bytes[n - 8] ^= 0x20;
    std::fs::write(&victim, bytes).unwrap();
    let err = commands::verify(&flags(&["--dir", &dir_s, "--step", "2"])).unwrap_err();
    assert!(err.contains("failed verification"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_clean_tree_succeeds_and_corrupt_tree_fails() {
    let dir = make_checkpoint("fsck");
    let dir_s = dir.to_string_lossy().to_string();
    // Clean tree: Ok (exit 0 through main's dispatch).
    commands::fsck(&flags(&["--dir", &dir_s])).unwrap();
    commands::fsck(&flags(&["--dir", &dir_s, "--json"])).unwrap();

    // Corrupt one file: Err (non-zero exit), tree quarantined.
    let victim = layout::optim_states_path(&layout::step_dir(&dir, 2), 1, 0, 0);
    let mut bytes = std::fs::read(&victim).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();
    let err = commands::fsck(&flags(&["--dir", &dir_s])).unwrap_err();
    assert!(err.contains("problem"), "{err}");
    assert!(dir.join("global_step2.corrupt").is_dir());
    assert!(!layout::step_dir(&dir, 2).exists());

    // The quarantine fixed the tree: a second pass is clean.
    commands::fsck(&flags(&["--dir", &dir_s])).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_no_repair_leaves_tree_alone() {
    let dir = make_checkpoint("fsck_norepair");
    let dir_s = dir.to_string_lossy().to_string();
    let victim = layout::model_states_path(&layout::step_dir(&dir, 2), 0, 0);
    let mut bytes = std::fs::read(&victim).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();
    let err = commands::fsck(&flags(&["--dir", &dir_s, "--no-repair"])).unwrap_err();
    assert!(err.contains("problem"), "{err}");
    assert!(layout::step_dir(&dir, 2).is_dir());
    assert!(!dir.join("global_step2.corrupt").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prune_respects_policy() {
    let dir = scratch("prune");
    let dir_s = dir.to_string_lossy().to_string();
    // Three checkpoints at steps 1, 2, 3.
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
        34,
    );
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: 3,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(1),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();
    assert_eq!(
        ucp_repro::storage::retention::list_steps(&dir),
        vec![1, 2, 3]
    );
    commands::prune(&flags(&["--dir", &dir_s, "--keep-last", "1"])).unwrap();
    assert_eq!(ucp_repro::storage::retention::list_steps(&dir), vec![3]);
    // Missing policy flag errors.
    assert!(commands::prune(&flags(&["--dir", &dir_s])).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_detects_equal_and_different_checkpoints() {
    // Two identically-seeded runs convert to identical universal trees; a
    // differently-seeded run differs.
    let mk = |name: &str, seed: u64| {
        let dir = scratch(name);
        let cfg = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            seed,
        );
        train_run(&TrainPlan {
            config: cfg,
            until_iteration: 2,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(2),
            checkpoint_dir: Some(dir.clone()),
        })
        .unwrap();
        commands::convert(&flags(&["--dir", &dir.to_string_lossy()])).unwrap();
        dir
    };
    let a = mk("diff_a", 70);
    let b = mk("diff_b", 70);
    let c = mk("diff_c", 71);
    let ua = layout::universal_dir(&a, 2).to_string_lossy().to_string();
    let ub = layout::universal_dir(&b, 2).to_string_lossy().to_string();
    let uc = layout::universal_dir(&c, 2).to_string_lossy().to_string();
    commands::diff(&flags(&["--dir", &ua, "--other", &ub])).unwrap();
    let err = commands::diff(&flags(&["--dir", &ua, "--other", &uc])).unwrap_err();
    assert!(err.contains("differences"), "{err}");
    // A huge tolerance swallows the differences.
    commands::diff(&flags(&[
        "--dir",
        &ua,
        "--other",
        &uc,
        "--tolerance",
        "1000",
    ]))
    .unwrap();
    for d in [a, b, c] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn train_overlapped_with_hot_replicas_publishes_universal() {
    // The hot tier rides the same save step as overlapped born-universal
    // writers: the supervised run still publishes `latest_universal`.
    let dir = scratch("train_overlapped_hot");
    commands::train(&flags(&[
        "--dir",
        &dir.to_string_lossy(),
        "--model",
        "gpt3-tiny",
        "--tp",
        "1",
        "--pp",
        "1",
        "--dp",
        "2",
        "--iters",
        "4",
        "--save-every",
        "2",
        "--overlapped",
        "--hot-replicas",
        "1",
    ]))
    .unwrap();
    assert_eq!(layout::read_latest(&dir), Some(4));
    assert_eq!(layout::read_latest_universal(&dir), Some(4));
    std::fs::remove_dir_all(&dir).ok();
}
