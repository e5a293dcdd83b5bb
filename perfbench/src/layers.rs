//! Per-layer metrics of a traced run: wall-clock unions of the program's
//! own trace spans inside each phase window, the recorder's counters and
//! busy sums, and the benchmark's own timings and `/proc` deltas.

use ucp_telemetry::trace::{EventKind, TraceCat, TraceSession};
use ucp_telemetry::Report;

use crate::phases::{total_secs, RecoverOut, Reference, ReshardOut, SaveOut, Window};
use crate::stats::{residual, union_within, Samples};

/// One closed span on the merged timeline.
#[derive(Debug, Clone)]
struct Interval {
    cat: TraceCat,
    name: String,
    start: u64,
    end: u64,
}

/// The spans and collective waits of a trace session, flattened.
#[derive(Debug, Default)]
pub struct Timeline {
    spans: Vec<Interval>,
    /// Collective calls as `(enter, ready, exit)`.
    collectives: Vec<(u64, u64, u64)>,
}

impl Timeline {
    /// Pair each thread's `Begin`/`End` events (LIFO per thread).
    pub fn from_session(session: &TraceSession) -> Timeline {
        let mut t = Timeline::default();
        for track in &session.tracks {
            let mut open: Vec<(TraceCat, &str, u64)> = Vec::new();
            for ev in &track.events {
                match &ev.kind {
                    EventKind::Begin { cat, name } => open.push((*cat, name, ev.ts_ns)),
                    EventKind::End { cat, name } => {
                        if let Some(i) = open.iter().rposition(|(c, n, _)| c == cat && n == name) {
                            let (cat, name, start) = open.remove(i);
                            t.spans.push(Interval {
                                cat,
                                name: name.to_string(),
                                start,
                                end: ev.ts_ns,
                            });
                        }
                    }
                    EventKind::Collective {
                        ready_ns, exit_ns, ..
                    } => t.collectives.push((ev.ts_ns, *ready_ns, *exit_ns)),
                    _ => {}
                }
            }
        }
        t
    }

    /// Wall-clock union (s) of the `cat`/`name` spans inside the
    /// (disjoint) `windows`.
    pub fn union_s(&self, cat: TraceCat, name: &str, windows: &[Window]) -> f64 {
        let iv: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.cat == cat && s.name == name)
            .map(|s| (s.start, s.end))
            .collect();
        within(&iv, windows, union_within)
    }

    /// Wall-clock union (s) of collective peer waits inside `windows`.
    pub fn collective_wait_s(&self, windows: &[Window]) -> f64 {
        let iv: Vec<(u64, u64)> = self.collectives.iter().map(|&(e, r, _)| (e, r)).collect();
        within(&iv, windows, union_within)
    }

    /// Seconds of `windows` no program layer covers. Layers are every
    /// program span and collective; the benchmark's own `bench.*` spans
    /// and the supervisor's whole-segment span are containers, not layers.
    pub fn residual_s(&self, windows: &[Window]) -> f64 {
        let mut iv: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| !s.name.starts_with("bench.") && s.name != "segment")
            .map(|s| (s.start, s.end))
            .collect();
        iv.extend(self.collectives.iter().map(|&(e, _, x)| (e, x)));
        within(&iv, windows, residual)
    }
}

/// An interval measure over one window, in ns.
type Measure = fn(&[(u64, u64)], (u64, u64)) -> u64;

/// Apply an interval measure per window and sum, in seconds.
fn within(iv: &[(u64, u64)], windows: &[Window], f: Measure) -> f64 {
    windows.iter().map(|w| f(iv, w.pair())).sum::<u64>() as f64 / 1e9
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn span_total(report: &Report, path: &str) -> f64 {
    report.span(path).map_or(0.0, |s| s.total_secs)
}

fn span_mean_ms(report: &Report, path: &str) -> f64 {
    report
        .span(path)
        .filter(|s| s.count > 0)
        .map_or(0.0, |s| 1e3 * s.total_secs / s.count as f64)
}

fn counter(report: &Report, name: &str) -> f64 {
    report.counter(name).unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything a traced run measured.
pub struct Traced<'a> {
    /// The merged trace of the traced pass.
    pub timeline: &'a Timeline,
    /// Save phase of the traced pass.
    pub save: &'a SaveOut,
    /// Reshard phase of the traced pass.
    pub reshard: &'a ReshardOut,
    /// Recover phase of the traced pass.
    pub recover: &'a RecoverOut,
    /// The checkpoint-free reference run (untraced).
    pub reference: &'a Reference,
    /// Summed phase wall time of an untraced round (the median round).
    pub untraced_s: f64,
}

/// Compute every per-layer metric.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let tl = t.timeline;
    let (save, reshard, recover) = (t.save, t.reshard, t.recover);
    let sw = &[save.window][..];
    let rw = &reshard.windows[..];
    let cw = &[recover.window][..];
    let saves = save.iters.max(1) as f64;
    let passes = reshard.convert_s.n().max(1) as f64;
    let disk_restarts = recover.disk_ms.n().max(1) as f64;
    let restarts = (recover.peer_ms.n() + recover.disk_ms.n()).max(1) as f64;
    let (sr, rr, cr) = (&save.report, &reshard.report, &recover.report);
    let block_us = |q: f64| {
        sr.hist("fleet/rank/save_block_us")
            .map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
    };
    let all_reports = [sr, rr, cr];
    let summed = |f: &dyn Fn(&Report) -> f64| all_reports.iter().map(|r| f(r)).sum::<f64>();
    let crc_bytes = summed(&|r| counter(r, "storage/crc_bytes"));
    let crc_ns = summed(&|r| r.hist("storage/crc_ns").map_or(0.0, |h| h.sum as f64));
    let traced_s = save.window.secs() + total_secs(rw) + recover.window.secs();

    vec![
        ("trainer.compute_s_per_iter", save.compute_secs / saves, "s"),
        ("trainer.plain_iters_per_s", t.reference.iters_per_s, "it/s"),
        ("trainer.save_stall_ms", 1e3 * save.save_secs / saves, "ms"),
        ("trainer.save_block_ms_p50", block_us(0.5), "ms"),
        ("trainer.save_block_ms_p75", block_us(0.75), "ms"),
        (
            "trainer.snapshot_ms",
            span_mean_ms(sr, "save/snapshot"),
            "ms",
        ),
        ("trainer.drain_ms", span_mean_ms(sr, "save/drain"), "ms"),
        (
            "trainer.pool_wait_ms",
            sr.hist("save/snapshot_pool_wait_us")
                .map_or(0.0, |h| h.sum as f64 / 1e3 / saves),
            "ms",
        ),
        (
            "pipeline.exchange_s",
            tl.union_s(TraceCat::Checkpoint, "exchange", sw) / saves,
            "s",
        ),
        (
            "pipeline.assemble_s",
            tl.union_s(TraceCat::Checkpoint, "assemble", sw) / saves,
            "s",
        ),
        (
            "pipeline.atoms_s",
            tl.union_s(TraceCat::Checkpoint, "atoms", sw) / saves,
            "s",
        ),
        (
            "pipeline.manifest_s",
            tl.union_s(TraceCat::Checkpoint, "manifest", sw) / saves,
            "s",
        ),
        (
            "pipeline.publish_s",
            tl.union_s(TraceCat::Checkpoint, "publish_universal", sw) / saves,
            "s",
        ),
        (
            "pipeline.exchange_bytes_per_save",
            counter(sr, "save/exchange_bytes") / saves,
            "B",
        ),
        (
            "pipeline.atoms_written_per_save",
            counter(sr, "save/atoms_written") / saves,
            "count",
        ),
        (
            "collectives.wait_s",
            tl.collective_wait_s(&[save.window, recover.window]),
            "s",
        ),
        (
            "core.convert.extract_s",
            tl.union_s(TraceCat::Convert, "extract", rw) / passes,
            "s",
        ),
        (
            "core.convert.union_s",
            tl.union_s(TraceCat::Convert, "union_flat", rw) / passes,
            "s",
        ),
        (
            "core.convert.atom_write_busy_s",
            span_total(rr, "convert/atom_write") / passes,
            "s",
        ),
        (
            "core.convert.files_written",
            reshard.universal_files as f64,
            "count",
        ),
        ("core.load.plan_s", p50(&reshard.plan_s), "s"),
        ("core.load.rank_s_p50", p50(&reshard.rank_load_s), "s"),
        (
            "core.load.read_amp",
            ratio(
                counter(rr, "load/bytes_read"),
                counter(rr, "load/bytes_needed"),
            ),
            "ratio",
        ),
        (
            "core.load.cache_hit_ratio",
            ratio(
                counter(rr, "load/cache_hits"),
                counter(rr, "load/cache_hits") + counter(rr, "load/cache_misses"),
            ),
            "ratio",
        ),
        (
            "supervisor.recover_ms",
            1e3 * tl.union_s(TraceCat::Recovery, "recover", cw) / restarts,
            "ms",
        ),
        (
            "supervisor.recover_convert_ms",
            1e3 * tl.union_s(TraceCat::Recovery, "convert", cw) / disk_restarts,
            "ms",
        ),
        (
            "hot.replicated_bytes_per_save",
            p50(&recover.replicated_bytes),
            "B",
        ),
        (
            "storage.write_busy_s",
            summed(&|r| span_total(r, "storage/write")),
            "s",
        ),
        (
            "storage.fsync_busy_s",
            summed(&|r| span_total(r, "storage/fsync")),
            "s",
        ),
        (
            "storage.files_per_save",
            save.tree_files as f64 / saves,
            "count",
        ),
        (
            "storage.bytes_per_save",
            save.tree_bytes as f64 / saves,
            "B",
        ),
        (
            "storage.dev_write_bytes_per_save",
            save.proc.write_bytes as f64 / saves,
            "B",
        ),
        (
            "storage.opens_per_load",
            ratio(counter(rr, "storage/open"), reshard.loads as f64),
            "count",
        ),
        (
            "storage.range_reads_per_load",
            ratio(counter(rr, "storage/range_reads"), reshard.loads as f64),
            "count",
        ),
        ("storage.crc_gbps", ratio(crc_bytes, crc_ns), "GB/s"),
        ("process.cpu_s_per_iter", save.proc.cpu_s / saves, "s"),
        ("save.residual_s", tl.residual_s(sw), "s"),
        ("reshard.residual_s", tl.residual_s(rw), "s"),
        ("recover.residual_s", tl.residual_s(cw), "s"),
        (
            "telemetry.overhead_frac",
            traced_s / t.untraced_s - 1.0,
            "ratio",
        ),
    ]
}

fn p50(s: &Samples) -> f64 {
    s.p50().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_telemetry::trace::Tracer;

    #[test]
    fn timeline_pairs_nested_spans_and_unions_across_threads() {
        let tracer = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _outer = tracer.span(TraceCat::Convert, "convert");
                    let _inner = tracer.span(TraceCat::Convert, "extract");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                });
            }
        });
        let tl = Timeline::from_session(&tracer.take_session());
        assert_eq!(tl.spans.len(), 4);
        let all = [Window {
            start: 0,
            end: u64::MAX,
        }];
        let extract = tl.union_s(TraceCat::Convert, "extract", &all);
        let summed: f64 = tl
            .spans
            .iter()
            .filter(|s| s.name == "extract")
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .sum();
        // Two threads ran concurrently: the union is below the sum.
        assert!(extract >= 0.02 && extract < summed, "{extract} vs {summed}");
        let start = tl.spans.iter().map(|s| s.start).min().unwrap();
        let end = tl.spans.iter().map(|s| s.end).max().unwrap();
        assert_eq!(tl.residual_s(&[Window { start, end }]), 0.0);
        let wider = Window {
            start,
            end: end + 1_000_000,
        };
        assert!(tl.residual_s(&[wider]) > 0.0);
    }
}
