//! The benchmark's derivations: percentiles with their sample counts,
//! wall-clock interval unions, residuals, the journal publish-lag join and
//! failure accounting. Everything here is pure, so it is unit-tested.

use std::collections::BTreeMap;

use ucp_storage::{JournalEvent, JournalRecord};

/// A set of timing samples in one unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Number of samples.
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// Linear-interpolated percentile (`q` in 0..=1), `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
    }

    /// The median.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// Each sample `x` as `k / x` (durations to rates).
    pub fn recip(&self, k: f64) -> Samples {
        Samples(self.0.iter().map(|x| k / x).collect())
    }
}

/// Total length of the union of half-open `[start, end)` intervals,
/// clipped to `window`. Overlapping spans (several threads, nested
/// phases) count once, so the result never exceeds the window.
pub fn union_within(intervals: &[(u64, u64)], window: (u64, u64)) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Wall time of `window` that no layer interval covers.
pub fn residual(layers: &[(u64, u64)], window: (u64, u64)) -> u64 {
    (window.1 - window.0) - union_within(layers, window)
}

/// Per-step publish lag from the run journal: milliseconds from a step's
/// first `save_started` record to its `universal_published` record.
/// Returns the lags in step order and the started steps that were never
/// published.
pub fn publish_lags(records: &[JournalRecord]) -> (BTreeMap<u64, f64>, Vec<u64>) {
    let mut started: BTreeMap<u64, u64> = BTreeMap::new();
    let mut published: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        match r.event {
            JournalEvent::SaveStarted { step } => {
                started.entry(step).or_insert(r.t_ms);
            }
            JournalEvent::UniversalPublished { step } => {
                published.entry(step).or_insert(r.t_ms);
            }
            _ => {}
        }
    }
    let mut lags = BTreeMap::new();
    let mut missing = Vec::new();
    for (step, t0) in started {
        match published.get(&step) {
            Some(&t1) => {
                lags.insert(step, t1.saturating_sub(t0) as f64);
            }
            None => missing.push(step),
        }
    }
    (lags, missing)
}

/// Milliseconds between consecutive steps' first `save_started` records:
/// one training iteration plus its save stall each, at steady state (the
/// run's start-up and final drain fall outside every interval).
pub fn step_cycles(records: &[JournalRecord]) -> Vec<f64> {
    let mut started: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if let JournalEvent::SaveStarted { step } = r.event {
            started.entry(step).or_insert(r.t_ms);
        }
    }
    let times: Vec<(u64, u64)> = started.into_iter().collect();
    times
        .windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1)
        .map(|w| w[1].1.saturating_sub(w[0].1) as f64)
        .collect()
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
}

impl Ops {
    /// Record `n` attempted operations of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// Merge another tally.
    pub fn merge(&mut self, other: Ops) {
        self.add(other.attempted, other.failed);
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ms: u64, event: JournalEvent) -> JournalRecord {
        JournalRecord { t_ms, event }
    }

    #[test]
    fn percentiles_interpolate_and_count_samples() {
        let s = Samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n(), 4);
        assert_eq!(s.p50(), Some(2.5));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(1.0), Some(4.0));
        assert_eq!(s.percentile(0.75), Some(3.25));
        assert_eq!(Samples(vec![7.0]).p50(), Some(7.0));
        assert_eq!(Samples::default().p50(), None);
        assert_eq!(Samples::default().n(), 0);
        assert_eq!(
            Samples(vec![500.0, 250.0]).recip(1e3),
            Samples(vec![2.0, 4.0])
        );
    }

    #[test]
    fn union_counts_overlap_once_and_clips_to_the_window() {
        // Two threads overlap on [5, 10); a nested span adds nothing.
        let spans = [(0, 10), (5, 15), (6, 7), (20, 30)];
        assert_eq!(union_within(&spans, (0, 100)), 25);
        // Clipped: only [8, 15) and [20, 22) fall in the window.
        assert_eq!(union_within(&spans, (8, 22)), 9);
        // Summed spans would be 26 > the 14-long window; the union never is.
        assert!(union_within(&spans, (8, 22)) <= 14);
        assert_eq!(union_within(&[], (0, 10)), 0);
        // Touching intervals merge without a gap.
        assert_eq!(union_within(&[(0, 5), (5, 9)], (0, 10)), 9);
    }

    #[test]
    fn residual_is_the_uncovered_part_of_the_window() {
        let layers = [(10, 40), (30, 60), (80, 90)];
        assert_eq!(residual(&layers, (0, 100)), 100 - 60);
        assert_eq!(residual(&[], (5, 9)), 4);
        assert_eq!(residual(&[(0, 100)], (10, 20)), 0);
    }

    #[test]
    fn publish_lag_joins_start_to_publish_per_step() {
        let records = vec![
            rec(1000, JournalEvent::SaveStarted { step: 1 }),
            rec(1005, JournalEvent::NativePersisted { step: 1 }),
            rec(1400, JournalEvent::SaveStarted { step: 2 }),
            rec(1450, JournalEvent::UniversalPublished { step: 1 }),
            rec(1900, JournalEvent::UniversalPublished { step: 2 }),
            rec(2000, JournalEvent::SaveStarted { step: 3 }),
            // A replayed step keeps its first start and first publish.
            rec(2100, JournalEvent::SaveStarted { step: 2 }),
            rec(2200, JournalEvent::UniversalPublished { step: 2 }),
        ];
        let (lags, missing) = publish_lags(&records);
        assert_eq!(lags.get(&1), Some(&450.0));
        assert_eq!(lags.get(&2), Some(&500.0));
        assert_eq!(lags.len(), 2);
        assert_eq!(missing, vec![3]);
    }

    #[test]
    fn step_cycles_are_gaps_between_consecutive_save_starts() {
        let records = vec![
            rec(1000, JournalEvent::SaveStarted { step: 1 }),
            rec(1100, JournalEvent::UniversalPublished { step: 1 }),
            rec(1480, JournalEvent::SaveStarted { step: 2 }),
            rec(2000, JournalEvent::SaveStarted { step: 3 }),
            // Step 4 is missing: no interval spans the gap.
            rec(3100, JournalEvent::SaveStarted { step: 5 }),
            rec(3600, JournalEvent::SaveStarted { step: 6 }),
        ];
        assert_eq!(step_cycles(&records), vec![480.0, 520.0, 500.0]);
        assert!(step_cycles(&records[..1]).is_empty());
    }

    #[test]
    fn failed_fraction_is_failed_over_attempted() {
        let mut ops = Ops::default();
        assert_eq!(ops.failed_frac(), 0.0);
        ops.add(24, 0);
        ops.add(8, 2);
        let mut other = Ops::default();
        other.add(8, 8);
        ops.merge(other);
        assert_eq!(
            ops,
            Ops {
                attempted: 40,
                failed: 10
            }
        );
        assert_eq!(ops.failed_frac(), 0.25);
        // A check can fail at most every operation it covers.
        let mut capped = Ops::default();
        capped.add(3, 5);
        assert_eq!(capped.failed, 3);
    }
}
