use std::time::{Duration, Instant};

use crate::pattern::Pattern;

/// Shared configuration of a detection run.
#[derive(Debug, Clone)]
pub struct DetectConfig {
    /// Size threshold `τs`: only groups with `s_D(p) ≥ τs` are reported.
    pub tau_s: usize,
    /// Smallest `k` of the range (inclusive).
    pub k_min: usize,
    /// Largest `k` of the range (inclusive).
    pub k_max: usize,
    /// Optional wall-clock budget; the search aborts (marking the output
    /// [`SearchStats::timed_out`]) when exceeded. Mirrors the 10-minute
    /// timeout of the paper’s experiments.
    pub deadline: Option<Duration>,
}

impl DetectConfig {
    /// Creates a config with no deadline.
    ///
    /// # Panics
    /// Panics if `k_min == 0` or `k_min > k_max`.
    pub fn new(tau_s: usize, k_min: usize, k_max: usize) -> Self {
        assert!(k_min >= 1, "k_min must be at least 1");
        assert!(k_min <= k_max, "k_min must not exceed k_max");
        DetectConfig {
            tau_s,
            k_min,
            k_max,
            deadline: None,
        }
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Number of `k` values in the range.
    pub fn range_len(&self) -> usize {
        self.k_max - self.k_min + 1
    }
}

/// Instrumentation counters for one detection run.
///
/// `patterns_examined` is the metric the paper uses to quantify the gain of
/// the optimized algorithms over the baseline (§VI-B: “we compared the
/// number of patterns examined during the search”).
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Pattern evaluations: every search-tree child decided when its
    /// parent is first expanded (counted in a batched pass, or pruned
    /// without a count because a one-term subset is pruned), plus every
    /// stored node brought back into a run by a prefix recount.
    pub nodes_evaluated: u64,
    /// O(1) count updates performed by the incremental walk.
    pub nodes_touched: u64,
    /// `k̃`-schedule entries popped and validated (proportional only).
    pub schedule_pops: u64,
    /// Full top-down searches: one per optimized engine run (its build at
    /// `k_min`; a bound step reclassifies the stored nodes instead), none
    /// for a monitor replay that seeks a checkpoint, and one per `k` for
    /// the baseline.
    pub full_searches: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Whether the deadline aborted the run (results are then truncated to
    /// the `k` values completed in time).
    pub timed_out: bool,
}

impl SearchStats {
    /// Total patterns examined: the unit of work the paper reports.
    pub fn patterns_examined(&self) -> u64 {
        self.nodes_evaluated + self.nodes_touched + self.schedule_pops
    }

    /// Folds the counters of another (concurrent or sequential) sub-search
    /// into this one. Counters add; `elapsed` takes the max (parallel
    /// workers overlap in wall-clock time — sequential phases that want a
    /// sum overwrite it afterwards); `timed_out` is sticky.
    pub fn merge(&mut self, part: &SearchStats) {
        self.nodes_evaluated += part.nodes_evaluated;
        self.nodes_touched += part.nodes_touched;
        self.schedule_pops += part.schedule_pops;
        self.full_searches += part.full_searches;
        self.elapsed = self.elapsed.max(part.elapsed);
        self.timed_out |= part.timed_out;
    }
}

/// Work counters of the checkpointed replay driver (`incremental::replay`,
/// run once per engine direction): how often a delta re-audit could seek
/// to a stored engine checkpoint versus paying a from-scratch build, and
/// how many `k` positions the replay actually computed — the quantity
/// segmented replay minimizes.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplayCounters {
    /// Segment starts that resumed from a stored checkpoint.
    pub seeks: u64,
    /// Delta runs (and initial builds) that had no usable checkpoint and
    /// paid a from-scratch engine build.
    pub cold_builds: u64,
    /// Seek checkpoints repaired in place from a top-`k` set diff
    /// because the edit hull had swallowed them.
    pub repairs: u64,
    /// Every `k` position the replay driver computed — cold builds,
    /// catch-up steps from a seek point to a segment start, and in-segment
    /// advances. Set against the edit hull's `k` span, it measures the
    /// `k` work segmentation saves.
    pub replayed_steps: u64,
    /// Node activations served by the stored `s_D` plus a truncated
    /// prefix-only recount instead of a full fused `counts(p, k)` scan.
    pub prefix_recounts: u64,
    /// Replay segments driven (per engine direction): one per merged run
    /// of changed `k` values.
    pub segments: u64,
}

/// The most general biased patterns at one value of `k`, in canonical
/// order (sorted by terms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KResult {
    /// The `k` this result refers to.
    pub k: usize,
    /// Most general patterns with biased representation in the top-`k`.
    pub patterns: Vec<Pattern>,
}

/// Full output of a detection run: one [`KResult`] per `k` in
/// `[k_min, k_max]` (possibly truncated on timeout), plus instrumentation.
#[derive(Debug, Clone)]
pub struct DetectionOutput {
    /// Per-`k` result sets, ordered by `k`.
    pub per_k: Vec<KResult>,
    /// Instrumentation counters.
    pub stats: SearchStats,
}

impl DetectionOutput {
    /// The result set for a specific `k`, if computed.
    pub fn at_k(&self, k: usize) -> Option<&KResult> {
        self.per_k.iter().find(|r| r.k == k)
    }
}

/// Cooperative deadline checker: polls the clock every `CHECK_EVERY` ticks
/// so the hot loops pay one branch, not one syscall, per node.
#[derive(Debug)]
pub(crate) struct DeadlineGuard {
    start: Instant,
    deadline: Option<Duration>,
    ticks: u32,
    expired: bool,
}

impl DeadlineGuard {
    const CHECK_EVERY: u32 = 1024;

    pub(crate) fn new(deadline: Option<Duration>) -> Self {
        DeadlineGuard {
            start: Instant::now(),
            deadline,
            ticks: 0,
            expired: false,
        }
    }

    /// Returns `true` once the deadline has passed. Latches.
    ///
    /// The clock is polled on the **first** call and then every
    /// `CHECK_EVERY` ticks: searches that finish in under a batch of ticks
    /// would otherwise never observe an already-expired (e.g. zero)
    /// deadline, making truncation behavior depend on problem size.
    #[inline]
    pub(crate) fn expired(&mut self) -> bool {
        if self.expired {
            return true;
        }
        let Some(d) = self.deadline else { return false };
        if self.ticks == 0 || self.ticks >= Self::CHECK_EVERY {
            self.ticks = 0;
            if self.start.elapsed() > d {
                self.expired = true;
            }
        }
        self.ticks += 1;
        self.expired
    }

    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let c = DetectConfig::new(5, 10, 49);
        assert_eq!(c.range_len(), 40);
    }

    #[test]
    #[should_panic(expected = "k_min must be at least 1")]
    fn zero_kmin_rejected() {
        DetectConfig::new(5, 0, 3);
    }

    #[test]
    #[should_panic(expected = "k_min must not exceed k_max")]
    fn inverted_range_rejected() {
        DetectConfig::new(5, 5, 3);
    }

    #[test]
    fn stats_sum_examined() {
        let s = SearchStats {
            nodes_evaluated: 10,
            nodes_touched: 5,
            schedule_pops: 2,
            ..SearchStats::default()
        };
        assert_eq!(s.patterns_examined(), 17);
    }

    #[test]
    fn deadline_guard_without_deadline_never_expires() {
        let mut g = DeadlineGuard::new(None);
        for _ in 0..10_000 {
            assert!(!g.expired());
        }
    }

    #[test]
    fn deadline_guard_expires() {
        let mut g = DeadlineGuard::new(Some(Duration::from_nanos(1)));
        std::thread::sleep(Duration::from_millis(2));
        let mut expired = false;
        for _ in 0..5000 {
            if g.expired() {
                expired = true;
                break;
            }
        }
        assert!(expired);
        assert!(g.expired()); // latched
    }

    #[test]
    fn detection_output_lookup() {
        let out = DetectionOutput {
            per_k: vec![
                KResult {
                    k: 4,
                    patterns: vec![Pattern::single(0, 1)],
                },
                KResult {
                    k: 5,
                    patterns: vec![],
                },
            ],
            stats: SearchStats::default(),
        };
        assert_eq!(out.at_k(4).unwrap().patterns.len(), 1);
        assert!(out.at_k(6).is_none());
    }
}
