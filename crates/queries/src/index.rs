//! Per-shard posting index: region → visit postings sorted by time.
//!
//! A *visit* is one `Stay` m-semantics triple. The index inverts a shard's
//! objects into one posting list per region: raw postings sorted by
//! (start, end, object), each list sized exactly to its length. A query
//! with interval `qt` binary-searches the run of postings that can overlap
//! it instead of touching every record in the shard, and a seal merges its
//! new postings into the lists they touch in one linear pass each.

use ism_codec::ordered_bits;
use ism_indoor::RegionId;
use ism_mobility::{MobilityEvent, MobilitySemantics, TimePeriod};
use std::collections::HashMap;

use crate::topk::QuerySet;

/// One visit posting: the visiting object and the stay interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Posting {
    pub object: u64,
    pub period: TimePeriod,
}

/// The list order: (start, end, object), times in [`ordered_bits`] order.
/// That is `f64::total_cmp` order, which refines numeric order (`-0.0`
/// sorts before `0.0`), and it is total, so equal keys are equal postings.
fn order_key(p: &Posting) -> (u64, u64, u64) {
    (
        ordered_bits(p.period.start),
        ordered_bits(p.period.end),
        p.object,
    )
}

/// How far past its start `p` reaches: its duration, rounded up one step
/// where `start + duration` would fall short of `end` in floating point.
fn reach(p: &Posting) -> f64 {
    let d = p.period.duration();
    if p.period.start + d >= p.period.end {
        d
    } else {
        d.next_up()
    }
}

/// One region's visit postings, sorted by [`order_key`] and exactly sized
/// (`capacity == len`).
///
/// `max_duration` bounds every posting's [`reach`], so `start +
/// max_duration ≥ end` holds for each of them. A visit overlapping `qt`
/// ends at or after `qt.start` and starts at or before `qt.end`, so it lies
/// in the run of postings whose `start + max_duration` is not below
/// `qt.start` and whose `start` is not above `qt.end`. Both bounds are
/// monotone in `start`, so two binary searches find that run, and the
/// per-posting overlap filter rejects the rest of it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegionPostings {
    postings: Vec<Posting>,
    max_duration: f64,
}

impl RegionPostings {
    /// Sorts `fresh` and merges it into the list. The stable sort finds the
    /// two sorted runs and merges them in one linear pass, and the list
    /// grows by exactly `fresh.len()`.
    fn merge(&mut self, mut fresh: Vec<Posting>) {
        fresh.sort_unstable_by_key(order_key);
        self.max_duration = fresh.iter().map(reach).fold(self.max_duration, f64::max);
        self.postings.reserve_exact(fresh.len());
        self.postings.extend(fresh);
        self.postings.sort_by_key(order_key);
    }

    /// The visits overlapping `qt`, in list order.
    fn overlapping<'a>(&'a self, qt: &'a TimePeriod) -> impl Iterator<Item = &'a Posting> {
        let lo = self
            .postings
            .partition_point(|p| p.period.start + self.max_duration < qt.start);
        let hi = self.postings.partition_point(|p| p.period.start <= qt.end);
        let candidates: &[Posting] = self.postings.get(lo..hi).unwrap_or_default();
        candidates.iter().filter(|p| p.period.overlaps(qt))
    }
}

/// One shard's region → postings index.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardIndex {
    regions: HashMap<RegionId, RegionPostings>,
    num_postings: usize,
}

impl ShardIndex {
    /// Merges the stays of `(object, m-semantics)` entries into the index
    /// without touching regions that receive no new posting.
    ///
    /// Each touched region sorts its new postings and merges them into its
    /// list ([`RegionPostings::merge`]). The list order is total, so an
    /// index grown by any sequence of `append` calls is identical, posting
    /// for posting, to one filled by a single `append` of the concatenated
    /// entries — the incremental-maintenance contract the
    /// `incremental_oracle` property suite pins.
    pub fn append(&mut self, objects: &[(u64, Vec<MobilitySemantics>)]) {
        let mut fresh: HashMap<RegionId, Vec<Posting>> = HashMap::new();
        for (object, semantics) in objects {
            for ms in semantics {
                if ms.event == MobilityEvent::Stay {
                    fresh.entry(ms.region).or_default().push(Posting {
                        object: *object,
                        period: ms.period,
                    });
                    self.num_postings += 1;
                }
            }
        }
        for (region, postings) in fresh {
            self.regions.entry(region).or_default().merge(postings);
        }
    }

    /// Total visit postings in this shard.
    pub fn num_postings(&self) -> usize {
        self.num_postings
    }

    /// Bytes held by this shard's posting lists. The lists are exactly
    /// sized, so this is `size_of::<Posting>()` (24) bytes per posting.
    pub fn posting_bytes(&self) -> usize {
        self.regions
            .values()
            .map(|list| list.postings.capacity() * size_of::<Posting>())
            .sum()
    }

    /// Whether `region` has at least one indexed visit posting.
    pub fn has_region(&self, region: RegionId) -> bool {
        self.regions.contains_key(&region)
    }

    /// Per-region visit counts within `qt`, restricted to `query`; only
    /// regions with at least one qualifying visit appear.
    pub fn prq_counts(&self, query: &QuerySet, qt: &TimePeriod) -> Vec<(RegionId, usize)> {
        let mut counts = Vec::new();
        for region in query.iter() {
            if let Some(postings) = self.regions.get(&region) {
                let n = postings.overlapping(qt).count();
                if n > 0 {
                    counts.push((region, n));
                }
            }
        }
        counts
    }

    /// Every `(object, region)` visit within `qt` restricted to `query`,
    /// sorted and deduplicated — the per-shard half of TkFRPQ and the
    /// initial state of a standing TkFRPQ.
    pub fn distinct_visits(&self, query: &QuerySet, qt: &TimePeriod) -> Vec<(u64, RegionId)> {
        let mut visits: Vec<(u64, RegionId)> = Vec::new();
        for region in query.iter() {
            if let Some(postings) = self.regions.get(&region) {
                visits.extend(postings.overlapping(qt).map(|p| (p.object, region)));
            }
        }
        visits.sort_unstable();
        visits.dedup();
        visits
    }

    /// Per-pair object counts within `qt`, restricted to `query`: each
    /// object contributes 1 to every unordered pair of distinct regions it
    /// stayed at. Objects are hashed whole into a single shard, so per-shard
    /// pair counts sum to the global answer.
    pub fn frpq_counts(
        &self,
        query: &QuerySet,
        qt: &TimePeriod,
    ) -> Vec<((RegionId, RegionId), usize)> {
        let visits = self.distinct_visits(query, qt);
        let mut counts: HashMap<(RegionId, RegionId), usize> = HashMap::new();
        let mut i = 0;
        // analyzer: allow(lib-panic) `a < b < j <= visits.len()` by the loop bounds and while condition
        while i < visits.len() {
            let object = visits[i].0;
            let mut j = i;
            while j < visits.len() && visits[j].0 == object {
                j += 1;
            }
            // visits[i..j] holds this object's distinct regions, ascending.
            for a in i..j {
                for b in a + 1..j {
                    *counts.entry((visits[a].1, visits[b].1)).or_insert(0) += 1;
                }
            }
            i = j;
        }
        // Emit in pair order: the counts accumulate in a HashMap, whose
        // iteration order is arbitrary and must never leak into output.
        let mut counts: Vec<_> = counts.into_iter().collect();
        counts.sort_unstable_by_key(|&(pair, _)| pair);
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posting(object: u64, start: f64, end: f64) -> Posting {
        Posting {
            object,
            period: TimePeriod::new(start, end),
        }
    }

    fn list(postings: Vec<Posting>) -> RegionPostings {
        let mut list = RegionPostings::default();
        list.merge(postings);
        list
    }

    /// The index's count of visits overlapping `qt` must equal a linear
    /// scan of `postings`, for every window.
    fn assert_counts_match_scan(postings: &[Posting], windows: &[(f64, f64)]) {
        let index = list(postings.to_vec());
        for &(qs, qe) in windows {
            let qt = TimePeriod::new(qs, qe);
            let want = postings.iter().filter(|p| p.period.overlaps(&qt)).count();
            assert_eq!(index.overlapping(&qt).count(), want, "qt=[{qs},{qe}]");
        }
    }

    #[test]
    fn candidate_count_matches_linear_scan() {
        // 100 postings with varied durations; counts must equal a full scan
        // for windows inside, straddling, and outside the data span.
        let postings: Vec<Posting> = (0..100)
            .map(|i| {
                let start = (i as f64 * 7.3) % 500.0;
                posting(i as u64, start, start + 1.0 + (i % 13) as f64 * 4.0)
            })
            .collect();
        assert_counts_match_scan(
            &postings,
            &[
                (0.0, 500.0),
                (100.0, 120.0),
                (499.0, 600.0),
                (-50.0, -1.0),
                (600.0, 700.0),
                (250.0, 250.0),
            ],
        );
    }

    #[test]
    fn empty_and_single_posting_lists() {
        let empty = list(Vec::new());
        assert_eq!(empty.overlapping(&TimePeriod::new(0.0, 1.0)).count(), 0);
        assert_eq!(empty.postings.capacity(), 0);
        let one = list(vec![posting(3, 5.0, 9.0)]);
        assert_eq!(one.overlapping(&TimePeriod::new(0.0, 5.0)).count(), 1);
        assert_eq!(one.overlapping(&TimePeriod::new(9.0, 12.0)).count(), 1);
        assert_eq!(one.overlapping(&TimePeriod::new(9.1, 12.0)).count(), 0);
    }

    #[test]
    fn window_edge_postings_are_not_dropped() {
        // Regression: 32 stays starting at 0,10,…,310, the last lasting
        // exactly max_duration and ending exactly at qt.start. An earlier
        // candidate-range computation returned nothing for qt = [315, 400],
        // dropping a visit the inclusive overlap rule counts.
        let mut postings: Vec<Posting> = (0..32)
            .map(|i| posting(i, i as f64 * 10.0, i as f64 * 10.0 + 5.0))
            .collect();
        // Stays starting at -0.0 and 0.0 (the list order puts -0.0 first,
        // the binary searches compare numerically: both must agree), and a
        // zero-length stay on the edge of [315, 400].
        postings.extend([
            posting(40, -0.0, 3.0),
            posting(41, 0.0, 2.0),
            posting(42, -0.0, -0.0),
            posting(43, 315.0, 315.0),
        ]);
        assert_counts_match_scan(
            &postings,
            &[
                (315.0, 400.0),
                (310.0, 310.0),
                (-20.0, 0.0),
                (0.0, 0.0),
                (-0.0, -0.0),
                (-5.0, -0.0),
                (-0.0, 1.0),
                (400.0, 400.0),
            ],
        );
    }

    #[test]
    fn rounded_durations_do_not_drop_touching_visits() {
        // In f64, 1.1 - (1.1 - 0.1) > 0.1 and 0.2 + (0.9 - 0.2) < 0.9: a
        // candidate bound on the raw durations would exclude each visit
        // from the window that starts exactly at its end.
        assert_counts_match_scan(&[posting(0, 0.1, 1.1)], &[(1.1, 2.0)]);
        assert_counts_match_scan(&[posting(1, 0.2, 0.9)], &[(0.9, 2.0)]);
    }

    #[test]
    fn append_matches_from_scratch_build() {
        // Entries split across three appends must index exactly like one
        // append of the concatenation: the same regions, each holding the
        // same postings in the same order with the same time bits, the same
        // max_duration, and lists sized exactly to their length.
        let entry = |object: u64, region: u32, start: f64, stay: bool| {
            (
                object,
                vec![MobilitySemantics {
                    region: RegionId(region),
                    period: TimePeriod::new(start, start + 5.0),
                    event: if stay {
                        MobilityEvent::Stay
                    } else {
                        MobilityEvent::Pass
                    },
                }],
            )
        };
        let all: Vec<(u64, Vec<MobilitySemantics>)> = (0..60)
            .map(|i| entry(i, (i % 4) as u32, (i as f64 * 11.0) % 300.0, i % 5 != 0))
            .collect();
        let mut reference = ShardIndex::default();
        reference.append(&all);
        let mut grown = ShardIndex::default();
        grown.append(&all[..20]);
        grown.append(&all[20..35]);
        grown.append(&all[35..35]); // empty append is a no-op
        grown.append(&all[35..]);
        assert_eq!(grown.num_postings(), reference.num_postings());
        assert_eq!(grown.regions.len(), reference.regions.len());
        for (region, want) in &reference.regions {
            let got = &grown.regions[region];
            assert_eq!(
                got.max_duration.to_bits(),
                want.max_duration.to_bits(),
                "{region:?}"
            );
            assert_eq!(got.postings.len(), want.postings.len(), "{region:?}");
            for (g, w) in got.postings.iter().zip(&want.postings) {
                assert_eq!(g.object, w.object, "{region:?}");
                assert_eq!(g.period.start.to_bits(), w.period.start.to_bits());
                assert_eq!(g.period.end.to_bits(), w.period.end.to_bits());
            }
            for index in [got, want] {
                assert_eq!(index.postings.capacity(), index.postings.len());
            }
        }
        assert_eq!(grown.posting_bytes(), 24 * grown.num_postings());
    }

    #[test]
    fn identical_start_times_are_all_candidates() {
        let index = list((0..40).map(|i| posting(i, 10.0, 20.0)).collect());
        assert_eq!(index.overlapping(&TimePeriod::new(0.0, 100.0)).count(), 40);
        assert_eq!(index.overlapping(&TimePeriod::new(21.0, 100.0)).count(), 0);
    }

    #[test]
    fn has_region_tracks_stay_postings_only() {
        let entries = vec![(
            1u64,
            vec![
                MobilitySemantics {
                    region: RegionId(0),
                    period: TimePeriod::new(0.0, 5.0),
                    event: MobilityEvent::Stay,
                },
                MobilitySemantics {
                    region: RegionId(1),
                    period: TimePeriod::new(5.0, 6.0),
                    event: MobilityEvent::Pass,
                },
            ],
        )];
        let mut index = ShardIndex::default();
        index.append(&entries);
        assert!(index.has_region(RegionId(0)));
        assert!(!index.has_region(RegionId(1))); // pass-only region
        assert!(!index.has_region(RegionId(9)));
        assert_eq!(index.posting_bytes(), 24);
    }
}
