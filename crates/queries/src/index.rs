//! Per-shard posting index: region → time-bucketed, delta+varint-compressed
//! visit postings.
//!
//! A *visit* is one `Stay` m-semantics triple. The index inverts a shard's
//! objects into one posting list per region, sorted by visit start time,
//! overlaid with equi-width time buckets, and stored **compressed**: each
//! bucket is an independent delta chain (absolute first start, then
//! start-to-start deltas in order-preserving f64 bit space, ZigZag end
//! offsets, raw varint object ids — see [`crate::codec`]). A query with
//! interval `qt` decodes only the buckets that can contain an overlapping
//! visit instead of touching every record in the shard, and the whole list
//! costs a fraction of the 24 raw bytes per posting.

use ism_codec::{from_ordered_bits, ordered_bits, unzigzag, write_varint, zigzag};
use ism_indoor::RegionId;
use ism_mobility::{MobilityEvent, MobilitySemantics, TimePeriod};
use std::collections::HashMap;

use crate::codec::read_varint;
use crate::topk::QuerySet;

/// One visit posting: the visiting object and the stay interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Posting {
    pub object: u64,
    pub period: TimePeriod,
}

impl Posting {
    #[inline]
    fn overlaps(&self, qt: &TimePeriod) -> bool {
        self.period.overlaps(qt)
    }
}

/// Target number of postings per time bucket.
const POSTINGS_PER_BUCKET: usize = 16;

/// One region's visit postings: sorted by start time, bucketed, and
/// varint-compressed bucket by bucket.
///
/// `offsets` has one entry per bucket boundary: bucket `b` spans the
/// encoded bytes `offsets[b]..offsets[b + 1]`, each bucket restarting its
/// delta chain so it can be decoded without touching earlier buckets.
/// Bucket membership is `bucket_of(start)` — the same clamped floor
/// formula build and query both use, so the two sides can never disagree
/// about which bucket a boundary posting is in. A visit lasting at most
/// `max_duration` and overlapping `qt` must start in `[qt.start −
/// max_duration, qt.end]`, and `bucket_of` is monotone in `t`, so
/// sequentially decoding buckets `bucket_of(qt.start − max_duration) ..=
/// bucket_of(qt.end)` covers every qualifying visit; the per-posting
/// overlap filter rejects the rest.
#[derive(Debug, Clone)]
pub(crate) struct RegionPostings {
    data: Vec<u8>,
    num_postings: usize,
    max_duration: f64,
    t0: f64,
    width: f64,
    offsets: Vec<usize>,
}

impl RegionPostings {
    fn build(mut postings: Vec<Posting>) -> Self {
        // Total order (== numeric order on the finite times the stores
        // produce), so consecutive start-bit deltas are non-negative.
        postings.sort_unstable_by(|a, b| {
            (
                ordered_bits(a.period.start),
                ordered_bits(a.period.end),
                a.object,
            )
                .cmp(&(
                    ordered_bits(b.period.start),
                    ordered_bits(b.period.end),
                    b.object,
                ))
        });
        let max_duration = postings
            .iter()
            .map(|p| p.period.duration())
            .fold(0.0_f64, f64::max);
        let t0 = postings.first().map_or(0.0, |p| p.period.start);
        let t_last = postings.last().map_or(0.0, |p| p.period.start);
        let buckets = postings.len().div_ceil(POSTINGS_PER_BUCKET).max(1);
        let span = t_last - t0;
        // Degenerate spans (single start time) collapse to one bucket.
        let width = if span > 0.0 {
            span / buckets as f64
        } else {
            1.0
        };
        let mut this = RegionPostings {
            data: Vec::with_capacity(postings.len() * 8),
            num_postings: postings.len(),
            max_duration,
            t0,
            width,
            offsets: Vec::with_capacity(buckets + 1),
        };
        // offsets[b + 1] = first encoded byte past bucket b. bucket_of is
        // monotone over the sorted starts, so one forward walk suffices;
        // each bucket opens with an absolute start so decode can begin at
        // any bucket boundary.
        this.offsets.push(0);
        let mut i = 0;
        // analyzer: allow(lib-panic) `i < postings.len()` is checked by the while condition before every access
        for b in 0..buckets {
            let mut prev_start: Option<u64> = None;
            while i < postings.len() && this.bucket_of(postings[i].period.start, buckets) <= b {
                let p = &postings[i];
                let start_bits = ordered_bits(p.period.start);
                match prev_start {
                    None => write_varint(&mut this.data, start_bits),
                    Some(prev) => write_varint(&mut this.data, start_bits - prev),
                }
                let end_offset = ordered_bits(p.period.end).wrapping_sub(start_bits) as i64;
                write_varint(&mut this.data, zigzag(end_offset));
                write_varint(&mut this.data, p.object);
                prev_start = Some(start_bits);
                i += 1;
            }
            this.offsets.push(this.data.len());
        }
        this
    }

    fn num_buckets(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Encoded size in bytes (compression diagnostics; the raw equivalent
    /// is 24 bytes per posting).
    fn encoded_bytes(&self) -> usize {
        self.data.len()
    }

    /// The bucket whose range contains time `t`, clamped into
    /// `[0, buckets)`. The single bucket-assignment formula shared by
    /// [`RegionPostings::build`] and the candidate scan.
    #[inline]
    fn bucket_of(&self, t: f64, buckets: usize) -> usize {
        let b = ((t - self.t0) / self.width).floor();
        // Clamp in f64 before the usize cast (casts saturate, but clamping
        // keeps the arithmetic explicit and NaN-safe).
        b.clamp(0.0, (buckets - 1) as f64) as usize
    }

    /// Sequentially decodes every posting of buckets `lo..=hi` into `f`,
    /// in sorted order.
    // analyzer: allow(lib-panic) `offsets` has buckets+1 entries and callers clamp `hi` below buckets
    fn for_each_decoded(&self, lo: usize, hi: usize, mut f: impl FnMut(Posting)) {
        let mut pos = self.offsets[lo];
        for b in lo..=hi {
            let bucket_end = self.offsets[b + 1];
            let mut prev_start: Option<u64> = None;
            while pos < bucket_end {
                let start_bits = match prev_start {
                    None => read_varint(&self.data, &mut pos),
                    Some(prev) => prev + read_varint(&self.data, &mut pos),
                };
                let end_bits =
                    start_bits.wrapping_add(unzigzag(read_varint(&self.data, &mut pos)) as u64);
                let object = read_varint(&self.data, &mut pos);
                prev_start = Some(start_bits);
                f(Posting {
                    object,
                    period: TimePeriod::new(
                        from_ordered_bits(start_bits),
                        from_ordered_bits(end_bits),
                    ),
                });
            }
        }
    }

    /// Decodes every posting whose bucket can contain a visit overlapping
    /// `qt` into `f` — the candidate scan behind both queries.
    ///
    /// Out-of-range windows clamp to the nearest bucket rather than
    /// short-circuiting: the cost is one bucket's worth of filtered-out
    /// postings, and it keeps inclusive interval endpoints (`p.end ==
    /// qt.start` etc.) from ever being dropped by float edge arithmetic.
    fn for_each_candidate(&self, qt: &TimePeriod, f: impl FnMut(Posting)) {
        if self.num_postings == 0 {
            return;
        }
        let buckets = self.num_buckets();
        // qt.start − max_duration ≤ qt.end and bucket_of is monotone, so
        // lo ≤ hi always holds.
        let lo = self.bucket_of(qt.start - self.max_duration, buckets);
        let hi = self.bucket_of(qt.end, buckets);
        self.for_each_decoded(lo, hi, f);
    }

    /// Decodes the list back into its raw postings (sorted order), the
    /// hook for amortised per-region rebuilds: appended postings join the
    /// existing ones and [`RegionPostings::build`] re-sorts, re-buckets and
    /// re-encodes just this region.
    fn into_postings(self) -> Vec<Posting> {
        let mut postings = Vec::with_capacity(self.num_postings);
        if self.num_postings > 0 {
            self.for_each_decoded(0, self.num_buckets() - 1, |p| postings.push(p));
        }
        postings
    }

    /// Number of visits overlapping `qt`.
    pub fn count_overlapping(&self, qt: &TimePeriod) -> usize {
        let mut n = 0;
        self.for_each_candidate(qt, |p| {
            if p.overlaps(qt) {
                n += 1;
            }
        });
        n
    }

    /// Calls `f(object)` for every visit overlapping `qt` (one call per
    /// visit, not per distinct object).
    pub fn for_each_overlapping(&self, qt: &TimePeriod, mut f: impl FnMut(u64)) {
        self.for_each_candidate(qt, |p| {
            if p.overlaps(qt) {
                f(p.object);
            }
        });
    }
}

/// One shard's region → postings index.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardIndex {
    regions: HashMap<RegionId, RegionPostings>,
    num_postings: usize,
}

impl ShardIndex {
    /// Inverts a shard's `(object, m-semantics)` entries into per-region
    /// posting lists.
    pub fn build(objects: &[(u64, Vec<MobilitySemantics>)]) -> Self {
        let mut index = ShardIndex::default();
        index.append(objects);
        index
    }

    /// Merges the stays of additional `(object, m-semantics)` entries into
    /// the index without touching regions that receive no new posting.
    ///
    /// Regions that do receive postings are rebuilt from their combined
    /// old + new posting lists ([`RegionPostings::build`] re-sorts,
    /// re-buckets and re-encodes), so an index grown by any sequence of
    /// `append` calls is identical to one [`build`](ShardIndex::build)ed
    /// from scratch over the concatenated entries — the
    /// incremental-maintenance contract the `incremental_oracle` property
    /// suite pins.
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
        for (region, mut postings) in fresh {
            if let Some(existing) = self.regions.remove(&region) {
                let mut merged = existing.into_postings();
                merged.append(&mut postings);
                postings = merged;
            }
            self.regions.insert(region, RegionPostings::build(postings));
        }
    }

    /// Total visit postings in this shard.
    pub fn num_postings(&self) -> usize {
        self.num_postings
    }

    /// Total encoded bytes across this shard's posting lists.
    pub fn encoded_bytes(&self) -> usize {
        self.regions
            .values()
            .map(RegionPostings::encoded_bytes)
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
                let n = postings.count_overlapping(qt);
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
                postings.for_each_overlapping(qt, |object| visits.push((object, region)));
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

    #[test]
    fn bucketed_count_matches_linear_scan() {
        // 100 postings with varied durations; counts must equal a full scan
        // for windows inside, straddling, and outside the data span.
        let postings: Vec<Posting> = (0..100)
            .map(|i| {
                let start = (i as f64 * 7.3) % 500.0;
                posting(i as u64, start, start + 1.0 + (i % 13) as f64 * 4.0)
            })
            .collect();
        let index = RegionPostings::build(postings.clone());
        for (qs, qe) in [
            (0.0, 500.0),
            (100.0, 120.0),
            (499.0, 600.0),
            (-50.0, -1.0),
            (600.0, 700.0),
            (250.0, 250.0),
        ] {
            let qt = TimePeriod::new(qs, qe);
            let want = postings.iter().filter(|p| p.overlaps(&qt)).count();
            assert_eq!(index.count_overlapping(&qt), want, "qt=[{qs},{qe}]");
        }
    }

    #[test]
    fn empty_and_single_posting_lists() {
        let empty = RegionPostings::build(Vec::new());
        assert_eq!(empty.count_overlapping(&TimePeriod::new(0.0, 1.0)), 0);
        assert_eq!(empty.encoded_bytes(), 0);
        let one = RegionPostings::build(vec![posting(3, 5.0, 9.0)]);
        assert_eq!(one.count_overlapping(&TimePeriod::new(0.0, 5.0)), 1);
        assert_eq!(one.count_overlapping(&TimePeriod::new(9.0, 12.0)), 1);
        assert_eq!(one.count_overlapping(&TimePeriod::new(9.1, 12.0)), 0);
    }

    #[test]
    fn bucket_edge_boundary_postings_are_not_dropped() {
        // Regression: 32 stays starting at 0,10,…,310 (2 buckets), the last
        // lasting exactly max_duration and ending exactly at qt.start. The
        // old candidate-range math computed lo == num_buckets for
        // qt = [315, 400] and returned no candidates, dropping a visit the
        // inclusive overlap rule counts.
        let postings: Vec<Posting> = (0..32)
            .map(|i| posting(i, i as f64 * 10.0, i as f64 * 10.0 + 5.0))
            .collect();
        let index = RegionPostings::build(postings.clone());
        for (qs, qe) in [(315.0, 400.0), (310.0, 310.0), (-20.0, 0.0), (0.0, 0.0)] {
            let qt = TimePeriod::new(qs, qe);
            let want = postings.iter().filter(|p| p.period.overlaps(&qt)).count();
            assert_eq!(index.count_overlapping(&qt), want, "qt=[{qs},{qe}]");
        }
    }

    #[test]
    fn encode_decode_is_identity_and_smaller_than_raw() {
        // Round trip through build → into_postings: exact f64 bits and
        // object ids survive, in sorted order; the encoding beats the
        // 24-byte raw posting layout on a realistic list.
        let mut postings: Vec<Posting> = (0..500)
            .map(|i| {
                let start = (i as f64 * 13.7) % 86_400.0 + 0.125;
                posting(i * 31 % 997, start, start + 30.0 + (i % 50) as f64 * 17.3)
            })
            .collect();
        let built = RegionPostings::build(postings.clone());
        assert!(
            built.encoded_bytes() < postings.len() * 24,
            "{} bytes for {} postings",
            built.encoded_bytes(),
            postings.len()
        );
        postings.sort_unstable_by(|a, b| {
            (
                ordered_bits(a.period.start),
                ordered_bits(a.period.end),
                a.object,
            )
                .cmp(&(
                    ordered_bits(b.period.start),
                    ordered_bits(b.period.end),
                    b.object,
                ))
        });
        let decoded = built.into_postings();
        assert_eq!(decoded.len(), postings.len());
        for (d, w) in decoded.iter().zip(&postings) {
            assert_eq!(d.object, w.object);
            assert_eq!(d.period.start.to_bits(), w.period.start.to_bits());
            assert_eq!(d.period.end.to_bits(), w.period.end.to_bits());
        }
    }

    #[test]
    fn append_matches_from_scratch_build() {
        // Entries split across three appends must index exactly like one
        // build over the concatenation: same counts for every probe window,
        // same posting total, untouched regions included.
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
        let reference = ShardIndex::build(&all);
        let mut grown = ShardIndex::build(&all[..20]);
        grown.append(&all[20..35]);
        grown.append(&all[35..35]); // empty append is a no-op
        grown.append(&all[35..]);
        assert_eq!(grown.num_postings(), reference.num_postings());
        let query = QuerySet::new(&(0..4).map(RegionId).collect::<Vec<_>>());
        for (qs, qe) in [(0.0, 300.0), (50.0, 60.0), (295.0, 400.0), (-10.0, 0.0)] {
            let qt = TimePeriod::new(qs, qe);
            let mut want = reference.prq_counts(&query, &qt);
            let mut got = grown.prq_counts(&query, &qt);
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "prq qt=[{qs},{qe}]");
            let mut want = reference.frpq_counts(&query, &qt);
            let mut got = grown.frpq_counts(&query, &qt);
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "frpq qt=[{qs},{qe}]");
        }
    }

    #[test]
    fn identical_start_times_collapse_to_one_bucket() {
        let index = RegionPostings::build((0..40).map(|i| posting(i, 10.0, 20.0)).collect());
        assert_eq!(index.count_overlapping(&TimePeriod::new(0.0, 100.0)), 40);
        assert_eq!(index.count_overlapping(&TimePeriod::new(21.0, 100.0)), 0);
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
        let index = ShardIndex::build(&entries);
        assert!(index.has_region(RegionId(0)));
        assert!(!index.has_region(RegionId(1))); // pass-only region
        assert!(!index.has_region(RegionId(9)));
        assert!(index.encoded_bytes() > 0);
    }
}
