//! ST-DBSCAN: density-based clustering of spatio-temporal points.
//!
//! Implements the algorithm of Birant & Kut, *"ST-DBSCAN: An algorithm for
//! clustering spatial–temporal data"* (DKE 2007), as used by the C2MN paper
//! for two purposes:
//!
//! 1. the **event matching feature** `fem`, which maps each positioning
//!    record's density class (core / border / noise) to a stay/pass
//!    affinity, and
//! 2. the **initial event configuration** of the alternate learning
//!    algorithm (noise points → pass, clustered points → stay).
//!
//! Two points are neighbours when their planar distance is at most `eps_s`,
//! their time distance at most `eps_t`, and they lie on the same floor. A
//! point is a *core* point when its neighbourhood (including itself) holds
//! at least `min_pts` points; non-core points adjacent to a core point are
//! *border* points; the rest is *noise*.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use ism_geometry::Point2;
use serde::{Deserialize, Serialize};

/// A clustering input sample: planar position, timestamp, floor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StPoint {
    /// Planar coordinates in metres.
    pub xy: Point2,
    /// Timestamp in seconds.
    pub t: f64,
    /// Floor number; points on different floors are never neighbours.
    pub floor: u16,
}

impl StPoint {
    /// Creates a sample.
    pub const fn new(xy: Point2, t: f64, floor: u16) -> Self {
        StPoint { xy, t, floor }
    }
}

/// Parameters of ST-DBSCAN (the paper uses `εs = 8 m`, `εt = 60 s`,
/// `ptm = 4` on the real data).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StDbscanParams {
    /// Maximum spatial distance between neighbours, in metres.
    pub eps_s: f64,
    /// Maximum temporal distance between neighbours, in seconds.
    pub eps_t: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

impl Default for StDbscanParams {
    fn default() -> Self {
        // The paper's real-data setting.
        StDbscanParams {
            eps_s: 8.0,
            eps_t: 60.0,
            min_pts: 4,
        }
    }
}

/// Density class of a point after clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DensityClass {
    /// Dense interior point of a cluster.
    Core,
    /// Non-core point adjacent to a core point.
    Border,
    /// Point belonging to no cluster.
    Noise,
}

/// Result of a clustering run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Density class per input point.
    pub classes: Vec<DensityClass>,
    /// Cluster index per input point (`None` for noise).
    pub clusters: Vec<Option<u32>>,
    /// Number of clusters found.
    pub num_clusters: usize,
}

/// The ST-DBSCAN clustering algorithm.
#[derive(Debug, Clone, Copy)]
pub struct StDbscan {
    params: StDbscanParams,
}

impl StDbscan {
    /// Creates the algorithm with the given parameters.
    pub fn new(params: StDbscanParams) -> Self {
        StDbscan { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &StDbscanParams {
        &self.params
    }

    /// Clusters `points`, which must be sorted by non-decreasing time (as
    /// positioning sequences naturally are).
    ///
    /// Runs in `O(n · w)` where `w` is the maximum number of points inside a
    /// `2 eps_t` time window.
    pub fn run(&self, points: &[StPoint]) -> ClusterResult {
        let n = points.len();
        debug_assert!(
            points.windows(2).all(|w| w[0].t <= w[1].t),
            "ST-DBSCAN input must be time-sorted"
        );
        let mut neighbours: Vec<Vec<u32>> = vec![Vec::new(); n];
        let eps_s_sq = self.params.eps_s * self.params.eps_s;

        // Sliding temporal window; only forward pairs are examined, the
        // symmetric entry is pushed for both.
        let mut lo = 0usize;
        for i in 0..n {
            while points[i].t - points[lo].t > self.params.eps_t {
                lo += 1;
            }
            for j in lo..i {
                if points[i].floor == points[j].floor
                    && points[i].xy.distance_sq(points[j].xy) <= eps_s_sq
                {
                    neighbours[i].push(j as u32);
                    neighbours[j].push(i as u32);
                }
            }
        }

        let is_core: Vec<bool> = neighbours
            .iter()
            .map(|nb| nb.len() + 1 >= self.params.min_pts)
            .collect();

        let mut clusters: Vec<Option<u32>> = vec![None; n];
        let mut num_clusters = 0u32;
        let mut stack: Vec<u32> = Vec::new();
        for i in 0..n {
            if !is_core[i] || clusters[i].is_some() {
                continue;
            }
            // Expand a new cluster from this unassigned core point.
            let cid = num_clusters;
            num_clusters += 1;
            clusters[i] = Some(cid);
            stack.push(i as u32);
            while let Some(u) = stack.pop() {
                if !is_core[u as usize] {
                    continue; // border points do not propagate
                }
                for &v in &neighbours[u as usize] {
                    if clusters[v as usize].is_none() {
                        clusters[v as usize] = Some(cid);
                        stack.push(v);
                    }
                }
            }
        }

        let classes: Vec<DensityClass> = (0..n)
            .map(|i| {
                if is_core[i] {
                    DensityClass::Core
                } else if clusters[i].is_some() {
                    DensityClass::Border
                } else {
                    DensityClass::Noise
                }
            })
            .collect();

        ClusterResult {
            classes,
            clusters,
            num_clusters: num_clusters as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64, t: f64) -> StPoint {
        StPoint::new(Point2::new(x, y), t, 0)
    }

    fn params(eps_s: f64, eps_t: f64, min_pts: usize) -> StDbscanParams {
        StDbscanParams {
            eps_s,
            eps_t,
            min_pts,
        }
    }

    #[test]
    fn empty_input() {
        let r = StDbscan::new(StDbscanParams::default()).run(&[]);
        assert_eq!(r.num_clusters, 0);
        assert!(r.classes.is_empty());
    }

    #[test]
    fn single_dense_cluster() {
        let pts: Vec<StPoint> = (0..6).map(|i| pt(0.1 * i as f64, 0.0, i as f64)).collect();
        let r = StDbscan::new(params(2.0, 10.0, 3)).run(&pts);
        assert_eq!(r.num_clusters, 1);
        assert!(r.classes.iter().all(|&c| c == DensityClass::Core));
        assert!(r.clusters.iter().all(|c| *c == Some(0)));
    }

    #[test]
    fn sparse_points_are_noise() {
        let pts: Vec<StPoint> = (0..5)
            .map(|i| pt(100.0 * i as f64, 0.0, i as f64))
            .collect();
        let r = StDbscan::new(params(2.0, 10.0, 3)).run(&pts);
        assert_eq!(r.num_clusters, 0);
        assert!(r.classes.iter().all(|&c| c == DensityClass::Noise));
    }

    #[test]
    fn temporal_split_separates_clusters() {
        // Two bursts at the same location, separated by a large time gap.
        let mut pts: Vec<StPoint> = (0..4).map(|i| pt(0.0, 0.0, i as f64)).collect();
        pts.extend((0..4).map(|i| pt(0.0, 0.0, 1000.0 + i as f64)));
        let r = StDbscan::new(params(2.0, 10.0, 3)).run(&pts);
        assert_eq!(r.num_clusters, 2);
        assert_ne!(r.clusters[0], r.clusters[7]);
    }

    #[test]
    fn border_points_classified() {
        // Six points on a line spaced 0.2 m apart are all core with
        // eps_s = 1.1, min_pts = 5. A seventh point 1.0 m past the end
        // reaches only one core point → border.
        let mut pts: Vec<StPoint> = (0..6).map(|i| pt(0.2 * i as f64, 0.0, i as f64)).collect();
        pts.push(pt(2.0, 0.0, 6.0));
        let r = StDbscan::new(params(1.1, 100.0, 5)).run(&pts);
        for i in 0..6 {
            assert_eq!(r.classes[i], DensityClass::Core, "point {i}");
        }
        assert_eq!(r.classes[6], DensityClass::Border);
        assert_eq!(r.clusters[6], r.clusters[5]);
    }

    #[test]
    fn floors_are_isolated() {
        let mut pts: Vec<StPoint> = (0..4).map(|i| pt(0.0, 0.0, i as f64)).collect();
        for (i, p) in pts.iter_mut().enumerate() {
            if i % 2 == 1 {
                p.floor = 1;
            }
        }
        let r = StDbscan::new(params(2.0, 10.0, 3)).run(&pts);
        // Two points per floor, min_pts 3 → nobody is core.
        assert_eq!(r.num_clusters, 0);
    }

    #[test]
    fn two_spatial_clusters_with_interleaved_times() {
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(pt(0.0, 0.0, i as f64));
            pts.push(pt(50.0, 0.0, i as f64 + 0.5));
        }
        pts.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap());
        let r = StDbscan::new(params(2.0, 10.0, 3)).run(&pts);
        assert_eq!(r.num_clusters, 2);
    }

    #[test]
    fn min_pts_one_makes_everything_core() {
        let pts = vec![pt(0.0, 0.0, 0.0), pt(100.0, 0.0, 50.0)];
        let r = StDbscan::new(params(1.0, 1.0, 1)).run(&pts);
        assert_eq!(r.num_clusters, 2);
        assert!(r.classes.iter().all(|&c| c == DensityClass::Core));
    }
}
