//! Baseline annotation methods the paper compares against (§V-A).
//!
//! * [`Smot`] — SMoT (Alvares et al. \[2\]): a speed threshold separates
//!   stays from passes; regions come from nearest-neighbour matching of
//!   representative locations.
//! * [`HmmDc`] — HMM+DC (the paper's TRIPS system \[12\]): an HMM whose
//!   hidden states are regions and whose observations are grid cells,
//!   estimated by frequency counting and decoded with Viterbi; events come
//!   from ST-DBSCAN clustering (core/border → stay, noise → pass).
//! * [`SapDv`] / [`SapDa`] — the SAP layered framework (Yan et al. \[26\]):
//!   first segment the sequence into stay/pass segments
//!   (dynamic-velocity-based or density-area-based), then label stay
//!   segments with an HMM over regions (observation probability from the
//!   overlap of the segment's location distribution with the region) and
//!   pass records with their nearest regions.
//!
//! All methods produce record-level `(region, event)` labels; m-semantics
//! follow by `ism_mobility::merge_labels` exactly as for C2MN.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod hmm_dc;
mod sap;
mod smot;

pub use hmm_dc::{HmmDc, HmmDcConfig};
pub use sap::{SapConfig, SapDa, SapDv, Segmentation};
pub use smot::{Smot, SmotConfig};

use ism_cluster::{StDbscan, StDbscanParams, StPoint};
use ism_mobility::{MobilityEvent, PositioningRecord};

/// Event labels from ST-DBSCAN density classes: clustered records (core or
/// border) are stays, noise records are passes. Shared by HMM+DC and the
/// C2MN event initialisation.
pub fn density_events(
    records: &[PositioningRecord],
    params: &StDbscanParams,
) -> Vec<MobilityEvent> {
    let pts: Vec<StPoint> = records
        .iter()
        .map(|r| StPoint::new(r.location.xy, r.t, r.location.floor))
        .collect();
    StDbscan::new(*params)
        .run(&pts)
        .classes
        .iter()
        .map(|c| match c {
            ism_cluster::DensityClass::Noise => MobilityEvent::Pass,
            _ => MobilityEvent::Stay,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ism_geometry::Point2;
    use ism_indoor::IndoorPoint;

    #[test]
    fn density_events_split_cluster_and_noise() {
        let mut records: Vec<PositioningRecord> = (0..6)
            .map(|i| {
                PositioningRecord::new(
                    IndoorPoint::new(0, Point2::new(0.1 * i as f64, 0.0)),
                    10.0 * i as f64,
                )
            })
            .collect();
        records.push(PositioningRecord::new(
            IndoorPoint::new(0, Point2::new(500.0, 0.0)),
            70.0,
        ));
        let params = StDbscanParams {
            eps_s: 5.0,
            eps_t: 100.0,
            min_pts: 3,
        };
        let events = density_events(&records, &params);
        assert!(events[..6].iter().all(|e| *e == MobilityEvent::Stay));
        assert_eq!(events[6], MobilityEvent::Pass);
    }
}
