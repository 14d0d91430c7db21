//! Clique-template structure and the shared weight vector.

use serde::{Deserialize, Serialize};

/// Total number of feature components across all clique templates:
/// six scalar templates plus two 3-dimensional segmentation templates.
pub const NUM_FEATURES: usize = 12;

/// Indices of the feature components inside a [`Weights`] vector.
pub(crate) mod idx {
    /// Spatial matching `fsm`.
    pub const SM: usize = 0;
    /// Event matching `fem`.
    pub const EM: usize = 1;
    /// Space transition `fst`.
    pub const ST: usize = 2;
    /// Event transition `fet`.
    pub const ET: usize = 3;
    /// Spatial consistency `fsc`.
    pub const SC: usize = 4;
    /// Event consistency `fec`.
    pub const EC: usize = 5;
    /// Event-based segmentation `fes` (3 components).
    pub const ES: usize = 6;
    /// Space-based segmentation `fss` (3 components).
    pub const SS: usize = 9;
}

/// Which clique templates are active — the paper's structural variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelStructure {
    /// Transition cliques (`fst`, `fet`).
    pub transitions: bool,
    /// Synchronization cliques (`fsc`, `fec`).
    pub synchronizations: bool,
    /// Event-based segmentation cliques (`fes`).
    pub event_segmentation: bool,
    /// Space-based segmentation cliques (`fss`).
    pub space_segmentation: bool,
}

impl ModelStructure {
    /// Full C2MN.
    pub const fn full() -> Self {
        ModelStructure {
            transitions: true,
            synchronizations: true,
            event_segmentation: true,
            space_segmentation: true,
        }
    }

    /// CMN: both segmentation templates removed — regions and events
    /// decouple and are inferred independently.
    pub const fn cmn() -> Self {
        ModelStructure {
            transitions: true,
            synchronizations: true,
            event_segmentation: false,
            space_segmentation: false,
        }
    }

    /// C2MN/Tran: no transition cliques.
    pub const fn no_transitions() -> Self {
        ModelStructure {
            transitions: false,
            ..Self::full()
        }
    }

    /// C2MN/Syn: no synchronization cliques.
    pub const fn no_synchronizations() -> Self {
        ModelStructure {
            synchronizations: false,
            ..Self::full()
        }
    }

    /// C2MN/ES: no event-based segmentation cliques.
    pub const fn no_event_segmentation() -> Self {
        ModelStructure {
            event_segmentation: false,
            ..Self::full()
        }
    }

    /// C2MN/SS: no space-based segmentation cliques.
    pub const fn no_space_segmentation() -> Self {
        ModelStructure {
            space_segmentation: false,
            ..Self::full()
        }
    }

    /// Whether regions and events are coupled (any segmentation template):
    /// only then can a flip in one chain change a row of the other, so
    /// decoding invalidates across chains only when this holds.
    pub fn is_coupled(&self) -> bool {
        self.event_segmentation || self.space_segmentation
    }

    /// Mask of weight components that can receive gradient from a
    /// region-chain sampling step (the region-relevant dependencies of
    /// Table II, plus both segmentation templates whose features change
    /// with region labels).
    pub fn region_step_mask(&self) -> [bool; NUM_FEATURES] {
        let mut m = [false; NUM_FEATURES];
        m[idx::SM] = true;
        m[idx::ST] = self.transitions;
        m[idx::SC] = self.synchronizations;
        for k in 0..3 {
            m[idx::ES + k] = self.event_segmentation;
            m[idx::SS + k] = self.space_segmentation;
        }
        m
    }

    /// Mask of weight components that can receive gradient from an
    /// event-chain sampling step.
    pub fn event_step_mask(&self) -> [bool; NUM_FEATURES] {
        let mut m = [false; NUM_FEATURES];
        m[idx::EM] = true;
        m[idx::ET] = self.transitions;
        m[idx::EC] = self.synchronizations;
        for k in 0..3 {
            m[idx::ES + k] = self.event_segmentation;
            m[idx::SS + k] = self.space_segmentation;
        }
        m
    }
}

impl Default for ModelStructure {
    fn default() -> Self {
        Self::full()
    }
}

/// The shared parameter vector: one weight per feature component per clique
/// template (parameter sharing, §II-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Weights(pub [f64; NUM_FEATURES]);

impl Weights {
    /// All-zero weights.
    pub fn zeros() -> Self {
        Weights([0.0; NUM_FEATURES])
    }

    /// Uniform positive initial weights — a sensible starting point since
    /// all features are constructed as compatibilities.
    pub fn uniform(value: f64) -> Self {
        Weights([value; NUM_FEATURES])
    }

    /// Dot product with a feature vector.
    #[inline]
    pub fn dot(&self, features: &[f64; NUM_FEATURES]) -> f64 {
        let mut s = 0.0;
        for (w, f) in self.0.iter().zip(features) {
            s += w * f;
        }
        s
    }

    /// Chebyshev (∞-norm) distance to another weight vector, optionally
    /// restricted to a mask.
    pub fn chebyshev(&self, other: &Weights, mask: Option<&[bool; NUM_FEATURES]>) -> f64 {
        let mut m = 0.0f64;
        for i in 0..NUM_FEATURES {
            if mask.is_none_or(|mk| mk[i]) {
                m = m.max((self.0[i] - other.0[i]).abs());
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_toggle_expected_templates() {
        assert!(ModelStructure::full().is_coupled());
        assert!(!ModelStructure::cmn().is_coupled());
        assert!(!ModelStructure::no_transitions().transitions);
        assert!(ModelStructure::no_transitions().is_coupled());
        assert!(!ModelStructure::no_event_segmentation().event_segmentation);
        assert!(ModelStructure::no_event_segmentation().space_segmentation);
    }

    #[test]
    fn masks_are_disjoint_on_chain_specific_templates() {
        let s = ModelStructure::full();
        let r = s.region_step_mask();
        let e = s.event_step_mask();
        assert!(r[idx::SM] && !e[idx::SM]);
        assert!(e[idx::EM] && !r[idx::EM]);
        assert!(r[idx::ST] && !e[idx::ST]);
        assert!(e[idx::ET] && !r[idx::ET]);
        // Segmentation templates are updated by both steps.
        for k in 0..3 {
            assert!(r[idx::ES + k] && e[idx::ES + k]);
            assert!(r[idx::SS + k] && e[idx::SS + k]);
        }
    }

    #[test]
    fn masks_respect_structure() {
        let s = ModelStructure::cmn();
        let r = s.region_step_mask();
        for k in 0..3 {
            assert!(!r[idx::ES + k] && !r[idx::SS + k]);
        }
        let s = ModelStructure::no_transitions();
        assert!(!s.region_step_mask()[idx::ST]);
        assert!(!s.event_step_mask()[idx::ET]);
    }

    #[test]
    fn weight_operations() {
        let a = Weights::uniform(1.0);
        let mut f = [0.0; NUM_FEATURES];
        f[0] = 2.0;
        f[11] = 3.0;
        assert_eq!(a.dot(&f), 5.0);
        let mut b = a.clone();
        b.0[4] += 0.5;
        assert_eq!(a.chebyshev(&b, None), 0.5);
        let mut mask = [false; NUM_FEATURES];
        mask[0] = true;
        assert_eq!(a.chebyshev(&b, Some(&mask)), 0.0);
    }
}
