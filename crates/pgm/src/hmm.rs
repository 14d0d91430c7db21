//! Discrete hidden Markov models with counting estimation and Viterbi.
//!
//! The paper's HMM+DC baseline estimates an HMM whose hidden states are
//! semantic regions and whose observations are discretised grid cells,
//! "via frequency counting", decoding with Viterbi. This module provides
//! exactly that: additive-smoothed maximum-likelihood estimation from
//! labelled (state, observation) sequences and log-space Viterbi decoding.

/// Configuration for HMM estimation.
#[derive(Debug, Clone, Copy)]
pub struct HmmConfig {
    /// Number of hidden states.
    pub num_states: usize,
    /// Number of observation symbols.
    pub num_symbols: usize,
    /// Additive (Laplace) smoothing constant applied to every count.
    pub smoothing: f64,
}

/// A discrete HMM in log-space.
#[derive(Debug, Clone)]
pub struct Hmm {
    num_states: usize,
    num_symbols: usize,
    /// log P(state at t=0), length `num_states`.
    log_initial: Vec<f64>,
    /// log P(s' | s), row-major `num_states × num_states`.
    log_transition: Vec<f64>,
    /// log P(o | s), row-major `num_states × num_symbols`.
    log_emission: Vec<f64>,
}

impl Hmm {
    /// Estimates an HMM from labelled sequences by frequency counting with
    /// additive smoothing.
    ///
    /// Each training item is a `(states, observations)` pair of equal
    /// length; indices must be below the configured alphabet sizes.
    pub fn fit(config: &HmmConfig, data: &[(Vec<usize>, Vec<usize>)]) -> Hmm {
        let ns = config.num_states;
        let no = config.num_symbols;
        let k = config.smoothing.max(1e-12);
        let mut init = vec![k; ns];
        let mut trans = vec![k; ns * ns];
        let mut emit = vec![k; ns * no];
        for (states, obs) in data {
            assert_eq!(states.len(), obs.len(), "state/observation length mismatch");
            if let Some(&s0) = states.first() {
                init[s0] += 1.0;
            }
            for w in states.windows(2) {
                trans[w[0] * ns + w[1]] += 1.0;
            }
            for (&s, &o) in states.iter().zip(obs) {
                emit[s * no + o] += 1.0;
            }
        }
        let normalize_rows = |m: &mut [f64], cols: usize| {
            for row in m.chunks_mut(cols) {
                let total: f64 = row.iter().sum();
                for v in row.iter_mut() {
                    *v = (*v / total).ln();
                }
            }
        };
        normalize_rows(&mut init, ns);
        normalize_rows(&mut trans, ns);
        normalize_rows(&mut emit, no);
        Hmm {
            num_states: ns,
            num_symbols: no,
            log_initial: init,
            log_transition: trans,
            log_emission: emit,
        }
    }

    /// Number of hidden states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of observation symbols.
    pub fn num_symbols(&self) -> usize {
        self.num_symbols
    }

    /// log P(o | s).
    #[inline]
    pub fn log_emission(&self, state: usize, symbol: usize) -> f64 {
        self.log_emission[state * self.num_symbols + symbol]
    }

    /// log P(s' | s).
    #[inline]
    pub fn log_transition(&self, from: usize, to: usize) -> f64 {
        self.log_transition[from * self.num_states + to]
    }

    /// Most likely hidden state sequence for `observations` (Viterbi).
    ///
    /// Returns an empty vector for an empty input.
    pub fn viterbi(&self, observations: &[usize]) -> Vec<usize> {
        let n = observations.len();
        if n == 0 {
            return Vec::new();
        }
        let ns = self.num_states;
        let mut delta: Vec<f64> = (0..ns)
            .map(|s| self.log_initial[s] + self.log_emission(s, observations[0]))
            .collect();
        let mut psi = vec![0u32; n * ns];
        let mut next = vec![0.0f64; ns];
        for (t, &obs) in observations.iter().enumerate().skip(1) {
            for s in 0..ns {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0u32;
                for (p, &dp) in delta.iter().enumerate() {
                    let v = dp + self.log_transition[p * ns + s];
                    if v > best {
                        best = v;
                        arg = p as u32;
                    }
                }
                next[s] = best + self.log_emission(s, obs);
                psi[t * ns + s] = arg;
            }
            std::mem::swap(&mut delta, &mut next);
        }
        let mut state = delta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut path = vec![0usize; n];
        path[n - 1] = state;
        for t in (1..n).rev() {
            state = psi[t * ns + state] as usize;
            path[t - 1] = state;
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two states emitting mostly their own symbol; strong self-transitions.
    fn toy_data() -> Vec<(Vec<usize>, Vec<usize>)> {
        vec![
            (vec![0, 0, 0, 1, 1, 1], vec![0, 0, 0, 1, 1, 1]),
            (vec![0, 0, 1, 1], vec![0, 0, 1, 1]),
            (vec![1, 1, 0, 0], vec![1, 1, 0, 0]),
        ]
    }

    fn toy_hmm() -> Hmm {
        Hmm::fit(
            &HmmConfig {
                num_states: 2,
                num_symbols: 2,
                smoothing: 0.1,
            },
            &toy_data(),
        )
    }

    #[test]
    fn probabilities_normalise() {
        let h = toy_hmm();
        for s in 0..2 {
            let trans_sum: f64 = (0..2).map(|t| h.log_transition(s, t).exp()).sum();
            assert!((trans_sum - 1.0).abs() < 1e-9);
            let emit_sum: f64 = (0..2).map(|o| h.log_emission(s, o).exp()).sum();
            assert!((emit_sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn viterbi_recovers_clean_sequence() {
        let h = toy_hmm();
        assert_eq!(h.viterbi(&[0, 0, 0, 1, 1]), vec![0, 0, 0, 1, 1]);
        assert_eq!(h.viterbi(&[1, 1, 0]), vec![1, 1, 0]);
    }

    #[test]
    fn viterbi_smooths_isolated_noise() {
        // With strong self-transitions a single flipped observation in a
        // long run should often keep the underlying state.
        let data = vec![(vec![0; 20], vec![0; 20]), (vec![1; 20], vec![1; 20])];
        let mut with_noise = data.clone();
        with_noise.push((vec![0; 5], vec![0, 0, 1, 0, 0]));
        let h = Hmm::fit(
            &HmmConfig {
                num_states: 2,
                num_symbols: 2,
                smoothing: 0.5,
            },
            &with_noise,
        );
        let path = h.viterbi(&[0, 0, 1, 0, 0]);
        assert_eq!(path, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn empty_sequence() {
        let h = toy_hmm();
        assert!(h.viterbi(&[]).is_empty());
    }

    #[test]
    fn unseen_symbols_survive_smoothing() {
        let h = Hmm::fit(
            &HmmConfig {
                num_states: 2,
                num_symbols: 3,
                smoothing: 0.1,
            },
            &[(vec![0, 1], vec![0, 1])],
        );
        // Symbol 2 never observed; Viterbi must still return a valid path.
        let path = h.viterbi(&[2, 2]);
        assert_eq!(path.len(), 2);
        assert!(path.iter().all(|&s| s < 2));
    }
}
