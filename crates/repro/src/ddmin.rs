//! Deterministic delta debugging (`ddmin`) and artifact minimization.
//!
//! [`ddmin`] is the classic Zeller/Hildebrandt minimizing delta
//! debugger, specialised for determinism: no internal randomness, a
//! fixed test order (complements before subsets), and a budget cap on
//! oracle calls, so two runs over the same input with the same oracle
//! perform the identical call sequence and return the identical result.
//! [`minimize`] wires it to a [`ReproArtifact`]: the oracle is one
//! stateless detector re-run per candidate, a pure function of the
//! candidate event sequence.

use endurance_core::{rerun_with_model, WindowVerdict};
use trace_model::TraceEvent;

use crate::artifact::{build_sealed, matches_target, windows_from_events, ReproArtifact};
use crate::error::ReproError;

/// What a [`ddmin`] run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdminOutcome<T> {
    /// The reduced sequence; still trips the oracle (or is the input
    /// itself when no reduction was found).
    pub minimal: Vec<T>,
    /// Number of oracle invocations performed.
    pub oracle_calls: usize,
    /// Whether 1-minimality was *proven*: every single-element removal
    /// was tested and failed. `false` when the call budget ran out
    /// first.
    pub proven_minimal: bool,
}

/// Minimizes `input` to a 1-minimal subsequence that still trips
/// `oracle`, testing complements before subsets and never exceeding
/// `budget` oracle calls.
///
/// The caller must have established that the full `input` trips the
/// oracle — `ddmin` does not re-test it. The oracle must be a pure
/// function of the candidate (same candidate, same answer); under that
/// contract the whole run is deterministic: the sequence of candidates
/// tested, and therefore the result, depends only on `input` and the
/// oracle's answers.
///
/// On success the result still trips the oracle; `proven_minimal`
/// reports whether the budget sufficed to also prove that removing any
/// single remaining element flips the verdict.
///
/// # Errors
///
/// Propagates the first error the oracle returns.
pub fn ddmin<T, E, F>(input: &[T], mut oracle: F, budget: usize) -> Result<DdminOutcome<T>, E>
where
    T: Clone,
    F: FnMut(&[T]) -> Result<bool, E>,
{
    let mut current: Vec<T> = input.to_vec();
    let mut calls = 0usize;
    let mut n = 2usize;

    loop {
        let len = current.len();
        if len < 2 {
            // A sequence of one element is 1-minimal iff the empty
            // sequence does not trip the oracle; the empty sequence is
            // 1-minimal vacuously.
            if len == 0 {
                return Ok(DdminOutcome {
                    minimal: current,
                    oracle_calls: calls,
                    proven_minimal: true,
                });
            }
            if calls >= budget {
                return Ok(DdminOutcome {
                    minimal: current,
                    oracle_calls: calls,
                    proven_minimal: false,
                });
            }
            calls += 1;
            if oracle(&[])? {
                current.clear();
            }
            return Ok(DdminOutcome {
                minimal: current,
                oracle_calls: calls,
                proven_minimal: true,
            });
        }

        let n_eff = n.min(len);
        let bounds = chunk_bounds(len, n_eff);
        let mut next: Option<(Vec<T>, usize)> = None;

        // Reduce to complement first: removing one small chunk keeps
        // most of the sequence, so these tests succeed far more often
        // than reduce-to-subset and each success shrinks the input
        // while the granularity stays fine.
        for window in bounds.windows(2) {
            let (from, to) = (window[0], window[1]);
            let mut candidate = Vec::with_capacity(len - (to - from));
            candidate.extend_from_slice(&current[..from]);
            candidate.extend_from_slice(&current[to..]);
            if calls >= budget {
                return Ok(DdminOutcome {
                    minimal: current,
                    oracle_calls: calls,
                    proven_minimal: false,
                });
            }
            calls += 1;
            if oracle(&candidate)? {
                next = Some((candidate, if n_eff > 2 { n_eff - 1 } else { 2 }));
                break;
            }
        }

        // Reduce to subset: only meaningful at granularity above two
        // (at n == 2 every subset is also a complement).
        if next.is_none() && n_eff > 2 {
            for window in bounds.windows(2) {
                let (from, to) = (window[0], window[1]);
                let candidate = current[from..to].to_vec();
                if calls >= budget {
                    return Ok(DdminOutcome {
                        minimal: current,
                        oracle_calls: calls,
                        proven_minimal: false,
                    });
                }
                calls += 1;
                if oracle(&candidate)? {
                    next = Some((candidate, 2));
                    break;
                }
            }
        }

        match next {
            Some((candidate, next_n)) => {
                current = candidate;
                n = next_n;
            }
            None if n_eff >= len => {
                // Granularity reached single elements and no removal
                // reproduced: 1-minimal, proven.
                return Ok(DdminOutcome {
                    minimal: current,
                    oracle_calls: calls,
                    proven_minimal: true,
                });
            }
            None => {
                n = (2 * n_eff).min(len);
            }
        }
    }
}

/// The `n + 1` boundaries splitting `len` items into `n` even chunks
/// (the first `len % n` chunks are one longer).
fn chunk_bounds(len: usize, n: usize) -> Vec<usize> {
    let base = len / n;
    let rem = len % n;
    let mut bounds = Vec::with_capacity(n + 1);
    let mut at = 0;
    bounds.push(0);
    for i in 0..n {
        at += base + usize::from(i < rem);
        bounds.push(at);
    }
    bounds
}

/// Bounds for one [`minimize`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeConfig {
    /// Cap on detector re-runs (oracle calls), including the initial
    /// reproduction check. When the cap is hit the best reduction so
    /// far is returned with `proven_minimal == false`.
    pub max_oracle_calls: usize,
}

impl Default for MinimizeConfig {
    fn default() -> Self {
        MinimizeConfig {
            max_oracle_calls: 2048,
        }
    }
}

/// How a [`minimize`] run went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeReport {
    /// Events in the artifact before minimization.
    pub original_events: usize,
    /// Events in the minimized artifact.
    pub minimized_events: usize,
    /// Detector re-runs performed (initial check + ddmin).
    pub oracle_calls: usize,
    /// Whether 1-minimality was proven within the budget.
    pub proven_minimal: bool,
}

/// A minimized artifact plus the minimization report.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// The minimized, re-sealed artifact: structurally identical to an
    /// extracted one (re-cut windows, re-encoded payloads, re-pinned
    /// verdicts, fresh content hash) and self-verifying.
    pub artifact: ReproArtifact,
    /// Size and effort accounting.
    pub report: MinimizeReport,
}

/// Shrinks `artifact`'s event sequence to a 1-minimal subsequence that
/// still reproduces the anomalous verdict on the target window, and
/// re-seals the result as a new artifact.
///
/// The oracle is one stateless detector re-run per candidate (fresh
/// monitoring-only session, drift gate as embedded in the artifact's
/// oracle config): a pure function of the candidate event sequence, so
/// minimization is replayable — two runs over the same artifact return
/// byte-identical results.
///
/// # Errors
///
/// Returns [`ReproError::NotReproduced`] when the artifact does not
/// trip its own oracle (nothing to minimize), and propagates decode or
/// re-run failures.
pub fn minimize(
    artifact: &ReproArtifact,
    config: &MinimizeConfig,
) -> Result<MinimizeOutcome, ReproError> {
    let events = artifact.events()?;
    let model = artifact.reference_model();
    let monitor = artifact.monitor.clone();
    let target = artifact.target_start_ns;

    let mut oracle = |candidate: &[TraceEvent]| -> Result<bool, ReproError> {
        if candidate.is_empty() {
            return Ok(false);
        }
        let outcome = rerun_with_model(monitor.clone(), model.clone(), candidate)?;
        Ok(outcome
            .decisions
            .iter()
            .any(|d| matches_target(d, target) && d.verdict == WindowVerdict::Anomalous))
    };

    if !oracle(&events)? {
        return Err(ReproError::NotReproduced(format!(
            "artifact `{}` does not trip its own oracle; nothing to minimize",
            artifact.name
        )));
    }
    let budget = config.max_oracle_calls.saturating_sub(1);
    let outcome = ddmin(&events, &mut oracle, budget)?;

    let windows = windows_from_events(&artifact.monitor.window, &outcome.minimal)?;
    let minimized = build_sealed(
        artifact.name.clone(),
        artifact.lane,
        target,
        artifact.monitor.clone(),
        artifact.model.clone(),
        windows,
    )?;
    Ok(MinimizeOutcome {
        report: MinimizeReport {
            original_events: events.len(),
            minimized_events: minimized.event_count(),
            oracle_calls: outcome.oracle_calls + 1,
            proven_minimal: outcome.proven_minimal,
        },
        artifact: minimized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: the candidate contains every element of `needles`, in
    /// any position (classic ddmin exercise; 1-minimal result is the
    /// needle set itself).
    fn contains_all(needles: &'static [u32]) -> impl FnMut(&[u32]) -> Result<bool, ReproError> {
        move |candidate| Ok(needles.iter().all(|n| candidate.contains(n)))
    }

    #[test]
    fn reduces_to_exactly_the_needles() {
        let input: Vec<u32> = (0..64).collect();
        let outcome = ddmin(&input, contains_all(&[7, 40, 41]), 10_000).unwrap();
        assert_eq!(outcome.minimal, vec![7, 40, 41]);
        assert!(outcome.proven_minimal);
    }

    #[test]
    fn singleton_and_empty_inputs_are_handled() {
        let outcome = ddmin(&[5u32], contains_all(&[5]), 10).unwrap();
        assert_eq!(outcome.minimal, vec![5]);
        assert!(outcome.proven_minimal);

        let outcome = ddmin::<u32, ReproError, _>(&[], |_| Ok(true), 10).unwrap();
        assert!(outcome.minimal.is_empty());
        assert!(outcome.proven_minimal);
    }

    #[test]
    fn budget_exhaustion_returns_unproven_result() {
        let input: Vec<u32> = (0..256).collect();
        let outcome = ddmin(&input, contains_all(&[3, 200]), 3).unwrap();
        assert!(!outcome.proven_minimal);
        assert_eq!(outcome.oracle_calls, 3);
        // Whatever was reached still trips the oracle.
        assert!(outcome.minimal.contains(&3) && outcome.minimal.contains(&200));
    }

    #[test]
    fn call_sequence_is_deterministic() {
        let input: Vec<u32> = (0..48).collect();
        let mut first_calls: Vec<Vec<u32>> = Vec::new();
        let mut second_calls: Vec<Vec<u32>> = Vec::new();
        let mut inner = contains_all(&[11, 30]);
        let first = ddmin(
            &input,
            |candidate: &[u32]| {
                first_calls.push(candidate.to_vec());
                inner(candidate)
            },
            10_000,
        )
        .unwrap();
        let mut inner = contains_all(&[11, 30]);
        let second = ddmin(
            &input,
            |candidate: &[u32]| {
                second_calls.push(candidate.to_vec());
                inner(candidate)
            },
            10_000,
        )
        .unwrap();
        assert_eq!(first, second);
        assert_eq!(first_calls, second_calls);
    }

    #[test]
    fn chunk_bounds_cover_everything_evenly() {
        assert_eq!(chunk_bounds(10, 3), vec![0, 4, 7, 10]);
        assert_eq!(chunk_bounds(4, 2), vec![0, 2, 4]);
        assert_eq!(chunk_bounds(5, 5), vec![0, 1, 2, 3, 4, 5]);
    }
}
