//! Evaluating mined specifications against the ground truth
//! (experiment E4).
//!
//! Syntactic spec equality is the wrong metric (the miner's exact-guard
//! cases and the hand-written library's layered guards can describe the
//! same behavior); the comparison is *behavioral*: over the full probe
//! matrix (flag subsets × operand states), does each spec predict the
//! same (exit, deletes, creates) fingerprint as the sandbox actually
//! exhibits?

use crate::envgen::OperandState;
use crate::probe::{probe_command, Observation};
use shoal_spec::hoare::{operand_indices, Cond, Effect, ExitSpec, NodeReq};
use shoal_spec::{CommandSpec, Invocation};

/// The behavioral fingerprint of one invocation in one environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Did it succeed?
    pub success: bool,
    /// Did it delete any operand?
    pub deletes: bool,
    /// Did it create any operand?
    pub creates: bool,
}

/// Mining quality for one command.
#[derive(Debug, Clone)]
pub struct MiningScore {
    /// Command name.
    pub command: String,
    /// Number of probed invocations (flag set × environment).
    pub invocations: usize,
    /// Number of mined cases.
    pub cases: usize,
    /// Fraction of probes where the mined spec predicts the actual
    /// fingerprint.
    pub accuracy: f64,
    /// Fraction of probes where the mined spec has *any* applicable
    /// case whose precondition matches the environment.
    pub coverage: f64,
    /// Same accuracy metric for the hand-written ground-truth spec
    /// (context for how hard the command is to specify).
    pub ground_truth_accuracy: f64,
}

/// What a spec predicts for one (flags, operand states) situation, or
/// `None` when no case covers it.
pub fn predict(spec: &CommandSpec, flags: &[char], states: &[OperandState]) -> Option<Fingerprint> {
    let operands: Vec<String> = (0..states.len()).map(|i| format!("/op{i}")).collect();
    let inv = Invocation::new(
        spec.name(),
        flags,
        &operands.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for case in spec.applicable(&inv) {
        let pre_ok = case.pre.iter().all(|Cond::OperandIs(marker, req)| {
            operand_indices(*marker, states.len()).all(|i| {
                matches!(
                    (req, states.get(i)),
                    (NodeReq::Any, _)
                        | (NodeReq::File, Some(OperandState::File))
                        | (NodeReq::Dir, Some(OperandState::Dir))
                        | (
                            NodeReq::Exists,
                            Some(OperandState::File | OperandState::Dir)
                        )
                        | (NodeReq::Absent, Some(OperandState::Missing))
                )
            })
        });
        if !pre_ok {
            continue;
        }
        let deletes = case.effects.iter().any(|e| {
            matches!(
                e,
                Effect::Deletes(_) | Effect::DeletesChildren(_) | Effect::MovesTo { .. }
            )
        });
        let creates = case.effects.iter().any(|e| {
            matches!(
                e,
                Effect::CreatesFile(_)
                    | Effect::CreatesDir(_)
                    | Effect::CreatesDirChain(_)
                    | Effect::CopiesTo { .. }
                    | Effect::MovesTo { .. }
            )
        });
        let success = match case.exit {
            ExitSpec::Success => true,
            ExitSpec::Failure => false,
            ExitSpec::Unknown => true,
        };
        return Some(Fingerprint {
            success,
            deletes,
            creates,
        });
    }
    None
}

/// The actual fingerprint of an observation.
fn actual(obs: &Observation) -> Fingerprint {
    Fingerprint {
        success: obs.success(),
        deletes: !obs.deleted.is_empty(),
        creates: !obs.created_file.is_empty() || !obs.created_dir.is_empty(),
    }
}

/// Scores a mined spec against ground truth over the probe matrix.
pub fn evaluate_mined(mined: &CommandSpec, ground_truth: Option<&CommandSpec>) -> MiningScore {
    // Probe with the *mined* syntax: the matrix of invocations the miner
    // believes legitimate (phantom flags already eliminated).
    let observations = probe_command(&mined.syntax);
    let mut total = 0usize;
    let mut covered = 0usize;
    let mut correct = 0usize;
    let mut gt_correct = 0usize;
    for obs in &observations {
        if obs.rejected {
            continue;
        }
        total += 1;
        let flags: Vec<char> = obs.flags.iter().copied().collect();
        let act = actual(obs);
        if let Some(pred) = predict(mined, &flags, &obs.states) {
            covered += 1;
            if pred == act {
                correct += 1;
            }
        }
        if let Some(gt) = ground_truth {
            if let Some(pred) = predict(gt, &flags, &obs.states) {
                if pred == act {
                    gt_correct += 1;
                }
            }
        }
    }
    let denom = total.max(1) as f64;
    MiningScore {
        command: mined.name().to_string(),
        invocations: total,
        cases: mined.cases.len(),
        accuracy: correct as f64 / denom,
        coverage: covered as f64 / denom,
        ground_truth_accuracy: gt_correct as f64 / denom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine_command;
    use shoal_spec::SpecLibrary;

    #[test]
    fn mined_rm_is_behaviorally_perfect() {
        let mined = mine_command("rm").unwrap();
        let lib = SpecLibrary::builtin();
        let score = evaluate_mined(&mined, lib.get("rm"));
        assert!(
            score.accuracy > 0.99,
            "mined rm accuracy {} (cases: {:#?})",
            score.accuracy,
            mined.cases
        );
        assert!(score.coverage > 0.99);
        assert!(score.invocations >= 48);
    }

    #[test]
    fn all_documented_commands_mine_with_high_accuracy() {
        let lib = SpecLibrary::builtin();
        for name in crate::manpages::all_documented() {
            let mined = mine_command(name).unwrap();
            let score = evaluate_mined(&mined, lib.get(name));
            assert!(
                score.accuracy >= 0.95,
                "{name}: accuracy {} too low",
                score.accuracy
            );
            assert!(score.cases >= 1, "{name}: no cases mined");
        }
    }

    #[test]
    fn noisy_extraction_recovers_via_probing() {
        use crate::docmine::NoiseModel;
        let lib = SpecLibrary::builtin();
        // Phantom flags at rate 1.0: probing must eliminate them and the
        // final accuracy must be unaffected.
        let mined = crate::mine_command_noisy("rm", &NoiseModel::with_rates(0.0, 1.0, 3)).unwrap();
        let score = evaluate_mined(&mined, lib.get("rm"));
        assert!(score.accuracy > 0.99, "accuracy {}", score.accuracy);
        assert!(!mined
            .syntax
            .flags
            .iter()
            .any(|f| f.description == "(phantom)"));
    }
}
