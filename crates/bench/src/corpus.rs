//! Mutation corpus for the plan verifier (`patdnn_serve::verify`).
//!
//! The artifact codec and the verifier together make one promise: **no
//! byte stream reaches an executor unless every semantic invariant
//! holds**. This module attacks that promise mechanically. It compiles
//! a sweep of real artifacts (model family × precision × tuning policy,
//! encoded in every representable format version v1–v5), then derives
//! thousands of deterministic mutants along two tracks:
//!
//! - **Byte track** — single-byte flips (`^0xFF` and `^0x01`) at
//!   evenly-spread offsets plus truncation cuts. Every mutant must end
//!   in exactly one of three states: *decode-rejected* with a typed
//!   [`ArtifactError`]; *verifier-rejected* with a typed
//!   [`patdnn_serve::Violation`]; or *benign* — it decodes, verifies,
//!   and re-encodes **bit-identically** (the flip landed in a value the
//!   format faithfully represents, e.g. a weight). Anything else — a
//!   panic, or a lossy "benign" decode — is a corpus failure.
//! - **Semantic track** — in-memory plan mutations the wire format can
//!   represent but the verifier must refuse: slot-topology forgeries
//!   (in-place writes, use-before-def, out-of-range slots, forged slot
//!   counts), precision and algorithm tag forgeries, invalid exec
//!   configs, FKW index/offset/reorder corruption, broken quantization
//!   scales, and an i32-overflow accumulation depth. Each mutant names
//!   the invariant class expected to catch it; the verifier must report
//!   that class.
//!
//! No mutant is ever executed: the harness stops at decode + verify
//! (plus a re-encode for benign byte mutants), so `executed` must stay
//! zero by construction and the report asserts it. Everything is
//! seed-deterministic — the same corpus reproduces bit-for-bit across
//! runs, so a regression names the exact mutant that slipped through.
//!
//! Run via `repro verify-corpus` or the `verify_corpus` integration
//! test (quick mode).

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use patdnn_core::prune::pattern_project_network;
use patdnn_nn::calibrate::{calibrate_network, calibration_batch};
use patdnn_nn::models::{resnet_small, small_cnn};
use patdnn_serve::artifact::{
    ArtifactError, ExecConfig, LayerPlan, ModelArtifact, PlanStep, Precision,
};
use patdnn_serve::compile::{compile_network_with, CompileOptions};
use patdnn_serve::quant::quantize_artifact;
use patdnn_serve::tune::TunePolicy;
use patdnn_serve::verify::{verify, VerifyReport};
use patdnn_tensor::rng::Rng;
use patdnn_tensor::Tensor;

/// What the corpus run observed, with per-rejection-class counts.
///
/// Shared by the artifact corpus (this module) and the wire-frame
/// corpus ([`crate::wire_corpus`]); `title` names which one produced
/// the report.
#[derive(Debug, Default)]
pub struct CorpusReport {
    /// Which corpus produced this report (empty means the artifact
    /// corpus, `verify-corpus`).
    pub title: &'static str,
    /// Base artifacts compiled (before encoding-version expansion).
    pub artifacts: usize,
    /// Encoded byte streams the byte track mutated.
    pub encodings: usize,
    /// Total mutants exercised across both tracks.
    pub mutants: usize,
    /// Byte mutants that decoded, verified, and re-encoded
    /// bit-identically (the flip landed in represented data).
    pub benign: usize,
    /// Mutants refused at decode with a typed wire-format error.
    pub decode_rejected: usize,
    /// Mutants that decoded but were refused by the plan verifier.
    pub verify_rejected: usize,
    /// Mutants that reached an executor. Must be zero by construction.
    pub executed: usize,
    /// Panics observed anywhere in the pipeline. Must be zero.
    pub panics: usize,
    /// Rejection class → count. Decode rejections count under
    /// `decode:<variant>`, verifier rejections under the violated
    /// invariant's label (e.g. `verify:payload-invariant`).
    pub per_class: BTreeMap<String, usize>,
    /// Human-readable descriptions of every corpus failure (a panic, an
    /// accepted semantic mutant, a lossy benign decode, ...).
    pub failures: Vec<String>,
}

impl CorpusReport {
    /// Whether the corpus upheld the codec + verifier promise.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty() && self.panics == 0 && self.executed == 0
    }

    fn class(&mut self, label: String) {
        *self.per_class.entry(label).or_insert(0) += 1;
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let title = if self.title.is_empty() {
            "verify-corpus"
        } else {
            self.title
        };
        writeln!(
            f,
            "{title}: {} artifacts, {} encodings, {} mutants",
            self.artifacts, self.encodings, self.mutants
        )?;
        writeln!(
            f,
            "  outcomes: {} decode-rejected, {} verifier-rejected, {} benign, \
             {} executed, {} panics",
            self.decode_rejected, self.verify_rejected, self.benign, self.executed, self.panics
        )?;
        writeln!(f, "  rejection classes:")?;
        for (label, count) in &self.per_class {
            writeln!(f, "    {label:<40} {count}")?;
        }
        if self.failures.is_empty() {
            writeln!(f, "  failures: none")?;
        } else {
            writeln!(f, "  failures ({}):", self.failures.len())?;
            for failure in &self.failures {
                writeln!(f, "    {failure}")?;
            }
        }
        Ok(())
    }
}

/// One base artifact plus every format version that can represent it.
struct Base {
    label: String,
    artifact: ModelArtifact,
    /// `(version, bytes)` pairs; versions that cannot represent the
    /// plan (e.g. v1 for a DAG) are simply absent.
    encodings: Vec<(u16, Vec<u8>)>,
}

/// Re-encodes a decoded artifact in the same format version its mutant
/// came from, so the benign-mutant check compares like with like.
fn reencode(artifact: &ModelArtifact, version: u16) -> Result<Vec<u8>, ArtifactError> {
    match version {
        1 => artifact.encode_v1(),
        2 => artifact.encode_v2(),
        3 => artifact.encode_v3(),
        4 => artifact.encode_v4(),
        _ => Ok(artifact.encode()),
    }
}

/// Compiles the corpus's base artifacts: model family × precision ×
/// tuning policy, each expanded into every representable wire version.
fn build_bases(quick: bool, report: &mut CorpusReport) -> Vec<Base> {
    let mut bases = Vec::new();
    let mut push = |label: &str, artifact: ModelArtifact| {
        let mut encodings = vec![(5u16, artifact.encode())];
        for version in 1u16..=4 {
            if let Ok(bytes) = reencode(&artifact, version) {
                encodings.push((version, bytes));
            }
        }
        bases.push(Base {
            label: label.to_string(),
            artifact,
            encodings,
        });
    };

    let pruned_small = |seed: u64| {
        let mut rng = Rng::seed_from(seed);
        let mut net = small_cnn(3, 12, 4, &mut rng);
        pattern_project_network(&mut net, 8, 3.6);
        net
    };

    // Untuned f32 small CNN: chain topology, representable in v1–v5.
    let net = pruned_small(11);
    let plain = compile_network_with(
        "corpus_small",
        &net,
        [3, 12, 12],
        &CompileOptions::default(),
    )
    .expect("corpus base compiles");
    push("small_cnn-f32-off", plain.clone());

    // Estimator-tuned plan: per-step exec configs and (possibly)
    // non-direct algorithm tags, v5-centric.
    let tuned_opts = CompileOptions {
        tune: TunePolicy::Estimate,
        threads: 2,
        ..CompileOptions::default()
    };
    let tuned = compile_network_with("corpus_small_tuned", &net, [3, 12, 12], &tuned_opts)
        .expect("corpus tuned base compiles");
    push("small_cnn-f32-estimate", tuned);

    // INT8-quantized plan: quantized FKW payloads, precision tags.
    let profile =
        calibrate_network(&net, &calibration_batch([3, 12, 12], 2, 13)).expect("calibration");
    let quantized = quantize_artifact(&plain, &profile).expect("corpus quantized base");
    push("small_cnn-int8", quantized);

    // Residual DAG (Add joins, slot reuse) — the slot-topology checks'
    // real target. Skipped in quick mode: it dominates compile time.
    if !quick {
        let mut rng = Rng::seed_from(17);
        let mut net = resnet_small(10, &mut rng);
        pattern_project_network(&mut net, 8, 3.6);
        let dag = compile_network_with(
            "corpus_resnet",
            &net,
            [3, 32, 32],
            &CompileOptions::default(),
        )
        .expect("corpus dag base compiles");
        push("resnet_small-f32-off", dag);
    }

    report.artifacts = bases.len();
    report.encodings = bases.iter().map(|b| b.encodings.len()).sum();
    bases
}

/// Classifies one mutated byte stream. Decode and verify both run under
/// `catch_unwind`: a panic anywhere is a corpus failure, never an abort
/// of the run.
fn classify_bytes(label: &str, version: u16, bytes: &[u8], report: &mut CorpusReport) {
    report.mutants += 1;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        ModelArtifact::decode(bytes).map(|artifact| {
            let verdict = verify(&artifact);
            (artifact, verdict)
        })
    }));
    match outcome {
        Err(_) => {
            report.panics += 1;
            report
                .failures
                .push(format!("{label}: decode/verify panicked"));
        }
        Ok(Err(err)) => {
            report.decode_rejected += 1;
            report.class(format!("decode:{}", error_class(&err)));
        }
        Ok(Ok((_, verdict))) if !verdict.is_ok() => {
            report.verify_rejected += 1;
            report.class(format!("verify:{}", first_invariant(&verdict)));
        }
        Ok(Ok((artifact, _))) => {
            // The flip landed in represented data (a weight, a name
            // byte, ...). That is only acceptable if the decode was
            // lossless: re-encoding must reproduce the mutant exactly.
            match catch_unwind(AssertUnwindSafe(|| reencode(&artifact, version))) {
                Err(_) => {
                    report.panics += 1;
                    report.failures.push(format!("{label}: re-encode panicked"));
                }
                Ok(Ok(bytes2)) if bytes2 == bytes => report.benign += 1,
                Ok(_) => report.failures.push(format!(
                    "{label}: mutant decoded and verified but does not round-trip \
                     bit-identically (silent corruption)"
                )),
            }
        }
    }
}

/// The wire-format rejection class of a decode error.
fn error_class(err: &ArtifactError) -> &'static str {
    match err {
        ArtifactError::BadMagic => "bad-magic",
        ArtifactError::UnsupportedVersion(_) => "unsupported-version",
        ArtifactError::Truncated => "truncated",
        ArtifactError::Malformed(_) => "malformed",
        ArtifactError::Rejected(_) => "rejected",
        ArtifactError::Io(_) => "io",
    }
}

/// The invariant label of a report's first violation.
fn first_invariant(report: &VerifyReport) -> &'static str {
    report
        .violations
        .first()
        .map(|v| v.invariant())
        .unwrap_or("none")
}

/// The byte track: deterministic single-byte flips at evenly-spread
/// offsets, plus truncation cuts.
fn byte_track(bases: &[Base], quick: bool, report: &mut CorpusReport) {
    let flips = if quick { 40 } else { 160 };
    let cuts = if quick { 12 } else { 40 };
    for base in bases {
        for (version, bytes) in &base.encodings {
            let label = format!("{} v{version}", base.label);
            let n = bytes.len();
            for k in 0..flips.min(n) {
                // Evenly spread positions, always covering offset 0
                // (magic) and the final byte.
                let pos = if flips >= n {
                    k
                } else {
                    k * (n - 1) / (flips - 1)
                };
                for mask in [0xFFu8, 0x01] {
                    let mut mutant = bytes.clone();
                    mutant[pos] ^= mask;
                    classify_bytes(
                        &format!("{label} flip@{pos}^{mask:#04x}"),
                        *version,
                        &mutant,
                        report,
                    );
                }
            }
            for k in 0..cuts {
                let cut = k * n / cuts;
                classify_bytes(
                    &format!("{label} cut@{cut}"),
                    *version,
                    &bytes[..cut],
                    report,
                );
            }
        }
    }
}

/// A semantic mutant: a decodable plan the verifier must reject, with
/// the invariant class expected to catch it.
struct Semantic {
    label: String,
    artifact: ModelArtifact,
    expect: &'static str,
}

/// Derives the semantic mutants a base plan supports (a chain without
/// an `Add` join skips the arity forgery, an f32 plan skips the scale
/// forgeries, and so on).
fn semantic_mutants(base: &Base) -> Vec<Semantic> {
    let a = &base.artifact;
    let mut out = Vec::new();
    let mut push = |name: &str, expect: &'static str, mutate: &dyn Fn(&mut ModelArtifact)| {
        let mut m = a.clone();
        mutate(&mut m);
        out.push(Semantic {
            label: format!("{} {name}", base.label),
            artifact: m,
            expect,
        });
    };

    // Plan-level slot forgeries.
    push("slots=0", "no-input-slot", &|m| m.slots = 0);
    push("slots-forged", "slot-count", &|m| {
        m.slots = m.steps.len() + 7;
    });

    // Step-level topology forgeries, applied to the first step whose
    // input is not the network input slot.
    if let Some(i) = a.steps.iter().position(|s| s.inputs.first() != Some(&0)) {
        push("in-place-write", "in-place-write", &|m| {
            m.steps[i].output = m.steps[i].inputs[0];
        });
        push("write-input-slot", "output-slot-range", &|m| {
            m.steps[i].output = 0;
        });
        push("input-out-of-range", "input-slot-range", &|m| {
            m.steps[i].inputs[0] = m.slots + 3;
        });
    }
    if a.steps.len() >= 2 {
        // Step 0 always reads slot 0; redirecting it to the plan's last
        // slot reads a buffer no prior step has written.
        push("use-before-def", "use-before-def", &|m| {
            m.steps[0].inputs[0] = m.slots - 1;
        });
    }
    if let Some(i) = a
        .steps
        .iter()
        .position(|s| matches!(s.op, LayerPlan::Relu | LayerPlan::Flatten))
    {
        push("arity-forged", "arity", &|m| {
            let extra = m.steps[i].inputs[0];
            m.steps[i].inputs.push(extra);
        });
    }
    if let Some(i) = a
        .steps
        .iter()
        .position(|s| matches!(s.op, LayerPlan::Add { .. }) && s.inputs.len() == 2)
    {
        push("add-arity", "arity", &|m| {
            m.steps[i].inputs.pop();
        });
    }

    // Tag forgeries the v5 wire format can carry.
    push("precision-forged", "precision-flow", &|m| {
        m.steps[0].precision = match m.steps[0].precision {
            Precision::F32 => Precision::Int8,
            Precision::Int8 => Precision::F32,
        };
    });
    push("threads-zero", "exec-config", &|m| {
        m.steps[0].exec.threads = 0;
    });
    push("tile-not-pow2", "exec-config", &|m| {
        m.steps[0].exec.tuning.tile_oc = 3;
    });
    if let Some(i) = a
        .steps
        .iter()
        .position(|s| !matches!(s.op, LayerPlan::PatternConv { .. }))
    {
        push("algo-on-non-conv", "algo-eligibility", &|m| {
            m.steps[i].exec.algo = patdnn_compiler::tune::space::ConvAlgo::Winograd;
        });
    }

    // Payload forgeries: FKW structure, quantization scales.
    if let Some(i) = a
        .steps
        .iter()
        .position(|s| matches!(s.op, LayerPlan::PatternConv { .. }))
    {
        push("fkw-index-range", "payload-invariant", &|m| {
            if let LayerPlan::PatternConv { fkw, .. } = &mut m.steps[i].op {
                fkw.index[0] = fkw.in_c as u16;
            }
        });
        push("fkw-offsets-corrupt", "payload-invariant", &|m| {
            if let LayerPlan::PatternConv { fkw, .. } = &mut m.steps[i].op {
                *fkw.offsets.last_mut().expect("offsets nonempty") += 1;
            }
        });
        push("fkw-reorder-range", "payload-invariant", &|m| {
            if let LayerPlan::PatternConv { fkw, .. } = &mut m.steps[i].op {
                fkw.reorder[0] = fkw.out_c as u16;
            }
        });
        push("fkw-reorder-duplicate", "payload-invariant", &|m| {
            if let LayerPlan::PatternConv { fkw, .. } = &mut m.steps[i].op {
                fkw.reorder[1] = fkw.reorder[0];
            }
        });
        push("fkw-weights-truncated", "payload-invariant", &|m| {
            if let LayerPlan::PatternConv { fkw, .. } = &mut m.steps[i].op {
                fkw.weights.pop();
            }
        });
        push("conv-stride-zero", "payload-invariant", &|m| {
            if let LayerPlan::PatternConv { stride, .. } = &mut m.steps[i].op {
                *stride = 0;
            }
        });
    }
    if let Some(i) = a
        .steps
        .iter()
        .position(|s| matches!(s.op, LayerPlan::QuantPatternConv { .. }))
    {
        push("scale-negative", "scale-invalid", &|m| {
            if let LayerPlan::QuantPatternConv { qfkw, .. } = &mut m.steps[i].op {
                qfkw.scales[0] = -1.0;
            }
        });
        push("act-scale-nan", "scale-invalid", &|m| {
            if let LayerPlan::QuantPatternConv { qfkw, .. } = &mut m.steps[i].op {
                qfkw.act_scale = f32::NAN;
            }
        });
        push("algo-on-quant-conv", "algo-eligibility", &|m| {
            m.steps[i].exec.algo = patdnn_compiler::tune::space::ConvAlgo::Im2col;
        });
    }

    // Shape-flow forgery: an FC head whose declared input width
    // disagrees with the dataflow reaching it.
    if let Some(i) = a
        .steps
        .iter()
        .position(|s| matches!(s.op, LayerPlan::Fc { .. }))
    {
        push("fc-width-forged", "shape-flow", &|m| {
            if let LayerPlan::Fc { weights, .. } = &mut m.steps[i].op {
                let out_f = weights.shape()[0];
                let in_f = weights.shape()[1];
                *weights = Tensor::zeros(&[out_f, in_f + 1]);
            }
        });
    }
    if let Some(i) = a
        .steps
        .iter()
        .position(|s| matches!(s.op, LayerPlan::MaxPool { .. }))
    {
        push("pool-window-unfittable", "shape-flow", &|m| {
            if let LayerPlan::MaxPool { kernel, .. } = &mut m.steps[i].op {
                *kernel = 99;
            }
        });
    }

    out
}

/// A hand-built plan whose quantized FC reduction depth overflows an
/// i32 accumulator — compilers never emit one, so it is constructed
/// directly rather than mutated from a base.
fn overflow_depth_artifact() -> ModelArtifact {
    let in_f = 200_000; // 127 * 127 * 200_000 > i32::MAX
    ModelArtifact {
        name: "corpus_overflow".into(),
        input: [in_f, 1, 1],
        slots: 3,
        steps: vec![
            PlanStep {
                op: LayerPlan::Flatten,
                inputs: vec![0],
                output: 1,
                exec: ExecConfig::default(),
                precision: Precision::F32,
            },
            PlanStep {
                op: LayerPlan::QuantFc {
                    name: "head".into(),
                    out_f: 1,
                    in_f,
                    qweights: vec![1; in_f],
                    scales: vec![1.0],
                    act_scale: 1.0,
                    bias: vec![0.0],
                },
                inputs: vec![1],
                output: 2,
                exec: ExecConfig::default(),
                precision: Precision::Int8,
            },
        ],
    }
}

/// The semantic track: every mutant must be verifier-rejected, and the
/// report must name the forged invariant.
fn semantic_track(bases: &[Base], report: &mut CorpusReport) {
    let mut mutants: Vec<Semantic> = bases.iter().flat_map(semantic_mutants).collect();
    mutants.push(Semantic {
        label: "synthetic accumulation-depth".into(),
        artifact: overflow_depth_artifact(),
        expect: "accumulation-overflow",
    });

    for m in mutants {
        report.mutants += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(|| verify(&m.artifact))) {
            Ok(verdict) => verdict,
            Err(_) => {
                report.panics += 1;
                report
                    .failures
                    .push(format!("{}: verify panicked", m.label));
                continue;
            }
        };
        if verdict.is_ok() {
            report
                .failures
                .push(format!("{}: verifier ACCEPTED a forged plan", m.label));
            continue;
        }
        report.verify_rejected += 1;
        report.class(format!("verify:{}", first_invariant(&verdict)));
        if !verdict.violations.iter().any(|v| v.invariant() == m.expect) {
            report.failures.push(format!(
                "{}: rejected, but not for the forged invariant {:?} (got {:?})",
                m.label,
                m.expect,
                verdict
                    .violations
                    .iter()
                    .map(|v| v.invariant())
                    .collect::<Vec<_>>()
            ));
        }
    }
}

/// Runs the full corpus. `quick` shrinks the flip density and drops the
/// residual-DAG base (the integration test uses it; `repro
/// verify-corpus` runs the full sweep unless `--quick`).
pub fn run(quick: bool) -> CorpusReport {
    let mut report = CorpusReport::default();
    let bases = build_bases(quick, &mut report);

    // Sanity: every base must verify clean before it is mutated, or the
    // corpus would "reject" plans that were already broken.
    for base in &bases {
        let verdict = verify(&base.artifact);
        if !verdict.is_ok() {
            report.failures.push(format!(
                "base {} failed verification:\n{verdict}",
                base.label
            ));
        }
    }

    byte_track(&bases, quick, &mut report);
    semantic_track(&bases, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_artifact_is_rejected_for_accumulation() {
        let verdict = verify(&overflow_depth_artifact());
        assert!(verdict
            .violations
            .iter()
            .any(|v| v.invariant() == "accumulation-overflow"));
    }
}
