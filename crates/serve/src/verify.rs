//! The plan verifier: abstract interpretation over a decoded artifact.
//!
//! PatDNN's runtime executes blindly fast because everything that could
//! go wrong was ruled out before the first request: the compiler proves
//! the plan and the engine trusts it. This module is that proof,
//! gathered in one place. [`verify`] walks a [`ModelArtifact`]'s step
//! DAG once, propagating abstract values (per-item shapes and
//! precisions) through the buffer slots, and checks every semantic
//! invariant the serving stack relies on:
//!
//! - **Slot lifetimes** — every read slot is in range and written by an
//!   earlier step (def-before-use), no step writes its own input (the
//!   engine's disjoint borrows depend on it), no write is dead (its
//!   value is consumed before being overwritten, or it is the plan
//!   output), and every declared slot is used.
//! - **Shape dataflow** — channel and feature counts match each
//!   payload, convolution and pooling windows fit the flowing spatial
//!   size, residual joins see agreeing branch shapes, and slot reuse is
//!   shape-exact.
//! - **FKW/CSR index bounds** — the compressed-storage index arrays are
//!   exhaustively checked against the declared weight arrays (offsets
//!   cumulative, reorder a permutation, channel indices in range, stride runs
//!   tiling each filter), so the executors' inner loops never index out
//!   of bounds.
//! - **Accumulation proof** — every INT8 step's worst-case `i8 × i8 →
//!   i32` reduction depth is proven not to overflow.
//! - **Precision flow** — each step's stamped [`Precision`] agrees with
//!   its payload, and every quantized payload carries strictly positive
//!   finite dequantization scales.
//! - **Exec-config and algorithm eligibility** — tile/unroll/thread
//!   bounds, and the per-step [`ConvAlgo`]: non-direct lowerings are
//!   `f32` pattern-conv only, and Winograd additionally requires the
//!   3×3/stride-1/density conditions
//!   ([`crate::algo_exec::winograd_eligible`]).
//!
//! The verifier is the *single enforcement point* for these semantic
//! invariants: [`ModelArtifact::decode`] performs wire-format checks
//! only, [`ModelArtifact::load`] runs the verifier by default
//! ([`crate::artifact::LoadPolicy::Verify`]), and
//! [`crate::engine::Engine::new`] refuses any plan the verifier
//! rejects — then builds executors with no further checking, reusing
//! the shapes the analysis already computed.
//!
//! [`verify`] never fails fast: it collects *every* violation into a
//! [`VerifyReport`] so an operator linting an artifact
//! (`patdnn-serve --verify-only`) sees the whole damage at once. Each
//! [`Violation`] is typed — step index, slot, invariant class, and an
//! explanation — rather than a bare string.

use std::fmt;

use patdnn_compiler::tune::space::ConvAlgo;
use patdnn_core::pattern::Pattern;
use patdnn_runtime::quant_exec::accumulation_fits_i32;
use patdnn_tensor::{conv_out_dim, Conv2dGeometry};

use crate::algo_exec::winograd_eligible;
use crate::artifact::{LayerPlan, ModelArtifact, PlanStep, Precision};

/// One broken invariant, with enough structure for tooling: the step
/// (and slot, where meaningful) it anchors to, the invariant class
/// ([`Violation::invariant`]), and a human explanation ([`fmt::Display`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The plan declares zero slots; slot 0 (the network input) must
    /// always exist.
    NoInputSlot,
    /// More slots declared than the steps could ever write — each step
    /// writes exactly one slot, so a meaningful plan has at most
    /// `steps + 1` (checked before any per-slot allocation, so a tiny
    /// forged buffer cannot request gigabytes).
    SlotCount {
        /// Declared slot count.
        declared: usize,
        /// Number of plan steps.
        steps: usize,
    },
    /// A step reads a different number of slots than its op consumes.
    ArityMismatch {
        /// Step index.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// Slots the step reads.
        got: usize,
        /// Slots the op consumes.
        want: usize,
    },
    /// A step reads a slot outside the declared range.
    InputOutOfRange {
        /// Step index.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// The offending slot.
        slot: usize,
        /// Declared slot count.
        slots: usize,
    },
    /// A step reads a slot no earlier step wrote.
    UseBeforeDef {
        /// Step index.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// The unwritten slot.
        slot: usize,
    },
    /// A step writes slot 0 (the borrowed input) or a slot outside the
    /// declared range.
    OutputOutOfRange {
        /// Step index.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// The offending slot.
        slot: usize,
        /// Declared slot count.
        slots: usize,
    },
    /// A step writes one of its own input slots; the engine borrows
    /// inputs and output disjointly, so in-place steps are forbidden.
    InPlaceWrite {
        /// Step index.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// The aliased slot.
        slot: usize,
    },
    /// A step's output is never consumed: it is overwritten (or the
    /// plan ends) before any later step reads it, and it is not the
    /// plan output. Dead stores mean the plan executes work whose
    /// result cannot be observed — a compiled plan never contains one.
    DeadStore {
        /// The step whose write is dead.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// The slot whose value is lost.
        slot: usize,
    },
    /// A declared slot is never written and never read.
    UnusedSlot {
        /// The unused slot.
        slot: usize,
    },
    /// A step's stamped precision disagrees with its op payload — an
    /// `i8` payload cannot feed an `f32` executor or vice versa.
    PrecisionMismatch {
        /// Step index.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// The precision stamped on the step.
        stamped: Precision,
        /// The precision the payload executes at.
        payload: Precision,
    },
    /// A step's exec config is outside codec bounds (tile/unroll sizes
    /// must be nonzero powers of two, thread counts in range).
    ExecConfigInvalid {
        /// Step index.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// What exactly is out of bounds.
        detail: String,
    },
    /// A step demands a convolution lowering it cannot run: non-direct
    /// algorithms are `f32` pattern-conv only, and Winograd has hard
    /// shape/density conditions.
    AlgoIneligible {
        /// Step index.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// The demanded algorithm.
        algo: ConvAlgo,
        /// Why the step cannot run it.
        detail: String,
    },
    /// A weight payload's internal structure is inconsistent: FKW/CSR
    /// index arrays out of bounds or mis-sized, weight/bias/scale
    /// arities disagreeing with the declared geometry, or degenerate
    /// dimensions.
    PayloadInvariant {
        /// Step index.
        step: usize,
        /// Layer name (or kind label for unnamed ops).
        name: String,
        /// Which structural invariant failed.
        detail: String,
    },
    /// A quantized payload carries a dequantization scale that is not a
    /// strictly positive finite number; such a scale poisons every
    /// output element.
    ScaleInvalid {
        /// Step index.
        step: usize,
        /// Layer name.
        name: String,
        /// Which scale, and its value.
        detail: String,
    },
    /// An INT8 step's worst-case reduction depth can overflow its `i32`
    /// accumulator.
    AccumulationOverflow {
        /// Step index.
        step: usize,
        /// Layer name.
        name: String,
        /// Reduction depth (input channels or features).
        depth: usize,
        /// Entries accumulated per depth unit.
        entries: usize,
    },
    /// The shape flowing into a step does not satisfy the op: channel
    /// or feature counts disagree with the payload, a window does not
    /// fit the spatial input, a spatial op follows a flatten, or a
    /// residual join's branches disagree.
    ShapeFlow {
        /// Step index.
        step: usize,
        /// Op kind label.
        kind: &'static str,
        /// What about the flowing shape is wrong.
        detail: String,
    },
    /// Two steps write the same slot with different per-item shapes;
    /// liveness-shared buffers must be shape-exact.
    SlotShapeConflict {
        /// The later-writing step.
        step: usize,
        /// The contested slot.
        slot: usize,
        /// Shape of the earlier write.
        existing: Vec<usize>,
        /// Shape of this write.
        got: Vec<usize>,
    },
}

impl Violation {
    /// The step this violation anchors to, when it concerns one.
    pub fn step(&self) -> Option<usize> {
        match self {
            Violation::NoInputSlot | Violation::SlotCount { .. } | Violation::UnusedSlot { .. } => {
                None
            }
            Violation::ArityMismatch { step, .. }
            | Violation::InputOutOfRange { step, .. }
            | Violation::UseBeforeDef { step, .. }
            | Violation::OutputOutOfRange { step, .. }
            | Violation::InPlaceWrite { step, .. }
            | Violation::DeadStore { step, .. }
            | Violation::PrecisionMismatch { step, .. }
            | Violation::ExecConfigInvalid { step, .. }
            | Violation::AlgoIneligible { step, .. }
            | Violation::PayloadInvariant { step, .. }
            | Violation::ScaleInvalid { step, .. }
            | Violation::AccumulationOverflow { step, .. }
            | Violation::ShapeFlow { step, .. }
            | Violation::SlotShapeConflict { step, .. } => Some(*step),
        }
    }

    /// The slot this violation anchors to, when it concerns one.
    pub fn slot(&self) -> Option<usize> {
        match self {
            Violation::InputOutOfRange { slot, .. }
            | Violation::UseBeforeDef { slot, .. }
            | Violation::OutputOutOfRange { slot, .. }
            | Violation::InPlaceWrite { slot, .. }
            | Violation::DeadStore { slot, .. }
            | Violation::UnusedSlot { slot }
            | Violation::SlotShapeConflict { slot, .. } => Some(*slot),
            _ => None,
        }
    }

    /// Stable kebab-case label of the invariant class, for rejection
    /// accounting (the mutation corpus buckets mutants by this).
    pub fn invariant(&self) -> &'static str {
        match self {
            Violation::NoInputSlot => "no-input-slot",
            Violation::SlotCount { .. } => "slot-count",
            Violation::ArityMismatch { .. } => "arity",
            Violation::InputOutOfRange { .. } => "input-slot-range",
            Violation::UseBeforeDef { .. } => "use-before-def",
            Violation::OutputOutOfRange { .. } => "output-slot-range",
            Violation::InPlaceWrite { .. } => "in-place-write",
            Violation::DeadStore { .. } => "dead-store",
            Violation::UnusedSlot { .. } => "unused-slot",
            Violation::PrecisionMismatch { .. } => "precision-flow",
            Violation::ExecConfigInvalid { .. } => "exec-config",
            Violation::AlgoIneligible { .. } => "algo-eligibility",
            Violation::PayloadInvariant { .. } => "payload-invariant",
            Violation::ScaleInvalid { .. } => "scale-invalid",
            Violation::AccumulationOverflow { .. } => "accumulation-overflow",
            Violation::ShapeFlow { .. } => "shape-flow",
            Violation::SlotShapeConflict { .. } => "slot-shape-conflict",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NoInputSlot => write!(f, "plan needs at least the input slot"),
            Violation::SlotCount { declared, steps } => write!(
                f,
                "{declared} slots declared but {steps} steps can write at most {}",
                steps + 1
            ),
            Violation::ArityMismatch {
                step,
                kind,
                got,
                want,
            } => write!(
                f,
                "step {step} ({kind}): reads {got} slots, op arity is {want}"
            ),
            Violation::InputOutOfRange {
                step,
                kind,
                slot,
                slots,
            } => write!(
                f,
                "step {step} ({kind}): input slot {slot} out of range (plan has {slots})"
            ),
            Violation::UseBeforeDef { step, kind, slot } => write!(
                f,
                "step {step} ({kind}): reads slot {slot} before any step wrote it"
            ),
            Violation::OutputOutOfRange {
                step,
                kind,
                slot,
                slots,
            } => write!(
                f,
                "step {step} ({kind}): output slot {slot} out of range (plan has {slots})"
            ),
            Violation::InPlaceWrite { step, kind, slot } => {
                write!(f, "step {step} ({kind}): writes its own input slot {slot}")
            }
            Violation::DeadStore { step, kind, slot } => write!(
                f,
                "step {step} ({kind}): its write to slot {slot} is never read"
            ),
            Violation::UnusedSlot { slot } => {
                write!(f, "slot {slot} is declared but never written or read")
            }
            Violation::PrecisionMismatch {
                step,
                kind,
                stamped,
                payload,
            } => write!(
                f,
                "step {step} ({kind}): stamped precision {} disagrees with the {} op payload",
                stamped.label(),
                payload.label()
            ),
            Violation::ExecConfigInvalid { step, kind, detail } => {
                write!(f, "step {step} ({kind}): exec config: {detail}")
            }
            Violation::AlgoIneligible {
                step,
                kind,
                algo,
                detail,
            } => write!(
                f,
                "step {step} ({kind}): {} lowering rejected: {detail}",
                algo.label()
            ),
            Violation::PayloadInvariant { step, name, detail } => {
                write!(f, "step {step} ({name}): {detail}")
            }
            Violation::ScaleInvalid { step, name, detail } => {
                write!(f, "step {step} ({name}): {detail}")
            }
            Violation::AccumulationOverflow {
                step,
                name,
                depth,
                entries,
            } => write!(
                f,
                "step {step} ({name}): i8 accumulation depth {depth}x{entries} overflows i32"
            ),
            Violation::ShapeFlow { step, kind, detail } => {
                write!(f, "step {step} ({kind}): {detail}")
            }
            Violation::SlotShapeConflict {
                step,
                slot,
                existing,
                got,
            } => write!(
                f,
                "step {step}: slot {slot} shape conflict: {existing:?} vs {got:?} \
                 (artifact compiled for an incompatible resolution)"
            ),
        }
    }
}

/// The result of verifying one artifact: every violation found, plus
/// enough plan metadata to print a useful lint report.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Model name.
    pub model: String,
    /// Number of plan steps analyzed.
    pub steps: usize,
    /// Declared slot count.
    pub slots: usize,
    /// Every broken invariant, in plan order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// Whether the plan satisfies every invariant.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            write!(
                f,
                "plan {:?} verified: {} steps, {} slots, all invariants hold",
                self.model, self.steps, self.slots
            )
        } else {
            writeln!(
                f,
                "plan {:?} rejected: {} violation(s) across {} steps",
                self.model,
                self.violations.len(),
                self.steps
            )?;
            for v in &self.violations {
                writeln!(f, "  [{}] {v}", v.invariant())?;
            }
            Ok(())
        }
    }
}

/// Shapes the analysis proved, handed to the engine so it never
/// recomputes (or re-checks) the dataflow the verifier already walked.
/// Meaningful only when the accompanying report is clean; a poisoned
/// step (one downstream of a violation) carries empty shapes.
pub(crate) struct PlanFacts {
    /// Per-slot per-item shape; `None` for slot 0 (the borrowed input)
    /// and slots the plan never writes.
    pub slot_shapes: Vec<Option<Vec<usize>>>,
    /// Per-step first-input per-item shape.
    pub in_shapes: Vec<Vec<usize>>,
    /// Per-step output per-item shape.
    pub out_shapes: Vec<Vec<usize>>,
}

/// Verifies every semantic invariant of a decoded plan, collecting all
/// violations instead of stopping at the first.
pub fn verify(artifact: &ModelArtifact) -> VerifyReport {
    analyze(artifact).0
}

/// The full analysis: the public report plus the shape facts the engine
/// builds executors from.
pub(crate) fn analyze(artifact: &ModelArtifact) -> (VerifyReport, PlanFacts) {
    let n = artifact.steps.len();
    let mut facts = PlanFacts {
        slot_shapes: Vec::new(),
        in_shapes: vec![Vec::new(); n],
        out_shapes: vec![Vec::new(); n],
    };
    let mut v: Vec<Violation> = Vec::new();
    let report = |v: Vec<Violation>| VerifyReport {
        model: artifact.name.clone(),
        steps: n,
        slots: artifact.slots,
        violations: v,
    };

    // Plan-level bounds come first: the per-slot state below allocates
    // `slots` entries, so a forged slot count must be refused before it.
    if artifact.slots == 0 {
        v.push(Violation::NoInputSlot);
        return (report(v), facts);
    }
    if artifact.slots > n + 1 {
        v.push(Violation::SlotCount {
            declared: artifact.slots,
            steps: n,
        });
        return (report(v), facts);
    }

    let slots = artifact.slots;
    let mut written = vec![false; slots];
    written[0] = true; // the network input
    let mut ever_read = vec![false; slots];
    // The step whose write to this slot has not been read yet.
    let mut unread_writer: Vec<Option<usize>> = vec![None; slots];
    let mut slot_shapes: Vec<Option<Vec<usize>>> = vec![None; slots];
    let input_shape: Vec<usize> = artifact.input.to_vec();

    for (i, step) in artifact.steps.iter().enumerate() {
        let kind = step.op.kind();
        let mut inputs_ok = true;
        if step.inputs.len() != step.op.arity() {
            v.push(Violation::ArityMismatch {
                step: i,
                kind,
                got: step.inputs.len(),
                want: step.op.arity(),
            });
            inputs_ok = false;
        }
        for &s in &step.inputs {
            if s >= slots {
                v.push(Violation::InputOutOfRange {
                    step: i,
                    kind,
                    slot: s,
                    slots,
                });
                inputs_ok = false;
                continue;
            }
            if !written[s] {
                v.push(Violation::UseBeforeDef {
                    step: i,
                    kind,
                    slot: s,
                });
                inputs_ok = false;
            }
            ever_read[s] = true;
            unread_writer[s] = None;
        }

        let out = step.output;
        let mut output_ok = true;
        if out == 0 || out >= slots {
            v.push(Violation::OutputOutOfRange {
                step: i,
                kind,
                slot: out,
                slots,
            });
            output_ok = false;
        }
        if step.inputs.contains(&out) {
            v.push(Violation::InPlaceWrite {
                step: i,
                kind,
                slot: out,
            });
            output_ok = false;
        }

        if let Err(detail) = step.exec.validate() {
            v.push(Violation::ExecConfigInvalid {
                step: i,
                kind,
                detail,
            });
        }
        if step.precision != step.op.precision() {
            v.push(Violation::PrecisionMismatch {
                step: i,
                kind,
                stamped: step.precision,
                payload: step.op.precision(),
            });
        }

        // The abstract value flowing into this step: `None` poisons the
        // dataflow when an upstream violation left the shape unknown.
        let in_shape: Option<Vec<usize>> = if inputs_ok {
            match step.inputs.first() {
                Some(0) => Some(input_shape.clone()),
                Some(&s) => slot_shapes[s].clone(),
                None => None,
            }
        } else {
            None
        };
        let second_shape: Option<Vec<usize>> = if inputs_ok && step.inputs.len() == 2 {
            match step.inputs[1] {
                0 => Some(input_shape.clone()),
                s => slot_shapes[s].clone(),
            }
        } else {
            None
        };

        let out_shape = check_op(
            i,
            step,
            in_shape.as_deref(),
            second_shape.as_deref(),
            &mut v,
        );

        if output_ok {
            if let Some(prev) = unread_writer[out] {
                v.push(Violation::DeadStore {
                    step: prev,
                    kind: artifact.steps[prev].op.kind(),
                    slot: out,
                });
            }
            written[out] = true;
            unread_writer[out] = Some(i);
            if let Some(os) = &out_shape {
                match &slot_shapes[out] {
                    None => slot_shapes[out] = Some(os.clone()),
                    Some(existing) if existing != os => v.push(Violation::SlotShapeConflict {
                        step: i,
                        slot: out,
                        existing: existing.clone(),
                        got: os.clone(),
                    }),
                    Some(_) => {}
                }
            }
        }

        facts.in_shapes[i] = in_shape.unwrap_or_default();
        facts.out_shapes[i] = out_shape.unwrap_or_default();
    }

    // Liveness epilogue: the last step's write is the plan output; any
    // other still-unread write is dead, and a slot nobody ever touched
    // should not have been declared.
    for s in 1..slots {
        if let Some(w) = unread_writer[s] {
            if w + 1 != n {
                v.push(Violation::DeadStore {
                    step: w,
                    kind: artifact.steps[w].op.kind(),
                    slot: s,
                });
            }
        }
        if !written[s] && !ever_read[s] {
            v.push(Violation::UnusedSlot { slot: s });
        }
    }

    facts.slot_shapes = slot_shapes;
    (report(v), facts)
}

/// Extracts `[c, h, w]` when the flowing shape is still spatial.
fn spatial(shape: &[usize]) -> Option<[usize; 3]> {
    match shape {
        [c, h, w] => Some([*c, *h, *w]),
        _ => None,
    }
}

/// The window-fit condition `conv_out_dim` would otherwise panic on.
fn window_fits(kernel: usize, h: usize, w: usize, pad: usize) -> bool {
    h + 2 * pad >= kernel && w + 2 * pad >= kernel
}

/// Per-op payload and shape-flow checks. Returns the step's per-item
/// output shape when the abstract input was known and the op accepts
/// it; `None` poisons downstream steps (their shape checks are skipped,
/// but the violations recorded here already condemn the plan).
fn check_op(
    i: usize,
    step: &PlanStep,
    in_shape: Option<&[usize]>,
    second_shape: Option<&[usize]>,
    v: &mut Vec<Violation>,
) -> Option<Vec<usize>> {
    let kind = step.op.kind();
    let algo = step.exec.algo;
    // Non-direct lowerings exist for f32 pattern convs only; every
    // other op must carry the direct tag (forged v5 tags land here).
    let direct_only = |v: &mut Vec<Violation>| {
        if algo != ConvAlgo::Direct {
            v.push(Violation::AlgoIneligible {
                step: i,
                kind,
                algo,
                detail: format!(
                    "the {} lowering is f32 pattern-conv only; {kind} steps run direct",
                    algo.label()
                ),
            });
        }
    };
    match &step.op {
        LayerPlan::PatternConv {
            name,
            stride,
            pad,
            fkw,
            bias,
            relu: _,
        } => {
            let structure_ok = check_fkw_structure(
                i,
                name,
                v,
                FkwView {
                    out_c: fkw.out_c,
                    in_c: fkw.in_c,
                    kernel: fkw.kernel,
                    entries_per_kernel: fkw.entries_per_kernel,
                    patterns: &fkw.patterns,
                    offsets: &fkw.offsets,
                    reorder: &fkw.reorder,
                    index: &fkw.index,
                    stride: &fkw.stride,
                    weight_len: fkw.weights.len(),
                },
            );
            check_bias(i, name, bias.as_deref(), fkw.out_c, v);
            if *stride == 0 {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "zero conv stride".into(),
                });
                return None;
            }
            let [c, h, w] = conv_input(i, kind, name, in_shape, v)?;
            if c != fkw.in_c {
                v.push(Violation::ShapeFlow {
                    step: i,
                    kind,
                    detail: format!("{name}: expects {} input channels, got {c}", fkw.in_c),
                });
                return None;
            }
            if !check_window(i, kind, name, fkw.kernel, *stride, *pad, h, w, v) || !structure_ok {
                return None;
            }
            let geo = Conv2dGeometry::new(
                fkw.out_c, fkw.in_c, fkw.kernel, fkw.kernel, h, w, *stride, *pad,
            );
            if algo == ConvAlgo::Winograd {
                if let Err(why) = winograd_eligible(&geo, fkw) {
                    v.push(Violation::AlgoIneligible {
                        step: i,
                        kind,
                        algo,
                        detail: why.to_string(),
                    });
                }
            }
            Some(vec![geo.out_channels, geo.out_h, geo.out_w])
        }
        LayerPlan::DenseConv {
            name,
            stride,
            pad,
            weights,
            bias,
            relu: _,
        } => {
            direct_only(v);
            let &[oc, ic, kh, kw] = weights.shape() else {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "conv weights must be OIHW".into(),
                });
                return None;
            };
            if oc == 0 || ic == 0 || kh == 0 || kw == 0 {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "degenerate conv weights".into(),
                });
                return None;
            }
            check_bias(i, name, bias.as_deref(), oc, v);
            if *stride == 0 {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "zero conv stride".into(),
                });
                return None;
            }
            let [c, h, w] = conv_input(i, kind, name, in_shape, v)?;
            if c != ic {
                v.push(Violation::ShapeFlow {
                    step: i,
                    kind,
                    detail: format!("{name}: expects {ic} input channels, got {c}"),
                });
                return None;
            }
            if !check_window(i, kind, name, kh.max(kw), *stride, *pad, h, w, v) {
                return None;
            }
            let geo = Conv2dGeometry::new(oc, ic, kh, kw, h, w, *stride, *pad);
            Some(vec![geo.out_channels, geo.out_h, geo.out_w])
        }
        LayerPlan::MaxPool {
            kernel,
            stride,
            pad,
        } => {
            direct_only(v);
            if *kernel == 0 || *stride == 0 {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: kind.into(),
                    detail: "degenerate maxpool window".into(),
                });
                return None;
            }
            let [c, h, w] = conv_input(i, kind, kind, in_shape, v)?;
            if !check_window(i, kind, kind, *kernel, *stride, *pad, h, w, v) {
                return None;
            }
            Some(vec![
                c,
                conv_out_dim(h, *kernel, *stride, *pad),
                conv_out_dim(w, *kernel, *stride, *pad),
            ])
        }
        LayerPlan::GlobalAvgPool => {
            direct_only(v);
            let [c, _, _] = conv_input(i, kind, kind, in_shape, v)?;
            Some(vec![c, 1, 1])
        }
        LayerPlan::Flatten => {
            direct_only(v);
            in_shape.map(|s| vec![s.iter().product()])
        }
        LayerPlan::Relu => {
            direct_only(v);
            in_shape.map(|s| s.to_vec())
        }
        LayerPlan::Fc {
            name,
            weights,
            bias,
        } => {
            direct_only(v);
            let &[out_f, in_f] = weights.shape() else {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "fc weights must be 2-d".into(),
                });
                return None;
            };
            if bias.len() != out_f {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "fc bias arity".into(),
                });
            }
            let features: usize = in_shape?.iter().product();
            if features != in_f {
                v.push(Violation::ShapeFlow {
                    step: i,
                    kind,
                    detail: format!("{name}: expects {in_f} input features, got {features}"),
                });
                return None;
            }
            Some(vec![out_f])
        }
        LayerPlan::Add { relu: _ } => {
            direct_only(v);
            let a = in_shape?;
            let b = second_shape?;
            if a != b {
                v.push(Violation::ShapeFlow {
                    step: i,
                    kind,
                    detail: format!("branch shapes disagree ({a:?} vs {b:?})"),
                });
                return None;
            }
            Some(a.to_vec())
        }
        LayerPlan::QuantPatternConv {
            name,
            stride,
            pad,
            qfkw,
            bias,
            relu: _,
        } => {
            direct_only(v);
            let structure_ok = check_fkw_structure(
                i,
                name,
                v,
                FkwView {
                    out_c: qfkw.out_c,
                    in_c: qfkw.in_c,
                    kernel: qfkw.kernel,
                    entries_per_kernel: qfkw.entries_per_kernel,
                    patterns: &qfkw.patterns,
                    offsets: &qfkw.offsets,
                    reorder: &qfkw.reorder,
                    index: &qfkw.index,
                    stride: &qfkw.stride,
                    weight_len: qfkw.qweights.len(),
                },
            );
            if qfkw.scales.len() != qfkw.out_c {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "FKW per-filter scale arity".into(),
                });
            }
            check_scales(i, name, &qfkw.scales, qfkw.act_scale, v);
            // The INT8 executor accumulates in i32; prove the layer's
            // worst-case reduction depth fits before it ever runs.
            if !accumulation_fits_i32(qfkw.in_c, qfkw.entries_per_kernel) {
                v.push(Violation::AccumulationOverflow {
                    step: i,
                    name: name.clone(),
                    depth: qfkw.in_c,
                    entries: qfkw.entries_per_kernel,
                });
            }
            check_bias(i, name, bias.as_deref(), qfkw.out_c, v);
            if *stride == 0 {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "zero conv stride".into(),
                });
                return None;
            }
            let [c, h, w] = conv_input(i, kind, name, in_shape, v)?;
            if c != qfkw.in_c {
                v.push(Violation::ShapeFlow {
                    step: i,
                    kind,
                    detail: format!("{name}: expects {} input channels, got {c}", qfkw.in_c),
                });
                return None;
            }
            if !check_window(i, kind, name, qfkw.kernel, *stride, *pad, h, w, v) || !structure_ok {
                return None;
            }
            Some(vec![
                qfkw.out_c,
                conv_out_dim(h, qfkw.kernel, *stride, *pad),
                conv_out_dim(w, qfkw.kernel, *stride, *pad),
            ])
        }
        LayerPlan::QuantFc {
            name,
            out_f,
            in_f,
            qweights,
            scales,
            act_scale,
            bias,
        } => {
            direct_only(v);
            if *out_f == 0 || *in_f == 0 {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "degenerate fc dimensions".into(),
                });
                return None;
            }
            if qweights.len() != out_f * in_f {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "quantized weight arity".into(),
                });
            }
            if scales.len() != *out_f || bias.len() != *out_f {
                v.push(Violation::PayloadInvariant {
                    step: i,
                    name: name.clone(),
                    detail: "scale/bias arity".into(),
                });
            }
            check_scales(i, name, scales, *act_scale, v);
            // The FC reduction depth is `in_f` saturated products.
            if !accumulation_fits_i32(*in_f, 1) {
                v.push(Violation::AccumulationOverflow {
                    step: i,
                    name: name.clone(),
                    depth: *in_f,
                    entries: 1,
                });
            }
            let features: usize = in_shape?.iter().product();
            if features != *in_f {
                v.push(Violation::ShapeFlow {
                    step: i,
                    kind,
                    detail: format!("{name}: expects {in_f} input features, got {features}"),
                });
                return None;
            }
            Some(vec![*out_f])
        }
    }
}

/// Requires a spatial `[c, h, w]` input (convolutions and poolings
/// cannot follow a flatten).
fn conv_input(
    i: usize,
    kind: &'static str,
    name: &str,
    in_shape: Option<&[usize]>,
    v: &mut Vec<Violation>,
) -> Option<[usize; 3]> {
    let shape = in_shape?;
    match spatial(shape) {
        Some(chw) => Some(chw),
        None => {
            v.push(Violation::ShapeFlow {
                step: i,
                kind,
                detail: format!("{name}: spatial op after flatten (input shape {shape:?})"),
            });
            None
        }
    }
}

/// Window-fit check mirroring what `conv_out_dim` would panic on.
#[allow(clippy::too_many_arguments)]
fn check_window(
    i: usize,
    kind: &'static str,
    name: &str,
    kernel: usize,
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
    v: &mut Vec<Violation>,
) -> bool {
    debug_assert!(
        kernel > 0 && stride > 0,
        "degenerate payloads caught earlier"
    );
    if !window_fits(kernel, h, w, pad) {
        v.push(Violation::ShapeFlow {
            step: i,
            kind,
            detail: format!(
                "{name}: {kernel}x{kernel} window does not fit {h}x{w} input with pad {pad}"
            ),
        });
        return false;
    }
    true
}

fn check_bias(i: usize, name: &str, bias: Option<&[f32]>, out_c: usize, v: &mut Vec<Violation>) {
    if let Some(b) = bias {
        if b.len() != out_c {
            v.push(Violation::PayloadInvariant {
                step: i,
                name: name.to_owned(),
                detail: format!("bias arity ({} entries for {out_c} filters)", b.len()),
            });
        }
    }
}

/// Dequantization scales must be strictly positive finite numbers: a
/// zero, negative, or non-finite scale poisons every output element.
fn check_scales(i: usize, name: &str, scales: &[f32], act_scale: f32, v: &mut Vec<Violation>) {
    if !(act_scale.is_finite() && act_scale > 0.0) {
        v.push(Violation::ScaleInvalid {
            step: i,
            name: name.to_owned(),
            detail: format!("activation scale {act_scale} is invalid"),
        });
    }
    if let Some(s) = scales.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
        v.push(Violation::ScaleInvalid {
            step: i,
            name: name.to_owned(),
            detail: format!("weight scale {s} is invalid"),
        });
    }
}

/// The precision-independent view of FKW storage the index-bounds
/// checks run over, shared between the `f32` and INT8 payloads.
struct FkwView<'a> {
    out_c: usize,
    in_c: usize,
    kernel: usize,
    entries_per_kernel: usize,
    patterns: &'a [Pattern],
    offsets: &'a [u32],
    reorder: &'a [u16],
    index: &'a [u16],
    stride: &'a [u16],
    weight_len: usize,
}

/// Exhaustive FKW/CSR index-bounds checking: everything the executors'
/// inner loops index with must be proven in range here, so a corrupted
/// artifact is refused before a worker ever touches it. Returns whether
/// the structure is sound (geometry construction downstream needs it).
fn check_fkw_structure(i: usize, name: &str, v: &mut Vec<Violation>, fkw: FkwView<'_>) -> bool {
    let mut fail = |detail: &str| {
        v.push(Violation::PayloadInvariant {
            step: i,
            name: name.to_owned(),
            detail: format!("FKW {detail}"),
        });
        false
    };
    if fkw.out_c == 0 || fkw.in_c == 0 || !(1..=7).contains(&fkw.kernel) {
        return fail("degenerate layer dimensions");
    }
    if fkw
        .patterns
        .iter()
        .any(|p| p.kernel() != fkw.kernel || p.entries() != fkw.entries_per_kernel)
    {
        return fail("pattern table disagrees with layer kernel");
    }
    if fkw.offsets.len() != fkw.out_c + 1 || fkw.reorder.len() != fkw.out_c {
        return fail("filter-level arity");
    }
    if fkw.offsets[0] != 0
        || fkw.offsets.windows(2).any(|w| w[0] > w[1])
        || fkw.offsets[fkw.out_c] as usize != fkw.index.len()
    {
        return fail("offsets are not a cumulative kernel count");
    }
    if fkw.reorder.iter().any(|&f| f as usize >= fkw.out_c) {
        return fail("reorder entry out of filter range");
    }
    // Each output plane is written by exactly one storage row.
    let mut seen = vec![false; fkw.out_c];
    if fkw
        .reorder
        .iter()
        .any(|&f| std::mem::replace(&mut seen[f as usize], true))
    {
        return fail("reorder is not a permutation of the filters");
    }
    if fkw.index.iter().any(|&ic| ic as usize >= fkw.in_c) {
        return fail("kernel index out of channel range");
    }
    let np = fkw.patterns.len();
    if fkw.stride.len() != fkw.out_c * (np + 1) {
        return fail("stride arity");
    }
    for row in 0..fkw.out_c {
        let runs = &fkw.stride[row * (np + 1)..(row + 1) * (np + 1)];
        let row_kernels = (fkw.offsets[row + 1] - fkw.offsets[row]) as usize;
        if runs[0] != 0 || runs.windows(2).any(|w| w[0] > w[1]) || runs[np] as usize != row_kernels
        {
            return fail("stride runs do not tile the filter");
        }
    }
    if fkw.weight_len != fkw.index.len() * fkw.entries_per_kernel {
        return fail("weight arity");
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ExecConfig;
    use patdnn_compiler::fkr::filter_kernel_reorder;
    use patdnn_compiler::fkw::FkwLayer;
    use patdnn_core::pattern_set::PatternSet;
    use patdnn_core::project::prune_layer;
    use patdnn_tensor::rng::Rng;
    use patdnn_tensor::Tensor;

    fn relu_step(input: usize, output: usize) -> crate::artifact::PlanStep {
        crate::artifact::PlanStep::new(LayerPlan::Relu, vec![input], output)
    }

    fn pruned_conv(seed: u64, rate: usize) -> FkwLayer {
        let mut rng = Rng::seed_from(seed);
        let mut w = Tensor::randn(&[4, 4, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, rate);
        let order = filter_kernel_reorder(&lp);
        FkwLayer::from_pruned(&w, &lp, &set, &order)
    }

    fn conv_chain(fkw: FkwLayer, stride: usize) -> ModelArtifact {
        ModelArtifact::chain(
            "conv",
            [4, 6, 6],
            vec![LayerPlan::PatternConv {
                name: "c".into(),
                stride,
                pad: 1,
                fkw,
                bias: None,
                relu: false,
            }],
        )
    }

    #[test]
    fn clean_chain_verifies_with_shape_facts() {
        let artifact = ModelArtifact::chain(
            "clean",
            [2, 4, 4],
            vec![
                LayerPlan::MaxPool {
                    kernel: 2,
                    stride: 2,
                    pad: 0,
                },
                LayerPlan::Flatten,
            ],
        );
        let (report, facts) = analyze(&artifact);
        assert!(report.is_ok(), "unexpected violations: {report}");
        assert_eq!(facts.in_shapes[0], vec![2, 4, 4]);
        assert_eq!(facts.out_shapes[0], vec![2, 2, 2]);
        assert_eq!(facts.out_shapes[1], vec![8]);
        assert_eq!(facts.slot_shapes[2], Some(vec![8]));
        assert!(report.to_string().contains("all invariants hold"));
    }

    #[test]
    fn verify_collects_every_violation_not_just_the_first() {
        // Step 0 writes its own input AND carries a zero-thread config;
        // both must be reported in one pass.
        let mut artifact = ModelArtifact {
            name: "multi".into(),
            input: [1, 4, 4],
            slots: 2,
            steps: vec![relu_step(1, 1)],
        };
        artifact.steps[0].exec.threads = 0;
        let report = verify(&artifact);
        let invariants: Vec<&str> = report.violations.iter().map(|v| v.invariant()).collect();
        assert!(invariants.contains(&"in-place-write"), "{invariants:?}");
        assert!(invariants.contains(&"use-before-def"), "{invariants:?}");
        assert!(invariants.contains(&"exec-config"), "{invariants:?}");
    }

    #[test]
    fn dead_stores_and_unused_slots_are_reported() {
        // Step 0's write to slot 1 is overwritten by step 1 before any
        // read, and slot 2 is declared but never touched.
        let artifact = ModelArtifact {
            name: "liveness".into(),
            input: [1, 4, 4],
            slots: 3,
            steps: vec![relu_step(0, 1), relu_step(0, 1)],
        };
        let report = verify(&artifact);
        assert!(report.violations.contains(&Violation::DeadStore {
            step: 0,
            kind: "relu",
            slot: 1
        }));
        assert!(report
            .violations
            .contains(&Violation::UnusedSlot { slot: 2 }));
    }

    #[test]
    fn intermediate_write_never_read_is_a_dead_store() {
        // Step 1 writes slot 2 which no later step reads, and the plan
        // output is slot 1 (written by the last step).
        let artifact = ModelArtifact {
            name: "dangling".into(),
            input: [1, 4, 4],
            slots: 3,
            steps: vec![relu_step(0, 2), relu_step(0, 1)],
        };
        let report = verify(&artifact);
        assert_eq!(
            report.violations,
            vec![Violation::DeadStore {
                step: 0,
                kind: "relu",
                slot: 2
            }]
        );
    }

    #[test]
    fn winograd_demands_stride_one() {
        let mut artifact = conv_chain(pruned_conv(7, 8), 2);
        artifact.steps[0].exec.algo = ConvAlgo::Winograd;
        let report = verify(&artifact);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant() == "algo-eligibility"),
            "{report}"
        );
    }

    #[test]
    fn non_direct_algo_on_data_movement_step_is_ineligible() {
        let mut artifact = ModelArtifact::chain(
            "pool",
            [1, 4, 4],
            vec![LayerPlan::MaxPool {
                kernel: 2,
                stride: 2,
                pad: 0,
            }],
        );
        artifact.steps[0].exec.algo = ConvAlgo::Im2col;
        let report = verify(&artifact);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::AlgoIneligible { step: 0, .. }]
            ),
            "{report}"
        );
    }

    #[test]
    fn shape_poisoning_suppresses_downstream_shape_checks() {
        // The conv's channel mismatch poisons its output shape; the
        // flatten and fc downstream must not add spurious shape-flow
        // violations on the unknown shape.
        let artifact = ModelArtifact::chain(
            "poison",
            [3, 6, 6], // conv expects 4 channels
            vec![
                LayerPlan::PatternConv {
                    name: "c".into(),
                    stride: 1,
                    pad: 1,
                    fkw: pruned_conv(11, 8),
                    bias: None,
                    relu: false,
                },
                LayerPlan::Flatten,
                LayerPlan::Fc {
                    name: "fc".into(),
                    weights: Tensor::zeros(&[2, 9]),
                    bias: vec![0.0; 2],
                },
            ],
        );
        let report = verify(&artifact);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].invariant(), "shape-flow");
        assert_eq!(report.violations[0].step(), Some(0));
    }

    #[test]
    fn corrupt_fkw_offsets_are_a_payload_invariant() {
        let mut fkw = pruned_conv(13, 8);
        fkw.offsets[1] = fkw.offsets[fkw.out_c] + 7;
        let report = verify(&conv_chain(fkw, 1));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant() == "payload-invariant"),
            "{report}"
        );
    }

    #[test]
    fn violation_display_names_the_step_and_slot() {
        let artifact = ModelArtifact {
            name: "display".into(),
            input: [1, 4, 4],
            slots: 2,
            steps: vec![crate::artifact::PlanStep {
                op: LayerPlan::Relu,
                inputs: vec![9],
                output: 1,
                exec: ExecConfig::default(),
                precision: crate::artifact::Precision::F32,
            }],
        };
        let report = verify(&artifact);
        let text = report.to_string();
        assert!(text.contains("input-slot-range"), "{text}");
        assert!(text.contains("slot 9"), "{text}");
        assert_eq!(report.violations[0].slot(), Some(9));
    }
}
