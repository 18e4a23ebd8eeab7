//! Warm-engine allocation budget: the slot-based plan must execute the
//! pattern-conv path out of pooled buffers, allocating nothing for
//! intermediate activations once warm.
//!
//! A counting global allocator (this test binary's only job — the
//! allocator is process-global) measures allocations across warm
//! `infer` calls. The budget is the response envelope only: cloning the
//! output slot into the returned tensor (data + shape vectors). Every
//! plan-internal buffer — conv outputs, pool outputs, residual-join
//! operands — must come from the reused slot set, so the count is flat
//! in plan depth and identical call over call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump;
// every layout/pointer contract is `System`'s own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

use patdnn_compiler::tune::space::ConvAlgo;
use patdnn_core::prune::pattern_project_network;
use patdnn_nn::models::{resnet_small, vgg_small};
use patdnn_nn::network::Sequential;
use patdnn_serve::algo_exec::{fkw_density, WINOGRAD_DENSITY_THRESHOLD};
use patdnn_serve::compile::compile_network;
use patdnn_serve::engine::{Engine, EngineOptions};
use patdnn_serve::{LayerPlan, Precision};
use patdnn_tensor::rng::Rng;
use patdnn_tensor::Tensor;

/// The response envelope: the output tensor clone (data vec + shape
/// vec). Nothing else allocates on a warm call; the pattern executors
/// pool their zero-padded inputs like every other scratch buffer.
const WARM_CALL_BUDGET: usize = 2;

/// Allocations of one warm `infer` call, asserted steady call over call.
fn count_warm(engine: &Engine, name: &str) -> usize {
    let mut rng = Rng::seed_from(77);
    let x = Tensor::randn(&[1, 3, 32, 32], &mut rng);

    // Warm up: first call allocates the slot buffers, second settles any
    // lazy internals.
    engine.infer(&x).expect("warmup 1");
    engine.infer(&x).expect("warmup 2");

    let before = allocations();
    engine.infer(&x).expect("warm call");
    let per_call = allocations() - before;

    // The count must also be stable call over call, not just small.
    let again = allocations();
    engine.infer(&x).expect("warm call 2");
    assert_eq!(
        allocations() - again,
        per_call,
        "{name}: warm allocation count must be steady"
    );
    per_call
}

fn warm_allocation_count(mut net: Sequential, name: &str, precision: Precision) -> usize {
    pattern_project_network(&mut net, 8, 3.6);
    let artifact = match precision {
        Precision::F32 => compile_network(name, &net, [3, 32, 32]).expect("compiles"),
        Precision::Int8 => {
            let calib = patdnn_nn::calibrate::calibration_batch([3, 32, 32], 4, 7);
            patdnn_serve::quant::compile_network_int8(
                name,
                &net,
                [3, 32, 32],
                &patdnn_serve::CompileOptions::default(),
                &calib,
            )
            .expect("quantized compile")
        }
    };
    assert!(
        artifact.steps.iter().all(|s| s.op.kind() != "dense-conv"),
        "{name}: budget only holds on the pattern-conv path"
    );
    let engine = Engine::new(artifact, EngineOptions::default()).expect("engine");
    // Weight pre-packing happens at load: the FC (and any quantized FC)
    // weights are already in micro-kernel panel layout, so the warm path
    // never packs weights.
    assert!(
        engine.packed_weight_bytes() > 0,
        "{name}: weights must pre-pack at engine build"
    );
    count_warm(&engine, name)
}

/// Allocations of a warm engine whose pattern convs run the *densified*
/// micro-kernel lowerings: the executors pack weights at build and pool
/// their patch/panel/tile scratch, so the warm path stays inside the
/// same envelope. Pruned lightly (1.5x) so the layers clear the
/// Winograd density gate; eligible steps alternate between the two
/// densified executors so both pooled paths are measured.
fn warm_allocation_count_densified(mut net: Sequential, name: &str) -> usize {
    pattern_project_network(&mut net, 8, 1.5);
    let mut artifact = compile_network(name, &net, [3, 32, 32]).expect("compiles");
    let (mut wino, mut im2col) = (0, 0);
    for step in &mut artifact.steps {
        if let LayerPlan::PatternConv { stride, fkw, .. } = &step.op {
            let eligible =
                *stride == 1 && fkw.kernel == 3 && fkw_density(fkw) >= WINOGRAD_DENSITY_THRESHOLD;
            step.exec.algo = if eligible && (wino + im2col) % 2 == 0 {
                wino += 1;
                ConvAlgo::Winograd
            } else {
                im2col += 1;
                ConvAlgo::Im2col
            };
        }
    }
    assert!(
        wino > 0 && im2col > 0,
        "{name}: scenario must exercise both densified executors (wino {wino}, im2col {im2col})"
    );
    let engine = Engine::new(artifact, EngineOptions::default()).expect("engine");
    assert!(
        engine.packed_weight_bytes() > 0,
        "{name}: densified weights must pre-pack at engine build"
    );
    count_warm(&engine, name)
}

/// One test fn for both models: the allocation counter is
/// process-global, so concurrent tests would perturb each other's
/// deltas.
#[test]
fn warm_engines_stay_within_the_response_envelope() {
    let mut rng = Rng::seed_from(51);
    let chain = warm_allocation_count(vgg_small(10, &mut rng), "vgg_small", Precision::F32);
    assert!(
        chain <= WARM_CALL_BUDGET,
        "warm chain infer made {chain} allocations (budget {WARM_CALL_BUDGET})"
    );
    let residual =
        warm_allocation_count(resnet_small(10, &mut rng), "resnet_small", Precision::F32);
    assert!(
        residual <= WARM_CALL_BUDGET,
        "warm residual infer made {residual} allocations (budget {WARM_CALL_BUDGET})"
    );
    // The INT8 path pools its quantized-input and accumulator scratch,
    // so a warm quantized engine is held to the same envelope.
    let quantized =
        warm_allocation_count(resnet_small(10, &mut rng), "resnet_int8", Precision::Int8);
    assert!(
        quantized <= WARM_CALL_BUDGET,
        "warm int8 infer made {quantized} allocations (budget {WARM_CALL_BUDGET})"
    );
    // Densified lowerings (im2col + Winograd) pool their scratch too.
    let dense = warm_allocation_count_densified(vgg_small(10, &mut rng), "vgg_densified");
    assert!(
        dense <= WARM_CALL_BUDGET,
        "warm densified infer made {dense} allocations (budget {WARM_CALL_BUDGET})"
    );
}
