//! Pattern-based convolution executors over FKW storage.
//!
//! Four variants mirror Figure 13's optimization levels; each is the Rust
//! interpretation of the corresponding generated kernel of Figure 7:
//!
//! - [`OptLevel::NoOpt`] — iterates kernels in original order with a
//!   per-kernel dispatch *inside* the pixel loops (the branchy `switch`).
//! - [`OptLevel::Reorder`] — traverses FKW pattern runs: the dispatch is
//!   hoisted out of the pixel loops; execution is branch-free inside.
//! - [`OptLevel::ReorderLre`] — adds kernel-level register reuse: each
//!   tap becomes one contiguous span-accumulate over the output row,
//!   executed by the dispatched SIMD micro-kernels.
//! - [`OptLevel::Full`] — adds filter-level register reuse: the input
//!   item is copied once into a zero-padded buffer, and each filter's
//!   output is computed in blocks of consecutive positions that stay in
//!   registers across every kernel and tap of the filter.
//!
//! The span and padded bodies need stride 1; other strides run the
//! checked body at every level.

use std::sync::Mutex;

use patdnn_compiler::fkw::FkwLayer;
use patdnn_compiler::tune::space::TuningConfig;
use patdnn_core::pattern::Pattern;
use patdnn_tensor::kernels;
use patdnn_tensor::{Conv2dGeometry, Tensor};

use crate::executor::ConvExecutor;

/// Optimization level of the pattern executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Branchy per-kernel dispatch (pre-reorder execution).
    NoOpt,
    /// Filter-kernel reordered, branch-free pattern runs.
    Reorder,
    /// Plus kernel-level load redundancy elimination.
    ReorderLre,
    /// Plus filter-level LRE: register-tiled output blocks.
    Full,
}

impl OptLevel {
    /// Display label matching Figure 13.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::NoOpt => "No-Opt",
            OptLevel::Reorder => "Reorder",
            OptLevel::ReorderLre => "Reorder+LRE",
            OptLevel::Full => "Reorder+LRE+Tune",
        }
    }

    /// All levels in ascending optimization order.
    pub fn all() -> [OptLevel; 4] {
        [
            OptLevel::NoOpt,
            OptLevel::Reorder,
            OptLevel::ReorderLre,
            OptLevel::Full,
        ]
    }
}

const WIDEST_BLOCK: usize = kernels::BLOCK_WIDTHS[kernels::BLOCK_WIDTHS.len() - 1];

/// The block width for `span` output positions: the smallest of
/// [`kernels::BLOCK_WIDTHS`] that covers them, else the widest.
pub(crate) fn block_width(span: usize) -> usize {
    kernels::BLOCK_WIDTHS
        .into_iter()
        .find(|&b| b >= span)
        .unwrap_or(WIDEST_BLOCK)
}

/// Geometry of the padded-plane row kernel. Output position `(oh, ow)`
/// maps to `q = oh·row + ow` on the padded-width grid, so tap `(kh, kw)`
/// of input channel `ic` reads `padded[ic·plane + kh·row + kw + q]`: one
/// unmasked load per block. Lanes with `ow ≥ out_w` are dropped on
/// store.
#[derive(Debug, Clone)]
struct PaddedPlan {
    /// Padded row width `in_w + 2·pad`.
    row: usize,
    /// Padded plane size `(in_h + 2·pad)·row`.
    plane: usize,
    /// Positions the blocks cover: `(out_h − 1)·row + out_w`.
    span: usize,
    /// Lanes per block, [`block_width`] of `span`.
    block: usize,
    /// Per pattern, each tap's offset `kh·row + kw`.
    taps: Vec<Vec<usize>>,
}

impl PaddedPlan {
    fn new(g: &Conv2dGeometry, patterns: &[Pattern]) -> Self {
        let row = g.in_w + 2 * g.pad;
        let span = (g.out_h - 1) * row + g.out_w;
        PaddedPlan {
            row,
            plane: (g.in_h + 2 * g.pad) * row,
            span,
            block: block_width(span),
            taps: patterns
                .iter()
                .map(|p| {
                    p.positions()
                        .iter()
                        .map(|&(kh, kw)| kh * row + kw)
                        .collect()
                })
                .collect(),
        }
    }

    /// Padded length of one item: every channel plane plus one block of
    /// tail slack. The furthest tap of the last position ends a plane,
    /// so the last block of the last channel overruns it by under one
    /// block.
    fn len(&self, in_c: usize) -> usize {
        in_c * self.plane + self.block
    }
}

/// Which body computes a storage row.
#[derive(Debug, Clone)]
enum RowBody {
    /// Per-pixel bounds checks: `NoOpt`, `Reorder`, and every level at
    /// stride ≠ 1.
    Checked,
    /// One span axpy per (kernel, tap, output row): `ReorderLre`.
    SpanAxpy,
    /// Register-tiled blocks over a zero-padded input: `Full`.
    Padded(PaddedPlan),
}

/// Pattern-based sparse convolution executor over FKW storage.
pub struct PatternConv {
    geo: Conv2dGeometry,
    fkw: FkwLayer,
    bias: Option<Vec<f32>>,
    level: OptLevel,
    /// `(kh, kw)` taps per pattern, for the checked and span bodies.
    taps: Vec<Vec<(usize, usize)>>,
    /// Weights per kernel (uniform per layer).
    entries: usize,
    body: RowBody,
    /// Pool of zero-padded input buffers for [`RowBody::Padded`];
    /// concurrent callers each check out their own.
    // lock: rt-pattern-scratch
    padded: Mutex<Vec<Vec<f32>>>,
}

impl PatternConv {
    /// Creates the executor. `_tuning` is the plan's persisted tuner
    /// choice, which no body reads: the `Full` body derives its block
    /// width from the layer geometry.
    ///
    /// # Panics
    ///
    /// Panics if the FKW layer disagrees with the geometry, or if its
    /// `reorder` array is not a permutation of the filters (every
    /// output plane is written by exactly one storage row).
    pub fn new(
        geo: Conv2dGeometry,
        fkw: FkwLayer,
        bias: Option<Vec<f32>>,
        level: OptLevel,
        _tuning: TuningConfig,
    ) -> Self {
        assert_eq!(fkw.out_c, geo.out_channels, "filter count mismatch");
        assert_eq!(fkw.in_c, geo.in_channels, "channel count mismatch");
        assert_eq!(fkw.kernel, geo.kernel_h, "kernel size mismatch");
        let mut seen = vec![false; fkw.out_c];
        let permutation = fkw.reorder.len() == fkw.out_c
            && fkw.reorder.iter().all(|&f| {
                seen.get_mut(f as usize)
                    .is_some_and(|s| !std::mem::replace(s, true))
            });
        assert!(permutation, "reorder is not a permutation");
        let taps = fkw.patterns.iter().map(Pattern::positions).collect();
        let body = match level {
            _ if geo.stride != 1 => RowBody::Checked,
            OptLevel::NoOpt | OptLevel::Reorder => RowBody::Checked,
            OptLevel::ReorderLre => RowBody::SpanAxpy,
            OptLevel::Full => RowBody::Padded(PaddedPlan::new(&geo, &fkw.patterns)),
        };
        let entries = fkw.entries_per_kernel;
        PatternConv {
            geo,
            fkw,
            bias,
            level,
            taps,
            entries,
            body,
            padded: Mutex::new(Vec::new()),
        }
    }

    /// The FKW storage backing this executor.
    pub fn fkw(&self) -> &FkwLayer {
        &self.fkw
    }

    /// The optimization level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Fraction of dense MACs actually executed.
    pub fn compute_fraction(&self) -> f64 {
        let dense = self.geo.in_channels * self.geo.kernel_h * self.geo.kernel_w;
        let actual = self.fkw.stored_kernels() * self.entries;
        actual as f64 / (dense * self.geo.out_channels) as f64
    }

    /// Accumulates one kernel over the whole output plane with per-pixel
    /// bounds checks (the slow path and the No-opt body).
    fn kernel_plane_checked(
        &self,
        taps: &[(usize, usize)],
        w: &[f32],
        in_plane: &[f32],
        out_plane: &mut [f32],
    ) {
        let g = &self.geo;
        for oh in 0..g.out_h {
            let orow = oh * g.out_w;
            for ow in 0..g.out_w {
                let mut acc = 0.0f32;
                for (e, &(kh, kw)) in taps.iter().enumerate() {
                    let ih = (oh * g.stride + kh) as isize - g.pad as isize;
                    let iw = (ow * g.stride + kw) as isize - g.pad as isize;
                    if ih >= 0 && ih < g.in_h as isize && iw >= 0 && iw < g.in_w as isize {
                        acc += w[e] * in_plane[ih as usize * g.in_w + iw as usize];
                    }
                }
                out_plane[orow + ow] += acc;
            }
        }
    }

    /// Accumulates one kernel with kernel-level LRE (stride 1): per tap,
    /// each output row reduces to one contiguous span-accumulate
    /// `out[lo..hi] += w · input[lo'..hi']` with the tap weight hoisted
    /// into a register — no per-pixel bounds checks, and the span runs
    /// through the dispatched [`kernels`] `axpy_f32` tile.
    fn kernel_plane_lre(
        &self,
        taps: &[(usize, usize)],
        w: &[f32],
        in_plane: &[f32],
        out_plane: &mut [f32],
    ) {
        let g = &self.geo;
        debug_assert_eq!(g.stride, 1, "LRE fast path requires stride 1");
        let kernel = kernels::active_kernel();
        for (e, &(kh, kw)) in taps.iter().enumerate() {
            let wv = w[e];
            // Valid output columns for this tap: `ow + kw - pad` in
            // `[0, in_w)`; everything outside reads implicit zero pad.
            let lo = g.pad.saturating_sub(kw);
            let hi = (g.in_w + g.pad - kw).min(g.out_w);
            if lo >= hi {
                continue;
            }
            for oh in 0..g.out_h {
                let ih = oh + kh;
                if ih < g.pad || ih - g.pad >= g.in_h {
                    continue;
                }
                let ibase = (ih - g.pad) * g.in_w + lo + kw - g.pad;
                let orow = oh * g.out_w;
                kernel.axpy_f32(
                    wv,
                    &in_plane[ibase..ibase + hi - lo],
                    &mut out_plane[orow + lo..orow + hi],
                );
            }
        }
    }

    /// Computes storage row `row` of the register-tiled body into its
    /// filter's plane: per block, one [`kernels::MicroKernel::pattern_block_f32`]
    /// call per pattern run, then the block's valid columns are stored.
    fn row_padded(&self, plan: &PaddedPlan, padded: &[f32], row: usize, out_plane: &mut [f32]) {
        let out_w = self.geo.out_w;
        let kernel = kernels::active_kernel();
        let f = self.fkw.reorder[row] as usize;
        let b = self.bias.as_ref().map_or(0.0, |b| b[f]);
        let mut acc = [0.0f32; WIDEST_BLOCK];
        for q0 in (0..plan.span).step_by(plan.block) {
            let acc = &mut acc[..plan.block];
            acc.fill(b);
            for (p, taps) in plan.taps.iter().enumerate() {
                let run = self.fkw.pattern_run(row, p);
                if !run.is_empty() {
                    let chans = &self.fkw.index[run.clone()];
                    let w = &self.fkw.weights[run.start * self.entries..run.end * self.entries];
                    kernel.pattern_block_f32(&padded[q0..], plan.plane, chans, taps, w, acc);
                }
            }
            // Store each output row's run of valid lanes.
            let end = (q0 + plan.block).min(plan.span);
            let mut q = q0;
            while q < end {
                let (oh, ow) = (q / plan.row, q % plan.row);
                if ow < out_w {
                    let n = (oh * plan.row + out_w).min(end) - q;
                    out_plane[oh * out_w + ow..][..n].copy_from_slice(&acc[q - q0..q - q0 + n]);
                }
                q = (oh + 1) * plan.row;
            }
        }
    }

    /// Computes storage row `row` into its filter's output plane, bias
    /// included. `item` is one batch item as [`Self::for_each_item`]
    /// hands it out. This is the unit of work the parallel runner
    /// distributes across threads.
    pub(crate) fn row_into(&self, item: &[f32], row: usize, out_plane: &mut [f32]) {
        let lre = match &self.body {
            RowBody::Padded(plan) => return self.row_padded(plan, item, row, out_plane),
            RowBody::Checked => false,
            RowBody::SpanAxpy => true,
        };
        let in_hw = self.geo.in_h * self.geo.in_w;
        let f = self.fkw.reorder[row] as usize;
        out_plane.fill(self.bias.as_ref().map_or(0.0, |b| b[f]));
        for (p, taps) in self.taps.iter().enumerate() {
            for k in self.fkw.pattern_run(row, p) {
                let ic = self.fkw.index[k] as usize;
                let w = &self.fkw.weights[k * self.entries..(k + 1) * self.entries];
                let in_plane = &item[ic * in_hw..(ic + 1) * in_hw];
                if lre {
                    self.kernel_plane_lre(taps, w, in_plane, out_plane);
                } else {
                    self.kernel_plane_checked(taps, w, in_plane, out_plane);
                }
            }
        }
    }

    /// Calls `body(n, item)` for each batch item of `input`, with the
    /// item as the row bodies read it: copied into a pooled zero-padded
    /// buffer for the register-tiled body, the raw slice otherwise.
    pub(crate) fn for_each_item(&self, input: &Tensor, mut body: impl FnMut(usize, &[f32])) {
        let g = &self.geo;
        let items = input
            .data()
            .chunks_exact(g.in_channels * g.in_h * g.in_w)
            .enumerate();
        let RowBody::Padded(plan) = &self.body else {
            items.for_each(|(n, item)| body(n, item));
            return;
        };
        let need = plan.len(g.in_channels);
        let mut buf = self
            .padded
            .lock()
            .expect("pattern scratch pool")
            .pop()
            .unwrap_or_default();
        // Pooled buffers only ever hold this layout, so their borders
        // and slack are still zero; a fresh one is zeroed here.
        if buf.len() != need {
            buf.clear();
            buf.resize(need, 0.0);
        }
        for (n, item) in items {
            for (ic, src) in item.chunks_exact(g.in_h * g.in_w).enumerate() {
                for (ih, src_row) in src.chunks_exact(g.in_w).enumerate() {
                    let at = ic * plan.plane + (ih + g.pad) * plan.row + g.pad;
                    buf[at..at + g.in_w].copy_from_slice(src_row);
                }
            }
            body(n, &buf);
        }
        self.padded.lock().expect("pattern scratch pool").push(buf);
    }

    /// The No-opt body: original filter order, looking up each filter's
    /// run inside the loop (the switch of Figure 7), checked everywhere.
    fn run_noopt(&self, item: &[f32], output: &mut [f32]) {
        let g = &self.geo;
        let in_hw = g.in_h * g.in_w;
        for (oc, out_plane) in output.chunks_exact_mut(g.out_h * g.out_w).enumerate() {
            out_plane.fill(self.bias.as_ref().map_or(0.0, |b| b[oc]));
            let row = self
                .fkw
                .reorder
                .iter()
                .position(|&f| f as usize == oc)
                .expect("every filter stored");
            for (p, taps) in self.taps.iter().enumerate() {
                for k in self.fkw.pattern_run(row, p) {
                    let ic = self.fkw.index[k] as usize;
                    let w = &self.fkw.weights[k * self.entries..(k + 1) * self.entries];
                    self.kernel_plane_checked(
                        taps,
                        w,
                        &item[ic * in_hw..(ic + 1) * in_hw],
                        out_plane,
                    );
                }
            }
        }
    }
}

impl PatternConv {
    /// Runs the layer into a caller-provided output tensor, reusing its
    /// allocation across calls (the serving engine's buffer-reuse path).
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have the batch-matched output shape.
    pub fn run_into(&self, input: &Tensor, out: &mut Tensor) {
        let g = &self.geo;
        let s = input.shape4();
        assert_eq!(s.c, g.in_channels, "input channel mismatch");
        assert_eq!(
            out.shape(),
            &[s.n, g.out_channels, g.out_h, g.out_w],
            "output buffer shape mismatch"
        );
        let out_hw = g.out_h * g.out_w;
        let out_img = g.out_channels * out_hw;
        let outd = out.data_mut();
        self.for_each_item(input, |n, item| {
            let output = &mut outd[n * out_img..(n + 1) * out_img];
            if self.level == OptLevel::NoOpt {
                self.run_noopt(item, output);
                return;
            }
            for (row, f) in self.fkw.rows() {
                self.row_into(item, row, &mut output[f * out_hw..(f + 1) * out_hw]);
            }
        });
    }
}

impl ConvExecutor for PatternConv {
    fn name(&self) -> &str {
        match self.level {
            OptLevel::NoOpt => "pattern-noopt",
            OptLevel::Reorder => "pattern-reorder",
            OptLevel::ReorderLre => "pattern-lre",
            OptLevel::Full => "pattern-full",
        }
    }

    fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    fn run(&self, input: &Tensor) -> Tensor {
        let g = &self.geo;
        let s = input.shape4();
        let mut out = Tensor::zeros(&[s.n, g.out_channels, g.out_h, g.out_w]);
        self.run_into(input, &mut out);
        out
    }
}

/// Builds all four optimization-level executors for one pruned layer.
pub fn all_levels(
    geo: Conv2dGeometry,
    fkw: &FkwLayer,
    bias: Option<Vec<f32>>,
    tuning: TuningConfig,
) -> Vec<PatternConv> {
    OptLevel::all()
        .into_iter()
        .map(|level| PatternConv::new(geo, fkw.clone(), bias.clone(), level, tuning))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::assert_matches_reference;
    use patdnn_compiler::fkr::filter_kernel_reorder;
    use patdnn_core::pattern_set::PatternSet;
    use patdnn_core::project::prune_layer;
    use patdnn_tensor::rng::Rng;

    fn pruned_fkw(oc: usize, ic: usize, alpha: usize, seed: u64) -> (Tensor, FkwLayer) {
        let mut rng = Rng::seed_from(seed);
        let mut w = Tensor::randn(&[oc, ic, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, alpha);
        let order = filter_kernel_reorder(&lp);
        let fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
        (w, fkw)
    }

    /// `(input size, pad)` cases that put every block edge of the
    /// register-tiled body in play: planes inside one block at each
    /// width, a partial last block, and pad 0.
    const EDGE_CASES: [(usize, usize); 8] = [
        (1, 1),
        (2, 1),
        (3, 1),
        (4, 1),
        (11, 1),
        (13, 1),
        (10, 0),
        (3, 0),
    ];

    /// The block width the `Full` body picks for a stride-1 geometry.
    fn full_block(geo: &Conv2dGeometry) -> usize {
        block_width((geo.out_h - 1) * (geo.in_w + 2 * geo.pad) + geo.out_w)
    }

    #[test]
    fn all_levels_match_reference() {
        let (w, fkw) = pruned_fkw(8, 6, 20, 1);
        let mut rng = Rng::seed_from(2);
        let bias: Vec<f32> = (0..8).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let mut widths = Vec::new();
        for (i, &(hw, pad)) in EDGE_CASES.iter().enumerate() {
            let geo = Conv2dGeometry::new(8, 6, 3, 3, hw, hw, 1, pad);
            widths.push(full_block(&geo));
            for b in [Some(&bias), None] {
                for exec in all_levels(geo, &fkw, b.cloned(), TuningConfig::tuned_default()) {
                    assert_matches_reference(&exec, &w, b.map(Vec::as_slice), 1e-3, 3 + i as u64);
                }
            }
        }
        widths.sort_unstable();
        widths.dedup();
        assert_eq!(widths, kernels::BLOCK_WIDTHS, "every block width exercised");
    }

    #[test]
    fn strided_pattern_layer_matches_reference() {
        // Stride 2 disables the LRE fast path but must stay correct.
        let geo = Conv2dGeometry::new(4, 4, 3, 3, 9, 9, 2, 1);
        let (w, fkw) = pruned_fkw(4, 4, 8, 4);
        for exec in all_levels(geo, &fkw, None, TuningConfig::tuned_default()) {
            assert_matches_reference(&exec, &w, None, 1e-3, 5);
        }
    }

    #[test]
    fn connectivity_only_1x1_layer_matches_reference() {
        let mut rng = Rng::seed_from(6);
        let mut w = Tensor::randn(&[8, 8, 1, 1], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("proj", &mut w, &set, 16);
        let order = filter_kernel_reorder(&lp);
        let fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
        // One tap per kernel, at three block widths.
        for hw in [7, 3, 1] {
            let geo = Conv2dGeometry::new(8, 8, 1, 1, hw, hw, 1, 0);
            for exec in all_levels(geo, &fkw, None, TuningConfig::tuned_default()) {
                assert_matches_reference(&exec, &w, None, 1e-3, 7);
            }
        }
    }

    #[test]
    fn compute_fraction_reflects_pruning() {
        let geo = Conv2dGeometry::new(8, 8, 3, 3, 8, 8, 1, 1);
        let (_, fkw) = pruned_fkw(8, 8, 16, 8);
        let exec = PatternConv::new(geo, fkw, None, OptLevel::Full, TuningConfig::baseline());
        // 16 kernels of 4 entries out of 64 kernels of 9 entries.
        let expect = (16.0 * 4.0) / (64.0 * 9.0);
        assert!((exec.compute_fraction() - expect).abs() < 1e-9);
    }

    #[test]
    fn batched_input_matches_itemwise_runs() {
        let geo = Conv2dGeometry::new(4, 4, 3, 3, 8, 8, 1, 1);
        let (w, fkw) = pruned_fkw(4, 4, 10, 9);
        let mut rng = Rng::seed_from(10);
        let bias: Vec<f32> = (0..4).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let a = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        let b = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        let mut both = Tensor::zeros(&[2, 4, 8, 8]);
        both.data_mut()[..a.len()].copy_from_slice(a.data());
        both.data_mut()[a.len()..].copy_from_slice(b.data());
        let expect = patdnn_tensor::conv2d_ref(&both, &w, Some(&bias), &geo);
        for exec in all_levels(geo, &fkw, Some(bias.clone()), TuningConfig::tuned_default()) {
            let out_a = exec.run(&a);
            let out_b = exec.run(&b);
            let out = exec.run(&both);
            assert_eq!(&out.data()[..out_a.len()], out_a.data(), "{}", exec.name());
            assert_eq!(&out.data()[out_a.len()..], out_b.data(), "{}", exec.name());
            assert!(expect.approx_eq(&out, 1e-3), "{}", exec.name());
        }
    }

    #[test]
    fn levels_report_distinct_names() {
        let geo = Conv2dGeometry::new(4, 4, 3, 3, 6, 6, 1, 1);
        let (_, fkw) = pruned_fkw(4, 4, 8, 11);
        let names: Vec<&str> = all_levels(geo, &fkw, None, TuningConfig::baseline())
            .iter()
            .map(|e| match e.level() {
                OptLevel::NoOpt => "pattern-noopt",
                OptLevel::Reorder => "pattern-reorder",
                OptLevel::ReorderLre => "pattern-lre",
                OptLevel::Full => "pattern-full",
            })
            .collect();
        assert_eq!(
            names,
            vec![
                "pattern-noopt",
                "pattern-reorder",
                "pattern-lre",
                "pattern-full"
            ]
        );
    }
}
