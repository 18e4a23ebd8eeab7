//! Multi-threaded layer execution.
//!
//! The paper runs "8 threads on CPU". Two parallel schedules are
//! provided: a *contiguous* split of filters (what a framework does
//! without FKR — ragged filter lengths produce load imbalance) and an
//! FKR-aware *balanced* split that round-robins the length-sorted storage
//! rows across threads.

use std::time::Instant;

use patdnn_tensor::{Conv2dGeometry, Tensor};

use crate::executor::ConvExecutor;
use crate::pattern_exec::PatternConv;

/// Per-thread wall-clock times of one parallel run, for load-imbalance
/// reporting.
#[derive(Debug, Clone, Default)]
pub struct ThreadTimes {
    /// Seconds each thread spent computing.
    pub seconds: Vec<f64>,
}

impl ThreadTimes {
    /// Relative imbalance `(max - min) / max`; 0.0 is perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let max = self.seconds.iter().copied().fold(0.0f64, f64::max);
        let min = self.seconds.iter().copied().fold(f64::INFINITY, f64::min);
        if max <= 0.0 || !min.is_finite() {
            0.0
        } else {
            (max - min) / max
        }
    }
}

/// How storage rows are assigned to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous chunks of rows (pre-FKR behaviour).
    Contiguous,
    /// Round-robin over the (length-sorted) storage order — the FKR
    /// balanced schedule.
    Balanced,
}

/// A multi-threaded wrapper around [`PatternConv`]. Each batch item is
/// prepared once (zero-padded for the register-tiled body) and shared
/// read-only; every worker writes its rows straight into their
/// filters' output planes.
pub struct ParallelPattern {
    inner: PatternConv,
    assignments: Vec<Vec<usize>>,
}

impl ParallelPattern {
    /// Wraps `inner`, assigning its storage rows to `threads` workers
    /// under the given schedule.
    ///
    /// Requesting more threads than the layer has filters yields empty
    /// row assignments; those are dropped, so no worker thread is ever
    /// spawned with nothing to do and a ~0s idle thread cannot pin the
    /// reported load imbalance near 1.0 on small layers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(inner: PatternConv, threads: usize, schedule: Schedule) -> Self {
        assert!(threads > 0, "need at least one thread");
        let rows: Vec<usize> = (0..inner.fkw().out_c).collect();
        let mut assignments = vec![Vec::new(); threads];
        match schedule {
            Schedule::Contiguous => {
                let per = rows.len().div_ceil(threads);
                for (i, chunk) in rows.chunks(per.max(1)).enumerate() {
                    assignments[i.min(threads - 1)].extend_from_slice(chunk);
                }
            }
            Schedule::Balanced => {
                for (i, row) in rows.into_iter().enumerate() {
                    assignments[i % threads].push(row);
                }
            }
        }
        assignments.retain(|rows| !rows.is_empty());
        ParallelPattern { inner, assignments }
    }

    /// Runs the layer into a caller-provided output tensor (the serving
    /// engine's buffer-reuse path).
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have the batch-matched output shape.
    pub fn run_into(&self, input: &Tensor, out: &mut Tensor) {
        self.run_into_timed(input, out);
    }

    /// Runs one batch item, returning the output and per-thread times.
    pub fn run_timed(&self, input: &Tensor) -> (Tensor, ThreadTimes) {
        let g = self.inner.geometry();
        assert_eq!(input.shape4().n, 1, "run_timed takes batch-1 inputs");
        let mut out = Tensor::zeros(&[1, g.out_channels, g.out_h, g.out_w]);
        let times = self.run_into_timed(input, &mut out);
        (out, times)
    }

    /// [`Self::run_into`], returning the last item's thread times.
    fn run_into_timed(&self, input: &Tensor, out: &mut Tensor) -> ThreadTimes {
        let g = *self.inner.geometry();
        let s = input.shape4();
        assert_eq!(s.c, g.in_channels, "input channel mismatch");
        assert_eq!(
            out.shape(),
            &[s.n, g.out_channels, g.out_h, g.out_w],
            "output buffer shape mismatch"
        );
        let out_img = g.out_channels * g.out_h * g.out_w;
        let outd = out.data_mut();
        let mut times = ThreadTimes::default();
        self.inner.for_each_item(input, |n, item| {
            times = self.run_item(item, &mut outd[n * out_img..(n + 1) * out_img]);
        });
        times
    }

    /// Computes one prepared batch item across the workers: the item's
    /// output is split into disjoint per-filter planes, each handed to
    /// the worker that owns the filter's storage row.
    fn run_item(&self, item: &[f32], output: &mut [f32]) -> ThreadTimes {
        let g = self.inner.geometry();
        let reorder = &self.inner.fkw().reorder;
        let mut planes: Vec<Option<&mut [f32]>> = output
            .chunks_exact_mut(g.out_h * g.out_w)
            .map(Some)
            .collect();
        let work: Vec<Vec<(usize, &mut [f32])>> = self
            .assignments
            .iter()
            .map(|rows| {
                rows.iter()
                    .map(|&row| {
                        let plane = planes[reorder[row] as usize].take();
                        (row, plane.expect("reorder is a permutation"))
                    })
                    .collect()
            })
            .collect();
        let inner = &self.inner;
        let seconds = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .into_iter()
                .map(|rows| {
                    scope.spawn(move || {
                        let start = Instant::now();
                        for (row, plane) in rows {
                            inner.row_into(item, row, plane);
                        }
                        start.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        ThreadTimes { seconds }
    }
}

impl ConvExecutor for ParallelPattern {
    fn name(&self) -> &str {
        "pattern-parallel"
    }

    fn geometry(&self) -> &Conv2dGeometry {
        self.inner.geometry()
    }

    fn run(&self, input: &Tensor) -> Tensor {
        let g = self.inner.geometry();
        let s = input.shape4();
        let mut out = Tensor::zeros(&[s.n, g.out_channels, g.out_h, g.out_w]);
        self.run_into(input, &mut out);
        out
    }
}

/// A multi-threaded wrapper for dense executors: the layer is split into
/// output-channel ranges, each served by an independently-built
/// sub-executor.
pub struct ParallelDense<E> {
    parts: Vec<(usize, E)>, // (oc offset, sub-executor)
    geo: Conv2dGeometry,
    name: String,
}

impl<E: ConvExecutor + Sync> ParallelDense<E> {
    /// Splits `geo` into up to `threads` contiguous output-channel ranges
    /// and builds a sub-executor for each via `factory(sub_geo, oc_range)`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(
        geo: Conv2dGeometry,
        threads: usize,
        factory: impl Fn(Conv2dGeometry, std::ops::Range<usize>) -> E,
    ) -> Self {
        assert!(threads > 0, "need at least one thread");
        let per = geo.out_channels.div_ceil(threads).max(1);
        let mut parts = Vec::new();
        let mut start = 0;
        while start < geo.out_channels {
            let end = (start + per).min(geo.out_channels);
            let sub_geo = Conv2dGeometry::new(
                end - start,
                geo.in_channels,
                geo.kernel_h,
                geo.kernel_w,
                geo.in_h,
                geo.in_w,
                geo.stride,
                geo.pad,
            );
            parts.push((start, factory(sub_geo, start..end)));
            start = end;
        }
        let name = format!(
            "parallel-{}",
            parts.first().map_or("dense", |(_, e)| e.name())
        );
        ParallelDense { parts, geo, name }
    }
}

impl<E: ConvExecutor + Sync> ConvExecutor for ParallelDense<E> {
    fn name(&self) -> &str {
        &self.name
    }

    fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    fn run(&self, input: &Tensor) -> Tensor {
        let g = &self.geo;
        assert_eq!(input.shape4().n, 1, "parallel runner takes batch-1 inputs");
        let out_hw = g.out_h * g.out_w;
        let mut out = Tensor::zeros(&[1, g.out_channels, g.out_h, g.out_w]);
        let mut results: Vec<(usize, Tensor)> = Vec::with_capacity(self.parts.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.parts.len());
            for (offset, exec) in &self.parts {
                handles.push(scope.spawn(move || (*offset, exec.run(input))));
            }
            for h in handles {
                results.push(h.join().expect("worker thread panicked"));
            }
        });
        for (offset, part) in results {
            let len = part.len();
            out.data_mut()[offset * out_hw..offset * out_hw + len].copy_from_slice(part.data());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::TiledConv;
    use crate::pattern_exec::OptLevel;
    use patdnn_compiler::fkr::filter_kernel_reorder;
    use patdnn_compiler::fkw::FkwLayer;
    use patdnn_compiler::tune::space::TuningConfig;
    use patdnn_core::pattern_set::PatternSet;
    use patdnn_core::project::prune_layer;
    use patdnn_tensor::rng::Rng;

    fn pattern_exec(seed: u64) -> (Tensor, PatternConv, Conv2dGeometry) {
        let mut rng = Rng::seed_from(seed);
        let geo = Conv2dGeometry::new(16, 8, 3, 3, 12, 12, 1, 1);
        let mut w = Tensor::randn(&[16, 8, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, 48);
        let order = filter_kernel_reorder(&lp);
        let fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
        (
            w.clone(),
            PatternConv::new(
                geo,
                fkw,
                None,
                OptLevel::Full,
                TuningConfig::tuned_default(),
            ),
            geo,
        )
    }

    #[test]
    fn parallel_pattern_matches_serial() {
        let (_, exec, _) = pattern_exec(1);
        let mut rng = Rng::seed_from(2);
        let input = Tensor::randn(&[1, 8, 12, 12], &mut rng);
        let serial = exec.run(&input);
        for schedule in [Schedule::Contiguous, Schedule::Balanced] {
            let par = ParallelPattern::new(pattern_exec(1).1, 4, schedule);
            let (out, times) = par.run_timed(&input);
            assert!(serial.approx_eq(&out, 1e-5), "schedule {schedule:?}");
            assert_eq!(times.seconds.len(), 4);
        }
    }

    #[test]
    fn parallel_dense_matches_serial() {
        let mut rng = Rng::seed_from(3);
        let geo = Conv2dGeometry::new(10, 4, 3, 3, 9, 9, 1, 1);
        let w = Tensor::randn(&[10, 4, 3, 3], &mut rng);
        let bias: Vec<f32> = (0..10).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let serial = TiledConv::new(geo, w.clone(), Some(bias.clone()));
        let input = Tensor::randn(&[1, 4, 9, 9], &mut rng);
        let expect = serial.run(&input);

        let wref = &w;
        let bref = &bias;
        let par = ParallelDense::new(geo, 3, |sub_geo, range| {
            let fsize = 4 * 9;
            let wslice = wref.data()[range.start * fsize..range.end * fsize].to_vec();
            let sub_w =
                Tensor::from_vec(&[sub_geo.out_channels, 4, 3, 3], wslice).expect("subslice");
            TiledConv::new(sub_geo, sub_w, Some(bref[range].to_vec()))
        });
        let got = par.run(&input);
        assert!(expect.approx_eq(&got, 1e-5));
    }

    #[test]
    fn parallel_pattern_handles_batched_inputs() {
        let (_, exec, _) = pattern_exec(7);
        let mut rng = Rng::seed_from(8);
        let a = Tensor::randn(&[1, 8, 12, 12], &mut rng);
        let b = Tensor::randn(&[1, 8, 12, 12], &mut rng);
        let mut both = Tensor::zeros(&[2, 8, 12, 12]);
        both.data_mut()[..a.len()].copy_from_slice(a.data());
        both.data_mut()[a.len()..].copy_from_slice(b.data());
        let par = ParallelPattern::new(exec, 3, Schedule::Balanced);
        let out = par.run(&both);
        let oa = par.run(&a);
        let ob = par.run(&b);
        assert_eq!(&out.data()[..oa.len()], oa.data());
        assert_eq!(&out.data()[oa.len()..], ob.data());
    }

    #[test]
    fn imbalance_metric_behaves() {
        let t = ThreadTimes {
            seconds: vec![1.0, 1.0, 1.0],
        };
        assert_eq!(t.imbalance(), 0.0);
        let t = ThreadTimes {
            seconds: vec![2.0, 1.0],
        };
        assert!((t.imbalance() - 0.5).abs() < 1e-12);
        assert_eq!(ThreadTimes::default().imbalance(), 0.0);
    }

    #[test]
    fn oversubscribed_threads_skip_empty_assignments() {
        let mut rng = Rng::seed_from(9);
        let input = Tensor::randn(&[1, 8, 12, 12], &mut rng);
        let serial = pattern_exec(5).1.run(&input);
        // 24 threads over a 16-filter layer: 8 assignments would be
        // empty under either schedule and must be dropped, not spawned.
        for schedule in [Schedule::Contiguous, Schedule::Balanced] {
            let par = ParallelPattern::new(pattern_exec(5).1, 24, schedule);
            assert_eq!(
                par.assignments.len(),
                16,
                "{schedule:?}: no empty row assignments"
            );
            assert!(par.assignments.iter().all(|rows| !rows.is_empty()));
            let (out, times) = par.run_timed(&input);
            assert!(serial.approx_eq(&out, 1e-5), "{schedule:?}");
            assert_eq!(
                times.seconds.len(),
                16,
                "{schedule:?}: idle threads must not enter the imbalance figure"
            );
        }
    }

    #[test]
    fn balanced_schedule_distributes_rows_evenly() {
        let (_, exec, _) = pattern_exec(4);
        let par = ParallelPattern::new(exec, 5, Schedule::Balanced);
        let sizes: Vec<usize> = par.assignments.iter().map(Vec::len).collect();
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }
}
