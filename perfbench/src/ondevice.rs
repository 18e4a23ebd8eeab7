//! `ondevice-vgg16`: one caller in a closed loop doing batch-1
//! `Engine::infer` on a pattern-pruned VGG-16 (CIFAR-10 geometry), with
//! intra-layer threads = the host's cores. Batching, admission, wire and
//! router are bypassed: the runtime executors and `tensor::kernels` do
//! almost all the work, and the 512-channel layers' working set exceeds
//! L2.

use std::time::Instant;

use crate::host::RssSampler;
use crate::loadgen::PhaseKind;
use crate::models::{prepare, InputPool, Model, SetupBreakdown};
use crate::report::Report;
use crate::stats::{median, percentile, Tally};
use crate::{put_setup, Ctx};

/// Distinct seeded inputs the caller cycles through.
const POOL: usize = 8;

/// The run is cut into this many windows of equal length; throughput is
/// the median of their completion rates, so a host stall inside one
/// window moves it less than it moves the mean.
const WINDOWS: usize = 10;

/// Set-ups per run; `setup_s` is their median (VGG-16 takes about 1.5 s to set up).
const SETUP_REPS: usize = 3;

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let mut setup_s = Vec::new();
    let mut bd = SetupBreakdown::default();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let mut rep = SetupBreakdown::default();
        let id = tracer.open();
        let start = Instant::now();
        let p = prepare(Model::Vgg16, 0, ctx.cores, tracer, id, &mut rep)?;
        setup_s.push(start.elapsed().as_secs_f64());
        tracer.close(id, "setup", 0, 0, start);
        bd = rep;
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let engine = prepared.engine;
    let mut net = prepared.net;
    let pool = InputPool::new(Model::Vgg16, &mut net, POOL, ctx.seed ^ 0x1f);
    drop(net);

    let rss = RssSampler::start();
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    // Per-iteration sums of the profiled step times (traced runs only).
    let mut step_sums = Vec::new();
    let mut profile = Vec::new();
    // The caller's own gap between one call's return and the next
    // call: the closed loop's form of generator lag.
    let mut gaps = Vec::new();
    // Completion times of the correct inferences, seconds from the start.
    let mut finished = Vec::new();
    let begin = Instant::now();
    let mut returned = None;
    let mut i = 0usize;
    while begin.elapsed().as_secs_f64() < ctx.seconds {
        let k = i % POOL;
        let req = i as u64 + 1;
        let root = tracer.open();
        let start = Instant::now();
        if let Some(r) = returned {
            gaps.push(start.saturating_duration_since(r).as_secs_f64() * 1e3);
        }
        let out = if tracer.enabled() {
            profile.clear();
            let out = engine.infer_profiled(&pool.inputs[k], &mut profile);
            let infer = tracer.record("serve.engine.infer", root, req, start, Instant::now());
            for t in &profile {
                tracer.record(t.kind, infer, req, t.started, t.started + t.wall);
            }
            step_sums.push(
                profile
                    .iter()
                    .map(|t| t.wall.as_secs_f64() * 1e3)
                    .sum::<f64>(),
            );
            out
        } else {
            engine.infer(&pool.inputs[k])
        };
        returned = Some(Instant::now());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.close(root, "request", 0, req, start);
        tally.attempted += 1;
        match out {
            Ok(y) if pool.check(k, &y) => {
                tally.completed += 1;
                tally.within_limit += u64::from(ms <= crate::loadgen::LIMIT_MS);
                latencies.push(ms);
                finished.push(begin.elapsed().as_secs_f64());
            }
            Ok(_) => {
                tally.completed += 1;
                tally.wrong += 1;
            }
            Err(_) => tally.failed += 1,
        }
        i += 1;
    }
    let elapsed = begin.elapsed().as_secs_f64();
    let rss_mb = rss.finish();

    let window = elapsed / WINDOWS as f64;
    let mut counts = [0usize; WINDOWS];
    for t in &finished {
        counts[((t / window) as usize).min(WINDOWS - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / window).collect();
    let throughput = median(&rates);
    put_setup(report, &setup_s, &bd);
    report.put_quantile("latency_p50_ms", percentile(&latencies, 50.0));
    crate::put_tails(report, &latencies);
    let m = report.put("throughput_rps", throughput, "req/s");
    m.n = Some(latencies.len());
    m.note = "median completion rate over ten equal windows of the closed loop";
    report
        .put("success_frac", 1.0 - tally.error_frac(), "ratio")
        .n = Some(tally.attempted as usize);
    report.put("rss_mb", rss_mb, "MiB");
    report.put_extra("error_frac", tally.error_frac(), "ratio");
    report.put_extra(
        "within_limit_frac",
        crate::stats::ratio(tally.within_limit, tally.attempted),
        "ratio",
    );
    report.put_extra("engine.threads", ctx.cores as f64, "count");
    // A closed loop of direct engine calls sends every request as soon
    // as the last returns and passes no admission control.
    if let Some(q) = percentile(&gaps, 99.0) {
        let m = report.put_extra("loadgen.lag_p99_ms", q.value, "ms");
        m.n = Some(q.n);
        m.beyond = Some(q.beyond);
        m.note = "closed loop: the caller's gap between calls";
    }
    report.put_extra("loadgen.sent_frac", 1.0, "ratio");
    for kind in [PhaseKind::Nominal, PhaseKind::Ramp, PhaseKind::Overload] {
        for what in ["shed_frac", "expired_frac"] {
            report
                .put_extra(&format!("admission.{what}.{}", kind.label()), 0.0, "ratio")
                .note = "closed loop: Engine::infer bypasses admission";
        }
    }
    if !step_sums.is_empty() {
        report
            .put_extra("engine.steps_sum_p50_ms", median(&step_sums), "ms")
            .n = Some(step_sums.len());
    }
    report.attempted += tally.attempted;
    report.failed += tally.failed + tally.wrong;
    if tally.wrong > 0 || tally.failed > 0 {
        report.problems.push(format!(
            "ondevice-vgg16: {} wrong outputs, {} failed inferences",
            tally.wrong, tally.failed
        ));
    }
    if !tally.closes() {
        report
            .problems
            .push(format!("ondevice-vgg16: tally does not close: {tally:?}"));
    }
    Ok(())
}
