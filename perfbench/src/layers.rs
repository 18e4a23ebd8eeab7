//! The per-layer probes of a traced run, the same on every workload:
//! batch-1 latency and per-step times of each model the workloads
//! serve, the wire codec, direct-versus-routed round trips, and the
//! serving layers' per-request stage times on an idle server. The
//! router and server probes fill in only what the workload itself did
//! not measure.
//!
//! Per-step rates set each conv step against the roofline measured on
//! this host. FLOPs count nonzero taps only; bytes moved are computed
//! from tensor sizes (input + output activations + the step's weight
//! storage), not measured.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use patdnn_serve::batching::BatchPolicy;
use patdnn_serve::net::{NetClient, WireOutcome};
use patdnn_serve::registry::ModelRegistry;
use patdnn_serve::request::Priority;
use patdnn_serve::server::{Server, ServerConfig};
use patdnn_serve::telemetry::{Stage, TelemetryPolicy};
use patdnn_serve::wire::Frame;
use patdnn_tensor::Tensor;

use crate::host::Roofline;
use crate::loadgen::PhaseKind;
use crate::models::{conv_steps, prepare, InputPool, Model, SetupBreakdown};
use crate::report::Report;
use crate::routed::{model_name, Fleet};
use crate::stats::median;
use crate::Ctx;

/// Conv-step counts of the probed models; the per-step metric names
/// depend on them.
pub const CONV_STEPS: [(Model, usize); 3] = [
    (Model::Vgg16, 13),
    (Model::VggSmall, 6),
    (Model::ResnetInt8, 6),
];

/// Round trips timed per connection kind.
const RTT_REPS: usize = 300;

/// Requests the server probe sends, one at a time.
const SERVER_PROBE_REPS: usize = 300;

/// Names of the per-layer metrics every traced run reports.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "kernels.peak_gflops",
        "kernels.stream_gbps",
        "prune.project_ms",
        "compile.plan_ms",
        "compile.int8_ms",
        "artifact.encode_ms",
        "artifact.decode_ms",
        "artifact.bytes",
        "verify.analyze_ms",
        "engine.build_ms",
        "engine.packed_kib",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for m in Model::ALL {
        names.push(format!("engine.infer_b1_ms.{}", m.label()));
    }
    for (m, steps) in CONV_STEPS {
        for i in 0..steps {
            names.push(format!("engine.step.{}.{i}.ms", m.label()));
            if m == Model::Vgg16 {
                names.push(format!("engine.step.vgg16.{i}.gflops"));
                names.push(format!("engine.step.vgg16.{i}.roofline_pct"));
            }
        }
    }
    for n in [
        "server.queue_wait_ms",
        "server.exec_ms",
        "server.delivery_ms",
        "server.avg_batch",
    ] {
        names.push(n.to_string());
    }
    for kind in [PhaseKind::Nominal, PhaseKind::Ramp, PhaseKind::Overload] {
        names.push(format!("admission.shed_frac.{}", kind.label()));
        names.push(format!("admission.expired_frac.{}", kind.label()));
    }
    for n in [
        "loadgen.latency_p95_ms",
        "loadgen.latency_p99_ms",
        "loadgen.lag_p99_ms",
        "loadgen.sent_frac",
        "wire.encode_us",
        "wire.decode_us",
        "wire.bytes_per_req",
        "net.rtt_direct_ms",
        "router.rtt_ms",
        "router.overhead_ms",
        "router.retry_frac",
        "router.ejections",
        "trace.overhead_ms",
    ] {
        names.push(n.to_string());
    }
    names
}

/// Runs every probe, adding per-layer metrics to `report.extra`.
pub fn probe(ctx: &Ctx, roofline: &Roofline, report: &mut Report) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let id = tracer.open();
    let start = Instant::now();
    for model in Model::ALL {
        let threads = if model == Model::Vgg16 { ctx.cores } else { 1 };
        let mut bd = SetupBreakdown::default();
        let mut p = prepare(model, 0, threads, tracer, id, &mut bd)?;
        if model == Model::ResnetInt8 && !report.extra.iter().any(|m| m.name == "compile.int8_ms") {
            report.put_extra("compile.int8_ms", bd.int8_ms, "ms").note =
                "resnet_int8 build of the layer probes";
        }
        let pool = InputPool::new(model, &mut p.net, 4, ctx.seed ^ 0x9b);
        engine_probe(model, &p.engine, &pool, threads, roofline, report)?;
    }
    wire_probe(report);
    rtt_probe(ctx, id, report)?;
    if !report.has("server.queue_wait_ms") {
        server_probe(ctx, id, report)?;
    }
    tracer.close(id, "layer-probes", 0, 0, start);
    Ok(())
}

fn engine_probe(
    model: Model,
    engine: &patdnn_serve::engine::Engine,
    pool: &InputPool,
    threads: usize,
    roofline: &Roofline,
    report: &mut Report,
) -> Result<(), String> {
    let reps = match model {
        Model::Vgg16 => 15,
        Model::SmallCnn => 400,
        _ => 100,
    };
    let infer = |i: usize| -> Result<(), String> {
        let k = i % pool.inputs.len();
        let y = engine
            .infer(&pool.inputs[k])
            .map_err(|e| format!("{}: {e}", model.label()))?;
        if !pool.check(k, &y) {
            return Err(format!(
                "{}: wrong output in the layer probe",
                model.label()
            ));
        }
        Ok(())
    };
    for i in 0..3 {
        infer(i)?;
    }
    let mut walls = Vec::with_capacity(reps);
    for i in 0..reps {
        let start = Instant::now();
        infer(i)?;
        walls.push(start.elapsed().as_secs_f64() * 1e3);
    }
    report
        .put_extra(
            &format!("engine.infer_b1_ms.{}", model.label()),
            median(&walls),
            "ms",
        )
        .n = Some(reps);

    let Some(&(_, expected)) = CONV_STEPS.iter().find(|(m, _)| *m == model) else {
        return Ok(());
    };
    let convs = conv_steps(engine.artifact());
    if convs.len() != expected {
        return Err(format!(
            "{}: {} conv steps, expected {expected}",
            model.label(),
            convs.len()
        ));
    }
    let mut per_step: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); convs.len()];
    let mut flops = vec![0.0; convs.len()];
    let mut profile = Vec::new();
    for i in 0..reps {
        profile.clear();
        engine
            .infer_profiled(&pool.inputs[i % pool.inputs.len()], &mut profile)
            .map_err(|e| format!("{}: {e}", model.label()))?;
        for (j, c) in convs.iter().enumerate() {
            let t = profile
                .iter()
                .find(|t| t.index == c.index)
                .ok_or_else(|| format!("{}: step {} not profiled", model.label(), c.index))?;
            per_step[j].push(t.wall.as_secs_f64() * 1e3);
            flops[j] = t.flops;
        }
    }
    for (j, c) in convs.iter().enumerate() {
        let ms = median(&per_step[j]);
        let name = format!("engine.step.{}.{j}", model.label());
        report.put_extra(&format!("{name}.ms"), ms, "ms").n = Some(reps);
        if model != Model::Vgg16 {
            continue;
        }
        // Dense-equivalent FLOPs = 2·in_c·k²·out_elems (k = 3).
        let useful = flops[j] * c.density;
        let out_elems = flops[j] / (2.0 * c.in_c as f64 * 9.0);
        let in_elems = out_elems / c.out_c as f64 * (c.stride * c.stride) as f64 * c.in_c as f64;
        let bytes = 4.0 * (in_elems + out_elems) + c.weight_bytes as f64;
        let gflops = useful / (ms * 1e-3) / 1e9;
        let attainable = roofline.attainable(useful / bytes, threads);
        report
            .put_extra(&format!("{name}.gflops"), gflops, "GFLOP/s")
            .note = "nonzero-tap FLOPs";
        report
            .put_extra(
                &format!("{name}.roofline_pct"),
                100.0 * gflops / attainable,
                "%",
            )
            .note = "of min(peak, bandwidth x intensity); bytes from tensor sizes";
    }
    Ok(())
}

/// Median per-call microseconds of `f` over five batches of `calls`.
fn per_call_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut batches = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        batches.push(start.elapsed().as_secs_f64() * 1e6 / calls as f64);
    }
    median(&batches)
}

fn wire_probe(report: &mut Report) {
    let [c, h, w] = Model::SmallCnn.input();
    let mut rng = patdnn_tensor::rng::Rng::seed_from(5);
    let infer = Frame::Infer {
        id: 1,
        model: model_name(0),
        priority: Priority::Interactive,
        deadline_us: 33_000,
        input: Tensor::randn(&[1, c, h, w], &mut rng),
    };
    let completed = Frame::Completed {
        id: 1,
        latency_us: 500,
        batch_size: 1,
        output: Tensor::randn(&[1, 10], &mut rng),
    };
    let (req, resp) = (infer.encode(), completed.encode());
    let encode = per_call_us(2000, || {
        black_box(black_box(&infer).encode());
        black_box(black_box(&completed).encode());
    });
    let decode = per_call_us(2000, || {
        black_box(Frame::decode(black_box(&req)).is_ok());
        black_box(Frame::decode(black_box(&resp)).is_ok());
    });
    report.put_extra("wire.encode_us", encode, "us").note = "one Infer + one Completed frame";
    report.put_extra("wire.decode_us", decode, "us").note = "one Infer + one Completed frame";
    // Each frame travels behind a 4-byte length prefix.
    report.put_extra(
        "wire.bytes_per_req",
        (req.len() + resp.len() + 8) as f64,
        "B",
    );
}

fn rtt_probe(ctx: &Ctx, parent: u64, report: &mut Report) -> Result<(), String> {
    let mut bd = SetupBreakdown::default();
    let (fleet, mut nets) = Fleet::start(ctx, 1, parent, &mut bd)?;
    let pool = InputPool::new(Model::SmallCnn, &mut nets[0], 4, ctx.seed ^ 0x3c);
    let model = model_name(0);
    let rtt = |addr: String| -> Result<f64, String> {
        let mut client = NetClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut walls = Vec::with_capacity(RTT_REPS);
        for i in 0..RTT_REPS + 10 {
            let k = i % pool.inputs.len();
            let start = Instant::now();
            let out = client
                .infer(&model, &pool.inputs[k], Priority::Interactive, None)
                .map_err(|e| format!("round trip: {e}"))?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match out {
                WireOutcome::Completed { output, .. } if pool.check(k, &output) => {}
                other => return Err(format!("round trip to {addr}: {other:?}")),
            }
            if i >= 10 {
                walls.push(ms);
            }
        }
        Ok(median(&walls))
    };
    let direct = rtt(fleet.home_addr(&model))?;
    let routed = rtt(fleet.router_addr())?;
    let (retry_frac, ejections) = fleet.router_counts();
    fleet.stop()?;
    report.put_extra("net.rtt_direct_ms", direct, "ms").n = Some(RTT_REPS);
    report.put_extra("router.rtt_ms", routed, "ms").n = Some(RTT_REPS);
    report.put_extra("router.overhead_ms", routed - direct, "ms");
    if !report.has("router.retry_frac") {
        report
            .put_extra("router.retry_frac", retry_frac, "ratio")
            .note = "routed round trips of the layer probe";
        report
            .put_extra("router.ejections", ejections, "count")
            .note = "routed round trips of the layer probe";
    }
    Ok(())
}

/// The serving layers' per-request stage times on an idle server: one
/// caller sends `small_cnn` requests one at a time through an
/// in-process `Server` set up like a routed-small replica (one worker,
/// max_batch 4) with full telemetry, so a lone request's queue wait
/// shows the batching window. It stands in where the workload's own
/// server is out of reach: ondevice-vgg16 has none, and routed-small's
/// replicas sit behind `NetServer`.
fn server_probe(ctx: &Ctx, parent: u64, report: &mut Report) -> Result<(), String> {
    let mut bd = SetupBreakdown::default();
    let mut p = prepare(Model::SmallCnn, 0, 1, &ctx.tracer, parent, &mut bd)?;
    let pool = InputPool::new(Model::SmallCnn, &mut p.net, 4, ctx.seed ^ 0x5d);
    let name = model_name(0);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(&name, p.engine);
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 1,
            batch: BatchPolicy {
                max_batch: 4,
                ..BatchPolicy::default()
            },
            telemetry: TelemetryPolicy::Full,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let mut outcome = Ok(());
    for i in 0..SERVER_PROBE_REPS {
        let k = i % pool.inputs.len();
        match client.infer(&name, pool.inputs[k].clone()) {
            Ok(resp) if pool.check(k, &resp.output) => {}
            Ok(_) => outcome = Err("server probe: wrong output".to_owned()),
            Err(e) => outcome = Err(format!("server probe: {e}")),
        }
        if outcome.is_err() {
            break;
        }
    }
    let stages = server.telemetry().stage_breakdown();
    let snap = server.snapshot();
    server.shutdown();
    outcome?;
    for (metric, stage) in [
        ("server.queue_wait_ms", Stage::QueueWait),
        ("server.exec_ms", Stage::Execution),
        ("server.delivery_ms", Stage::Delivery),
    ] {
        let s = stages[stage.index()];
        let m = report.put_extra(metric, s.mean_ms(), "ms");
        m.n = Some(s.count as usize);
        m.note = "server probe: small_cnn one at a time on an idle server";
    }
    if !report.has("server.avg_batch") {
        let m = report.put_extra("server.avg_batch", snap.avg_batch, "count");
        m.n = Some(snap.batches as usize);
        m.note = "server probe: small_cnn one at a time on an idle server";
    }
    Ok(())
}
