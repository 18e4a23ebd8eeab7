//! `served-mix`: an open-loop Poisson schedule into an in-process
//! `Server` (workers = cores, max_batch 4) serving `vgg_small` f32 and
//! `resnet_small` int8, both pruned at 3.6×. Interactive requests carry
//! a deadline equal to the limit; batch-class requests carry none. One
//! sender thread submits on schedule, one waiter thread collects the
//! terminals. Queueing, dynamic batching, EDF/priority, admission and
//! shedding do most of the work, on both precisions sharing the cores.
//! A closed loop at saturation ends the run and gives the throughput.

use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use patdnn_serve::batching::BatchPolicy;
use patdnn_serve::registry::ModelRegistry;
use patdnn_serve::request::{Priority, ResponseHandle, Terminal};
use patdnn_serve::server::{Server, ServerConfig};
use patdnn_serve::telemetry::{Stage, TelemetryPolicy};

use crate::host::RssSampler;
use crate::loadgen::{
    schedule, Arrival, OpenLoopSummary, Outcome, Phase, PhaseKind, PhaseResult, Rates, LIMIT_MS,
};
use crate::models::{prepare, InputPool, Model, SetupBreakdown};
use crate::report::Report;
use crate::stats::median;
use crate::{put_open_loop, put_setup, Ctx};
use patdnn_nn::prelude::Sequential;
use patdnn_tensor::rng::Rng;

/// The fixed rates, requests per second (recorded in BENCHMARK.json).
pub const RATES: Rates = Rates {
    nominal: 200.0,
    ramp_ratio: 1.1,
    ramp_steps: 24,
    overload: 2200.0,
};

const MODELS: [Model; 2] = [Model::VggSmall, Model::ResnetInt8];
const MAX_BATCH: usize = 4;
/// Share of the run given to the closed loop; the open-loop phases
/// share the rest.
const CLOSED_SHARE: f64 = 0.2;
/// Popularity split between the two models.
const WEIGHTS: [f64; 2] = [0.6, 0.4];
const POOL: usize = 32;

/// Set-ups per run; `setup_s` is their median (a set-up takes well under half a second).
const SETUP_REPS: usize = 7;

/// Makes the system servable; returns it with the pruned networks the
/// references come from.
fn set_up(
    ctx: &Ctx,
    parent: u64,
    bd: &mut SetupBreakdown,
) -> Result<(Server, Vec<Sequential>), String> {
    let registry = Arc::new(ModelRegistry::new());
    let mut nets = Vec::new();
    for (i, model) in MODELS.into_iter().enumerate() {
        let p = prepare(model, i as u64, 1, &ctx.tracer, parent, bd)?;
        registry.register(model.label(), p.engine);
        nets.push(p.net);
    }
    let cfg = ServerConfig {
        workers: ctx.cores,
        batch: BatchPolicy {
            max_batch: MAX_BATCH,
            ..BatchPolicy::default()
        },
        // Above the admission budget, so overload is shed by admission
        // control rather than refused by a full queue.
        queue_capacity: 1024,
        telemetry: if ctx.tracer.enabled() {
            TelemetryPolicy::Full
        } else {
            TelemetryPolicy::Off
        },
        ..ServerConfig::default()
    };
    let (server, _) = ctx.tracer.time("serve.server.start", parent, |_| {
        Server::start(registry, cfg)
    });
    Ok((server, nets))
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let mut setup_s = Vec::new();
    let mut bd = SetupBreakdown::default();
    let mut live: Option<(Server, Vec<Sequential>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((old, _)) = live.take() {
            old.shutdown();
        }
        let mut rep = SetupBreakdown::default();
        let id = tracer.open();
        let start = Instant::now();
        let built = set_up(ctx, id, &mut rep)?;
        setup_s.push(start.elapsed().as_secs_f64());
        tracer.close(id, "setup", 0, 0, start);
        bd = rep;
        live = Some(built);
    }
    let (server, mut nets) = live.expect("at least one set-up");
    let pools: Vec<InputPool> = MODELS
        .iter()
        .zip(nets.iter_mut())
        .enumerate()
        .map(|(i, (&m, net))| InputPool::new(m, net, POOL, ctx.seed ^ (0x5e + i as u64)))
        .collect();
    drop(nets);
    let mut results = Vec::new();
    let mut nominal_server_ms = Vec::new();
    let mut rss_mb = 0.0;
    let open_seconds = (1.0 - CLOSED_SHARE) * ctx.seconds;
    for (pi, phase) in RATES.phases(open_seconds).into_iter().enumerate() {
        let seed = ctx.seed.wrapping_mul(1000).wrapping_add(pi as u64);
        let arrivals = schedule(seed, phase.rate, phase.seconds, &WEIGHTS, POOL);
        let rss = (phase.kind == PhaseKind::Nominal).then(RssSampler::start);
        let (result, server_ms) = run_phase(
            ctx,
            &server,
            &pools,
            phase,
            &arrivals,
            (pi as u64 + 1) << 32,
        );
        if phase.kind == PhaseKind::Nominal {
            nominal_server_ms = server_ms;
        }
        results.push(result);
        if let Some(rss) = rss {
            rss_mb = rss.finish();
        }
    }
    results.push(closed_loop(
        ctx,
        &server,
        &pools,
        CLOSED_SHARE * ctx.seconds,
    ));
    let summary = OpenLoopSummary::new(results);

    put_setup(report, &setup_s, &bd);
    put_open_loop(report, &summary, rss_mb);
    let m = report.put_extra("server.latency_p50_ms", median(&nominal_server_ms), "ms");
    m.n = Some(nominal_server_ms.len());
    m.note = "the server's own timer (enqueue to end of batch), nominal phase";
    let snap = server.snapshot();
    let stages = server.telemetry().stage_breakdown();
    server.shutdown();

    // The benchmark's tally against the server's own counters.
    let t = summary.total();
    let theirs = (
        snap.requests,
        snap.shed,
        snap.expired,
        snap.cancelled,
        snap.rejected,
    );
    let ours = (t.completed, t.shed, t.expired, t.cancelled, t.failed);
    if theirs != ours {
        report.problems.push(format!(
            "served-mix: tally (completed, shed, expired, cancelled, failed) {ours:?} != server counters {theirs:?}"
        ));
    }
    report
        .put_extra("server.avg_batch", snap.avg_batch, "count")
        .n = Some(snap.batches as usize);
    if tracer.enabled() {
        for (name, stage) in [
            ("server.queue_wait_ms", Stage::QueueWait),
            ("server.exec_ms", Stage::Execution),
            ("server.delivery_ms", Stage::Delivery),
        ] {
            let s = stages[stage.index()];
            report.put_extra(name, s.mean_ms(), "ms").n = Some(s.count as usize);
        }
    }
    Ok(())
}

/// How long the waiter blocks on its oldest outstanding request before
/// it sweeps the others: the resolution of the completion stamps.
const POLL: Duration = Duration::from_micros(250);

/// A submitted request the waiter has not seen resolve yet.
struct Pending {
    index: usize,
    handle: ResponseHandle,
    submitted: Instant,
    root: u64,
}

/// One phase: the sender submits each arrival at its intended time;
/// the waiter polls the outstanding handles and stamps each request's
/// completion on this clock when it sees it resolve, so latency runs
/// from the intended send time through submit, queueing, execution and
/// delivery. Returns the phase result and the server's own latency
/// (enqueue to end of batch) of each completed request.
fn run_phase(
    ctx: &Ctx,
    server: &Server,
    pools: &[InputPool],
    phase: Phase,
    arrivals: &[Arrival],
    id_base: u64,
) -> (PhaseResult, Vec<f64>) {
    let tracer = &ctx.tracer;
    let client = server.client();
    let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(phase.seconds);
    let (tx, rx) = mpsc::channel::<Pending>();
    let (mut early, lags, sent_in_time, (mut late, server_ms)) = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut out = Vec::with_capacity(arrivals.len());
            let mut server_ms = Vec::with_capacity(arrivals.len());
            let mut pending: Vec<Pending> = Vec::new();
            let mut open = true;
            while open || !pending.is_empty() {
                if pending.is_empty() {
                    match rx.recv() {
                        Ok(p) => pending.push(p),
                        Err(_) => break,
                    }
                }
                loop {
                    match rx.try_recv() {
                        Ok(p) => pending.push(p),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let mut still = Vec::with_capacity(pending.len());
                for (k, p) in pending.drain(..).enumerate() {
                    let polled = if k == 0 {
                        p.handle.wait_timeout(POLL)
                    } else {
                        p.handle.try_poll()
                    };
                    let terminal = match polled {
                        Ok(t) => t,
                        Err(handle) => {
                            still.push(Pending { handle, ..p });
                            continue;
                        }
                    };
                    let done = Instant::now();
                    let a = arrivals[p.index];
                    let req = id_base + p.index as u64 + 1;
                    let outcome = match terminal {
                        Terminal::Completed(resp) => {
                            let ms =
                                done.saturating_duration_since(start + a.at).as_secs_f64() * 1e3;
                            let correct = pools[a.model].check(a.input, &resp.output);
                            server_ms.push(resp.latency.as_secs_f64() * 1e3);
                            tracer.record(
                                "serve.server",
                                p.root,
                                req,
                                p.submitted,
                                p.submitted + resp.latency,
                            );
                            Outcome::Completed { ms, correct }
                        }
                        other => {
                            let e = other
                                .into_result()
                                .expect_err("only a completed request is Ok");
                            Outcome::from_error(&e)
                        }
                    };
                    tracer.span(p.root, "request", 0, req, start + a.at, done);
                    out.push((p.index, outcome));
                }
                pending = still;
            }
            (out, server_ms)
        });
        let mut immediate = Vec::new();
        let mut lags = Vec::with_capacity(arrivals.len());
        let mut in_time = 0u64;
        for (i, a) in arrivals.iter().enumerate() {
            let intended = start + a.at;
            let now = Instant::now();
            if intended > now {
                std::thread::sleep(intended - now);
            }
            let submitted = Instant::now();
            lags.push(submitted.saturating_duration_since(intended).as_secs_f64() * 1e3);
            in_time += u64::from(submitted <= end);
            let request = client
                .request(MODELS[a.model].label())
                .input(pools[a.model].inputs[a.input].clone());
            let request = if a.interactive {
                request
                    .priority(Priority::Interactive)
                    .deadline(intended + limit)
            } else {
                request.priority(Priority::Batch)
            };
            let req = id_base + i as u64 + 1;
            let root = tracer.open();
            let submit = request.submit();
            tracer.record("serve.request.submit", root, req, submitted, Instant::now());
            match submit {
                Ok(handle) => {
                    // The waiter closes the root span once the request
                    // resolves; the root id parents the server span.
                    tx.send(Pending {
                        index: i,
                        handle,
                        submitted,
                        root,
                    })
                    .expect("the waiter outlives the sender");
                }
                Err(e) => {
                    tracer.span(root, "request", 0, req, intended, Instant::now());
                    immediate.push((i, Outcome::from_error(&e)));
                }
            }
        }
        drop(tx);
        let waited = waiter.join().expect("waiter thread panicked");
        (immediate, lags, in_time, waited)
    });
    early.append(&mut late);
    early.sort_by_key(|(i, _)| *i);
    let outcomes: Vec<Outcome> = early.into_iter().map(|(_, o)| o).collect();
    (
        PhaseResult::new(phase, arrivals, &outcomes, lags, sent_in_time),
        server_ms,
    )
}

/// The saturation phase: `workers · max_batch` callers each submit a
/// batch-class request and wait for it before sending the next, which
/// offers every worker a full batch without a growing queue, so the
/// completion rate is the server's capacity on this mix. (Twice as many
/// callers gave the same rate with a wider run-to-run spread.)
fn closed_loop(ctx: &Ctx, server: &Server, pools: &[InputPool], seconds: f64) -> PhaseResult {
    let callers = ctx.cores * MAX_BATCH;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut sent: Vec<(Arrival, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    let mut rng = Rng::seed_from(ctx.seed ^ (0xc105ed << 8 | c as u64));
                    let mut out = Vec::new();
                    loop {
                        let submitted = Instant::now();
                        if submitted >= end {
                            return out;
                        }
                        let a = Arrival {
                            at: submitted - start,
                            model: usize::from(rng.next_f64() >= WEIGHTS[0]),
                            input: rng.below(POOL),
                            interactive: false,
                        };
                        let terminal = client
                            .request(MODELS[a.model].label())
                            .input(pools[a.model].inputs[a.input].clone())
                            .priority(Priority::Batch)
                            .submit()
                            .map(ResponseHandle::wait);
                        let outcome = match terminal {
                            Ok(Terminal::Completed(resp)) => Outcome::Completed {
                                ms: submitted.elapsed().as_secs_f64() * 1e3,
                                correct: pools[a.model].check(a.input, &resp.output),
                            },
                            Ok(other) => Outcome::from_error(
                                &other
                                    .into_result()
                                    .expect_err("only a completed request is Ok"),
                            ),
                            Err(e) => Outcome::from_error(&e),
                        };
                        out.push((a, outcome));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    sent.sort_by_key(|(a, _)| a.at);
    let (arrivals, outcomes): (Vec<Arrival>, Vec<Outcome>) = sent.into_iter().unzip();
    let phase = Phase {
        kind: PhaseKind::Closed,
        rate: 0.0,
        seconds,
    };
    let n = arrivals.len() as u64;
    PhaseResult::new(phase, &arrivals, &outcomes, Vec::new(), n)
}
