//! `routed-small`: an open loop over one TCP connection into an
//! in-process `RouterServer` that forwards to two `NetServer` replicas
//! (one worker each). Each replica serves several `small_cnn` models
//! (3×8×8 input) drawn with Zipf popularity, so the consistent-hash ring
//! decides placement. A writer thread sends `Infer` frames on schedule
//! with `wire::write_frame`, a reader thread takes the responses with
//! `wire::read_frame`. Engine time is about half a millisecond, so the
//! wire codec, the per-connection and per-request threads and router
//! forwarding dominate.

use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use patdnn_nn::prelude::Sequential;
use patdnn_serve::batching::BatchPolicy;
use patdnn_serve::net::{NetServer, NetServerConfig, NetServerHandle};
use patdnn_serve::registry::ModelRegistry;
use patdnn_serve::request::{Client, Priority};
use patdnn_serve::router::{Router, RouterConfig, RouterHandle, RouterServer};
use patdnn_serve::server::{Server, ServerConfig};
use patdnn_serve::wire::{read_frame, reject_to_error, write_frame, write_handshake, Frame};

use crate::host::RssSampler;
use crate::loadgen::{
    schedule, zipf, Arrival, OpenLoopSummary, Outcome, Phase, PhaseKind, PhaseResult, Rates,
    LIMIT_MS,
};
use crate::models::{prepare, InputPool, Model, SetupBreakdown};
use crate::report::Report;
use crate::{put_open_loop, put_setup, Ctx};

/// The fixed rates, requests per second (recorded in BENCHMARK.json).
pub const RATES: Rates = Rates {
    nominal: 500.0,
    ramp_ratio: 1.08,
    ramp_steps: 11,
    overload: 1100.0,
};

/// Models per replica and their Zipf exponent.
const MODELS: usize = 6;
const ZIPF_S: f64 = 1.1;
const POOL: usize = 16;
const REPLICAS: usize = 2;

/// Replica ports are searched upwards from here. The hash ring keys on
/// replica addresses, so fixed ports keep the model placement the same
/// from run to run.
const FIRST_PORT: u16 = 27100;

/// The first free port pair whose ring placement splits the Zipf
/// traffic between the two replicas within 40–60%, so that neither
/// replica takes most of the load by accident of hashing.
fn balanced_ports(models: usize) -> [u16; REPLICAS] {
    let weights = zipf(models, ZIPF_S);
    let total: f64 = weights.iter().sum();
    let mut base = FIRST_PORT;
    loop {
        let ports = [base, base + 1];
        let router = Router::new(RouterConfig {
            replicas: ports.iter().map(|p| format!("127.0.0.1:{p}")).collect(),
            ..RouterConfig::default()
        });
        let first: f64 = (0..models)
            .filter(|&m| router.preference(&model_name(m))[0] == 0)
            .map(|m| weights[m])
            .sum();
        let free = ports
            .iter()
            .all(|p| TcpListener::bind(("127.0.0.1", *p)).is_ok());
        let balanced = models < 2 || (0.4..=0.6).contains(&(first / total));
        if free && balanced || base > FIRST_PORT + 2000 {
            return ports;
        }
        base += 2;
    }
}

/// Set-ups per run; `setup_s` is their median (a set-up takes about
/// 10 ms, mostly thread start-up, so it needs many samples).
const SETUP_REPS: usize = 15;

pub fn model_name(i: usize) -> String {
    format!("small_cnn.{i}")
}

/// Two replicas behind a router, all in this process.
pub struct Fleet {
    replicas: Vec<NetServerHandle>,
    /// Per-replica clients, kept for the replicas' metrics.
    clients: Vec<Client>,
    router: RouterHandle,
}

impl Fleet {
    /// Starts the fleet serving `models` small CNNs; returns it with the
    /// pruned networks the references come from.
    pub fn start(
        ctx: &Ctx,
        models: usize,
        parent: u64,
        bd: &mut SetupBreakdown,
    ) -> Result<(Fleet, Vec<Sequential>), String> {
        let tracer = &ctx.tracer;
        let mut replicas = Vec::new();
        let mut clients = Vec::new();
        let mut nets = Vec::new();
        let ports = balanced_ports(models);
        for (r, port) in ports.into_iter().enumerate() {
            let registry = Arc::new(ModelRegistry::new());
            for m in 0..models {
                // The replicas hold the same models, so a retried
                // request is served identically.
                let p = prepare(Model::SmallCnn, m as u64, 1, tracer, parent, bd)?;
                registry.register(&model_name(m), p.engine);
                if r == 0 {
                    nets.push(p.net);
                }
            }
            let cfg = ServerConfig {
                workers: 1,
                batch: BatchPolicy {
                    max_batch: 4,
                    ..BatchPolicy::default()
                },
                // Above the admission budget, as in served-mix.
                queue_capacity: 1024,
                ..ServerConfig::default()
            };
            let (bound, _) = tracer.time("serve.net.bind", parent, |_| {
                let server = Server::start(registry, cfg);
                clients.push(server.client());
                NetServer::bind(
                    server,
                    &format!("127.0.0.1:{port}"),
                    NetServerConfig::default(),
                )
            });
            replicas.push(bound.map_err(|e| format!("replica bind: {e}"))?.spawn());
        }
        let cfg = RouterConfig {
            replicas: replicas.iter().map(|h| h.addr().to_string()).collect(),
            ..RouterConfig::default()
        };
        let (router, _) = tracer.time("serve.router.bind", parent, |_| {
            RouterServer::bind(Router::new(cfg), "127.0.0.1:0")
        });
        let router = router.map_err(|e| format!("router bind: {e}"))?.spawn();
        Ok((
            Fleet {
                replicas,
                clients,
                router,
            },
            nets,
        ))
    }

    pub fn router_addr(&self) -> String {
        self.router.addr().to_string()
    }

    /// Address of the replica the ring prefers for `model`.
    pub fn home_addr(&self, model: &str) -> String {
        let idx = self.router.router().preference(model)[0];
        self.replicas[idx].addr().to_string()
    }

    /// The router's retried share of forwarded requests and its
    /// ejections so far.
    pub fn router_counts(&self) -> (f64, f64) {
        let m = self.router.router().metrics_snapshot();
        let retries = m.shed_retries + m.transport_retries;
        (
            crate::stats::ratio(retries, m.forwarded),
            m.ejections as f64,
        )
    }

    /// Stops the router front-end, then drains and stops the replicas.
    pub fn stop(self) -> Result<(), String> {
        self.router
            .shutdown()
            .map_err(|e| format!("router shutdown: {e}"))?;
        for r in self.replicas {
            r.shutdown(true)
                .map_err(|e| format!("replica shutdown: {e}"))?;
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let mut setup_s = Vec::new();
    let mut bd = SetupBreakdown::default();
    let mut live: Option<(Fleet, Vec<Sequential>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((old, _)) = live.take() {
            old.stop()?;
        }
        let mut rep = SetupBreakdown::default();
        let id = tracer.open();
        let start = Instant::now();
        let built = Fleet::start(ctx, MODELS, id, &mut rep)?;
        setup_s.push(start.elapsed().as_secs_f64());
        tracer.close(id, "setup", 0, 0, start);
        bd = rep;
        live = Some(built);
    }
    let (fleet, mut nets) = live.expect("at least one set-up");
    let pools: Vec<InputPool> = nets
        .iter_mut()
        .enumerate()
        .map(|(m, net)| InputPool::new(Model::SmallCnn, net, POOL, ctx.seed ^ (0x7a + m as u64)))
        .collect();
    drop(nets);

    let stream = TcpStream::connect(fleet.router_addr()).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    write_handshake(&mut &stream).map_err(|e| format!("handshake: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);

    let weights = zipf(MODELS, ZIPF_S);
    let router = fleet.router.router();
    let homes: Vec<String> = (0..MODELS)
        .map(|m| fleet.home_addr(&model_name(m)))
        .collect();
    report
        .notes
        .push(format!("placement (model rank -> replica): {homes:?}"));
    let before = router.metrics_snapshot();
    let mut results = Vec::new();
    let mut rss_mb = 0.0;
    for (pi, phase) in RATES.phases(ctx.seconds).into_iter().enumerate() {
        let seed = ctx.seed.wrapping_mul(1000).wrapping_add(pi as u64);
        let arrivals = schedule(seed, phase.rate, phase.seconds, &weights, POOL);
        let rss = (phase.kind == PhaseKind::Nominal).then(RssSampler::start);
        let result = run_phase(
            ctx,
            &stream,
            &mut reader,
            &pools,
            phase,
            &arrivals,
            (pi as u64 + 1) << 32,
        );
        if let Some(rss) = rss {
            rss_mb = rss.finish();
        }
        results.push(result?);
    }
    drop(reader);
    drop(stream);
    let summary = OpenLoopSummary::new(results);
    put_setup(report, &setup_s, &bd);
    put_open_loop(report, &summary, rss_mb);

    // The benchmark's tally against the router's and replicas' counters.
    let after = router.metrics_snapshot();
    let t = summary.total();
    let routed = (
        after.completed - before.completed,
        after.rejected - before.rejected,
    );
    let ours = (t.completed, t.shed + t.expired + t.cancelled + t.failed);
    if routed != ours {
        report.problems.push(format!(
            "routed-small: tally (completed, rejected) {ours:?} != router counters {routed:?}"
        ));
    }
    let snaps: Vec<_> = fleet
        .clients
        .iter()
        .map(|c| c.metrics().snapshot())
        .collect();
    let replica_completed: u64 = snaps.iter().map(|s| s.requests).sum();
    if replica_completed != t.completed {
        report.problems.push(format!(
            "routed-small: {} completed != {replica_completed} completed by the replicas",
            t.completed
        ));
    }
    let forwarded = after.forwarded - before.forwarded;
    let retries = after.shed_retries - before.shed_retries + after.transport_retries
        - before.transport_retries;
    report
        .put_extra(
            "router.retry_frac",
            crate::stats::ratio(retries, forwarded),
            "ratio",
        )
        .n = Some(forwarded as usize);
    report.put_extra(
        "router.ejections",
        (after.ejections - before.ejections) as f64,
        "count",
    );
    let batches: u64 = snaps.iter().map(|s| s.batches).sum();
    report
        .put_extra(
            "server.avg_batch",
            crate::stats::ratio(replica_completed, batches),
            "count",
        )
        .n = Some(batches as usize);
    drop(router);
    fleet.stop()
}

/// Span id of a request's root span: request ids live above the
/// tracer's counter range, so writer and reader agree on it without
/// talking.
fn root_id(req: u64) -> u64 {
    req | 1 << 63
}

fn run_phase(
    ctx: &Ctx,
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    pools: &[InputPool],
    phase: Phase,
    arrivals: &[Arrival],
    id_base: u64,
) -> Result<PhaseResult, String> {
    let tracer = &ctx.tracer;
    let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(phase.seconds);
    let names: Vec<String> = (0..MODELS).map(model_name).collect();
    let (written, received) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<(Vec<f64>, u64), String> {
            let mut lags = Vec::with_capacity(arrivals.len());
            let mut in_time = 0u64;
            let mut out = BufWriter::new(stream);
            for (i, a) in arrivals.iter().enumerate() {
                let intended = start + a.at;
                let now = Instant::now();
                if intended > now {
                    std::thread::sleep(intended - now);
                }
                let sent = Instant::now();
                let lag = sent.saturating_duration_since(intended);
                lags.push(lag.as_secs_f64() * 1e3);
                in_time += u64::from(sent <= end);
                let (priority, deadline_us) = if a.interactive {
                    let left = limit.saturating_sub(lag).max(Duration::from_micros(1));
                    (Priority::Interactive, left.as_micros() as u64)
                } else {
                    (Priority::Batch, 0)
                };
                let req = id_base + i as u64 + 1;
                let frame = Frame::Infer {
                    id: req,
                    model: names[a.model].clone(),
                    priority,
                    deadline_us,
                    input: pools[a.model].inputs[a.input].clone(),
                };
                write_frame(&mut out, &frame).map_err(|e| format!("write frame: {e}"))?;
                tracer.record("serve.wire.write", root_id(req), req, sent, Instant::now());
            }
            Ok((lags, in_time))
        });
        let mut outcomes: Vec<Option<Outcome>> = vec![None; arrivals.len()];
        let mut error = None;
        for _ in 0..arrivals.len() {
            let frame = match read_frame(reader) {
                Ok(f) => f,
                Err(e) => {
                    error = Some(format!("read frame: {e}"));
                    break;
                }
            };
            let done = Instant::now();
            let (id, outcome) = match frame {
                Frame::Completed { id, output, .. } => {
                    let Some(a) = id
                        .checked_sub(id_base + 1)
                        .and_then(|i| arrivals.get(i as usize))
                    else {
                        error = Some(format!("response to unknown id {id}"));
                        break;
                    };
                    let ms = done.saturating_duration_since(start + a.at).as_secs_f64() * 1e3;
                    let correct = pools[a.model].check(a.input, &output);
                    (id, Outcome::Completed { ms, correct })
                }
                Frame::Reject {
                    id,
                    code,
                    aux_us,
                    message,
                } => match reject_to_error(code, aux_us, &message) {
                    Ok(e) => (id, Outcome::from_error(&e)),
                    Err(e) => {
                        error = Some(format!("reject frame: {e}"));
                        break;
                    }
                },
                other => {
                    error = Some(format!("unexpected frame {:#04x}", other.tag()));
                    break;
                }
            };
            let i = (id - id_base - 1) as usize;
            if outcomes[i].replace(outcome).is_some() {
                error = Some(format!("two responses to id {id}"));
                break;
            }
            tracer.span(root_id(id), "request", 0, id, start + arrivals[i].at, done);
        }
        (
            writer.join().expect("writer thread panicked"),
            (outcomes, error),
        )
    });
    let (lags, in_time) = written?;
    let (outcomes, error) = received;
    if let Some(e) = error {
        return Err(format!("routed-small {} phase: {e}", phase.kind.label()));
    }
    let outcomes: Vec<Outcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every id answered once"))
        .collect();
    Ok(PhaseResult::new(phase, arrivals, &outcomes, lags, in_time))
}
