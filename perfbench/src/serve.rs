//! `serve-mixed`: an in-process `ser_serve` daemon on a Unix socket at
//! its default settings, with a fresh pool directory, driven by two
//! closed-loop connections (one per core) that share one pre-warmed set
//! of ISCAS'85 circuits.
//!
//! Most requests are warm charge-delta `Analyze` calls; one in
//! [`SWEEP_EVERY`] is a 27-corner `CornerSweep` and one in
//! [`COLD_EVERY`] names a never-seen generated circuit, on a fixed
//! schedule. Cold builds and first-touch corner characterization of the
//! pre-warmed set happen in set-up, and no set-up connection stays open
//! in the timed phase. The two connections are not steered apart: when
//! both want the same circuit, the second misses while the first has the
//! session checked out and builds a duplicate. That defect stays visible
//! in the pool counters (`dup_builds`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use aserta::{AsertaConfig, CircuitCells};
use ser_cells::{CharGrids, Library};
use ser_serve::api::{AnalyzeResult, CircuitSource, GridKind, PoolStats, Request, Response};
use ser_serve::{serve, Client, Listen, PoolConfig, ServerConfig, ServerHandle};
use ser_spice::units::FC;
use ser_spice::Technology;
use serde::{Serialize, Value};

use crate::layers::{self, LayerTimes, Replay};
use crate::report::{self, Metrics, Ops};
use crate::{mix, timed, EndToEnd, RunArgs, RunOutput};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The shared, pre-warmed circuits.
const CIRCUITS: [&str; 4] = ["c432", "c499", "c880", "c1355"];
/// Strike charges of warm requests, femtocoulombs.
const CHARGES_FC: [f64; 5] = [8.0, 12.0, 16.0, 24.0, 32.0];
const SWEEP_VDDS: [f64; 3] = [0.9, 1.0, 1.1];
const SWEEP_VTHS: [f64; 1] = [0.2];
const SWEEP_CHARGES_FC: [f64; 9] = [4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0];
/// One request in this many is a corner sweep.
const SWEEP_EVERY: u64 = 25;
/// One request in this many names a never-seen circuit.
const COLD_EVERY: u64 = 100;
/// Closed-loop connections of the timed phase (one per core).
const CONNECTIONS: u64 = 2;
/// Sampled answers per connection re-derived by direct library calls.
const CHECKS_PER_KIND: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Sweep,
    Cold,
}

fn config(charge_fc: f64) -> AsertaConfig {
    AsertaConfig {
        charge: charge_fc * FC,
        ..AsertaConfig::default()
    }
}

fn analyze(circuit: CircuitSource, charge_fc: f64) -> Request {
    Request::Analyze {
        circuit,
        config: config(charge_fc),
        grids: GridKind::Coarse,
        deadline_ms: None,
    }
}

fn sweep(name: &str) -> Request {
    Request::CornerSweep {
        circuit: CircuitSource::Named(name.to_owned()),
        config: config(16.0),
        grids: GridKind::Coarse,
        vdds: SWEEP_VDDS.to_vec(),
        vths: SWEEP_VTHS.to_vec(),
        charges: SWEEP_CHARGES_FC.iter().map(|q| q * FC).collect(),
        // One worker per request: each connection's sweep stays on its
        // own core, and corner variants stay in the pooled session.
        threads: 1,
        deadline_ms: None,
    }
}

/// The `i`-th request of connection `conn`.
fn request(seed: u64, conn: u64, i: u64) -> (Kind, Request) {
    let r = mix(seed, (conn << 32) | i);
    let name = CIRCUITS[(r % CIRCUITS.len() as u64) as usize];
    if i % COLD_EVERY == COLD_EVERY - 1 {
        let circuit = CircuitSource::Layered {
            name: format!("cold-{conn}-{i}"),
            inputs: 32,
            outputs: 16,
            gates: 300,
            seed: r,
        };
        (Kind::Cold, analyze(circuit, 16.0))
    } else if i % SWEEP_EVERY == SWEEP_EVERY / 2 {
        (Kind::Sweep, sweep(name))
    } else {
        let q = CHARGES_FC[((r >> 32) % CHARGES_FC.len() as u64) as usize];
        (
            Kind::Warm,
            analyze(CircuitSource::Named(name.to_owned()), q),
        )
    }
}

/// Whether a response has the shape its request asks for, with finite
/// numbers.
fn well_formed(kind: Kind, response: &Response) -> bool {
    match (kind, response) {
        (Kind::Warm | Kind::Cold, Response::Analyzed(a)) => {
            a.unreliability.is_finite()
                && a.unreliability > 0.0
                && a.per_gate_unreliability.iter().all(|u| u.is_finite())
        }
        (Kind::Sweep, Response::Swept { points }) => {
            points.len() == SWEEP_VDDS.len() * SWEEP_VTHS.len() * SWEEP_CHARGES_FC.len()
                && points.iter().all(|p| p.unreliability.is_finite())
        }
        _ => false,
    }
}

struct Daemon {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Daemon {
    fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Boots a daemon and warms the shared circuits. Returns the `U` each
/// circuit answered at the nominal 16 fC.
fn setup(rep: usize, ops: &mut Ops) -> (Daemon, Vec<f64>) {
    let dir = PathBuf::from(format!("pool-{rep}"));
    let listen = Listen::Unix(PathBuf::from(format!("s{rep}.sock")));
    let handle = serve(ServerConfig {
        pool: PoolConfig {
            dir: Some(dir.clone()),
            ..PoolConfig::default()
        },
        ..ServerConfig::new(listen)
    })
    .expect("the daemon binds its socket");
    let nominal_u = warm_up(&handle.endpoint(), ops);
    (Daemon { handle, dir }, nominal_u)
}

/// One analyze and one full sweep per shared circuit, on a connection
/// that closes afterwards: the cold build and the corner variants'
/// characterization happen here, not in a timed phase. Returns the `U`
/// each circuit answered at the nominal 16 fC.
fn warm_up(endpoint: &Listen, ops: &mut Ops) -> Vec<f64> {
    let mut client = Client::connect(endpoint).expect("the daemon accepts");
    let mut nominal_u = Vec::new();
    for name in CIRCUITS {
        let source = CircuitSource::Named(name.to_owned());
        let warm = client.request(&analyze(source, 16.0));
        let u = match &warm {
            Ok(Response::Analyzed(a)) => a.unreliability,
            _ => f64::NAN,
        };
        ops.check(u.is_finite(), || {
            format!("warm-up analyze of {name}: {warm:?}")
        });
        nominal_u.push(u);
        let swept = client.request(&sweep(name));
        let ok = matches!(&swept, Ok(r) if well_formed(Kind::Sweep, r));
        ops.check(ok, || format!("warm-up sweep of {name}: {swept:?}"));
    }
    nominal_u
}

/// Pool counters, read on a fresh connection that closes right after.
fn stats(endpoint: &Listen) -> PoolStats {
    let mut client = Client::connect(endpoint).expect("the daemon accepts");
    match client.request(&Request::Stats) {
        Ok(Response::Stats(s)) => s,
        other => panic!("Stats request failed: {other:?}"),
    }
}

struct Sample {
    kind: Kind,
    latency_ms: f64,
    /// Kept for the bitwise check outside the clock.
    checked: Option<(Request, Response)>,
}

/// The closed-loop phase: `CONNECTIONS` clients until `seconds` pass.
fn timed_phase(
    endpoint: &Listen,
    seed: u64,
    seconds: Duration,
    ops: &mut Ops,
) -> (Vec<Sample>, Duration, PoolStats) {
    let before = stats(endpoint);
    let start = Instant::now();
    let per_conn: Vec<(Vec<Sample>, Ops)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = Client::connect(endpoint).expect("the daemon accepts");
                    let mut samples = Vec::new();
                    let mut ops = Ops::default();
                    let mut kept = [0usize; 3];
                    let mut i = 0;
                    while start.elapsed() < seconds {
                        let (kind, req) = request(seed, conn, i);
                        let (resp, t) = timed(|| client.request(&req));
                        let ok = matches!(&resp, Ok(r) if well_formed(kind, r));
                        ops.check(ok, || format!("connection {conn} request {i}: {resp:?}"));
                        let slot = &mut kept[kind as usize];
                        let checked = match resp {
                            Ok(r) if ok && *slot < CHECKS_PER_KIND => {
                                *slot += 1;
                                Some((req, r))
                            }
                            _ => None,
                        };
                        samples.push(Sample {
                            kind,
                            latency_ms: t,
                            checked,
                        });
                        i += 1;
                    }
                    (samples, ops)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = start.elapsed();
    let after = stats(endpoint);
    let mut samples = Vec::new();
    for (s, o) in per_conn {
        samples.extend(s);
        ops.absorb(o);
    }
    let delta = PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        requests: after.requests - before.requests,
        ..after
    };
    (samples, elapsed, delta)
}

/// Re-derives a sampled answer with direct library calls.
fn check_sample(req: &Request, resp: &Response, library: &mut Library) -> Result<(), String> {
    let bits = |x: f64| x.to_bits();
    match (req, resp) {
        (
            Request::Analyze {
                circuit, config, ..
            },
            Response::Analyzed(got),
        ) => {
            let c = circuit.instantiate().map_err(|e| e.to_string())?;
            let want = aserta::try_analyze_fresh(&c, &CircuitCells::nominal(&c), library, config)
                .map_err(|e| e.to_string())?;
            let same = bits(got.unreliability) == bits(want.unreliability)
                && got.per_gate_unreliability.len() == want.per_gate_unreliability.len()
                && got
                    .per_gate_unreliability
                    .iter()
                    .zip(&want.per_gate_unreliability)
                    .all(|(a, b)| bits(*a) == bits(*b));
            same.then_some(())
                .ok_or_else(|| format!("{}: served U differs from direct", circuit.label()))
        }
        (
            Request::CornerSweep {
                circuit,
                config,
                vdds,
                vths,
                charges,
                ..
            },
            Response::Swept { points },
        ) => {
            let c = circuit.instantiate().map_err(|e| e.to_string())?;
            let base = CircuitCells::nominal(&c);
            // First, middle and last corner.
            for idx in [0, points.len() / 2, points.len() - 1] {
                let p = &points[idx];
                let (vdd, vth, q) = (
                    vdds[idx / (vths.len() * charges.len())],
                    vths[(idx / charges.len()) % vths.len()],
                    charges[idx % charges.len()],
                );
                if (p.vdd, p.vth, p.charge) != (vdd, vth, q) {
                    return Err(format!("corner {idx} out of grid order"));
                }
                let cells = CircuitCells::from_fn(&c, |id| {
                    let mut g = *base.get(id).expect("gates carry parameters");
                    g.vdd = vdd;
                    g.vth = vth;
                    g
                });
                let cfg = AsertaConfig {
                    charge: q,
                    ..config.clone()
                };
                let want = aserta::try_analyze_fresh(&c, &cells, library, &cfg)
                    .map_err(|e| e.to_string())?;
                if bits(p.unreliability) != bits(want.unreliability) {
                    return Err(format!("{} corner {idx}: swept U differs", circuit.label()));
                }
            }
            Ok(())
        }
        _ => Err("unexpected request/response pairing".to_owned()),
    }
}

/// A scratch directory inside the benchmark's own tree; the socket and
/// pool paths are relative to it, which keeps them under the Unix
/// socket path limit wherever the checkout lives.
fn enter_run_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("creating the run directory");
    std::env::set_current_dir(&dir).expect("entering the run directory");
    dir
}

fn leave_run_dir(dir: &Path) {
    if let Some(parent) = dir.parent() {
        let _ = std::env::set_current_dir(parent);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The workload's settings, for the record.
fn settings(endpoint: &Listen) -> Vec<(String, Value)> {
    vec![
        (
            "vectors".to_owned(),
            config(16.0).sensitization_vectors.serialize(),
        ),
        ("grid".to_owned(), "coarse".serialize()),
        (
            "workers".to_owned(),
            ServerConfig::new(endpoint.clone()).workers.serialize(),
        ),
        ("connections".to_owned(), CONNECTIONS.serialize()),
    ]
}

fn p50(samples: &[Sample], kind: Kind) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.latency_ms)
        .collect();
    report::median(&v)
}

pub fn run(args: &RunArgs) -> RunOutput {
    let run_dir = enter_run_dir();
    let mut ops = Ops::default();
    let mut setups_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let mut nominal_u = Vec::new();
    let mut setup_rss_mb = f64::NAN;
    for rep in 0..SETUP_REPS {
        // Untimed: the previous daemon goes before the next one boots,
        // so only one warm pool is ever resident.
        if let Some(old) = daemon.take() {
            old.stop();
        }
        let ((d, u), ms) = timed(|| setup(rep, &mut ops));
        setups_s.push(ms / 1e3);
        // `peak_rss_mb`: the first daemon, booted and warmed in a fresh
        // process. Later set-ups reuse the stopped daemons' freed heap
        // unevenly, which moved the peak by 15-25% between runs. After
        // the timed phase the peak grows with the cold arrivals, whose
        // sessions the pool keeps, and so with throughput: a speed-up
        // would read as a memory regression. That peak is in the record.
        if rep == 0 {
            setup_rss_mb = crate::peak_rss_mb();
        }
        daemon = Some(d);
        nominal_u = u;
    }
    let daemon = daemon.expect("at least one set-up");
    let endpoint = daemon.handle.endpoint();
    let errs: Vec<f64> = CIRCUITS
        .iter()
        .zip(&nominal_u)
        .map(|(name, &u)| crate::analyze::check(&mut ops, name, u))
        .collect();
    let u_err_pct = errs.iter().sum::<f64>() / errs.len() as f64;

    let seconds = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let (samples, elapsed, pool) = timed_phase(&endpoint, args.seed, seconds, &mut ops);
    let sent = |k: Kind| samples.iter().filter(|s| s.kind == k).count() as u64;
    let busy_ms = |k: Kind| -> f64 {
        samples
            .iter()
            .filter(|s| s.kind == k)
            .map(|s| s.latency_ms)
            .sum()
    };
    let cold_sent = sent(Kind::Cold);
    let dup_builds = pool.misses.saturating_sub(cold_sent);
    let pool_hit_pct = 100.0 * pool.hits as f64 / pool.requests as f64;
    let (sweep_p50, cold_p50) = (p50(&samples, Kind::Sweep), p50(&samples, Kind::Cold));

    let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
    for s in &samples {
        if let Some((req, resp)) = &s.checked {
            let res = check_sample(req, resp, &mut library);
            ops.check(res.is_ok(), || res.clone().err().unwrap_or_default());
        }
    }

    let out = if args.trace {
        let mut lt = LayerTimes::default();
        lt.set("ser_serve.pool_hit_pct", pool_hit_pct);
        lt.set("ser_serve.dup_builds", dup_builds as f64);
        lt.set("ser_serve.sweep_p50_ms", sweep_p50);
        lt.set("ser_serve.cold_p50_ms", cold_p50);
        let (untraced_ms, traced_ms, n) =
            replay_phase(&endpoint, args.seed, args.seconds / 2, &mut lt, &mut ops);
        let mut metrics = Metrics::default();
        lt.finish(&mut metrics, untraced_ms, traced_ms);
        RunOutput {
            ops,
            metrics,
            record: [("traced_ops".to_owned(), n.serialize())]
                .into_iter()
                .chain(settings(&endpoint))
                .collect(),
        }
    } else {
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let e2e = EndToEnd {
            setups_s,
            latencies_ms: latencies,
            elapsed,
            u_err_pct,
            peak_rss_mb: setup_rss_mb,
        };
        let (metrics, mut record) = e2e.metrics();
        record.extend(settings(&endpoint));
        record.extend([
            (
                "warm_p50_ms".to_owned(),
                p50(&samples, Kind::Warm).serialize(),
            ),
            ("sweep_p50_ms".to_owned(), sweep_p50.serialize()),
            (
                "sweep_mean_ms".to_owned(),
                (busy_ms(Kind::Sweep) / sent(Kind::Sweep) as f64).serialize(),
            ),
            ("cold_p50_ms".to_owned(), cold_p50.serialize()),
            (
                "sent".to_owned(),
                Value::Object(vec![
                    ("warm".to_owned(), sent(Kind::Warm).serialize()),
                    ("sweep".to_owned(), sent(Kind::Sweep).serialize()),
                    ("cold".to_owned(), cold_sent.serialize()),
                ]),
            ),
            (
                "busy_s".to_owned(),
                Value::Object(vec![
                    ("warm".to_owned(), (busy_ms(Kind::Warm) / 1e3).serialize()),
                    ("sweep".to_owned(), (busy_ms(Kind::Sweep) / 1e3).serialize()),
                    ("cold".to_owned(), (busy_ms(Kind::Cold) / 1e3).serialize()),
                ]),
            ),
            (
                "peak_rss_end_mb".to_owned(),
                crate::peak_rss_mb().serialize(),
            ),
            ("pool_hits".to_owned(), pool.hits.serialize()),
            ("pool_misses".to_owned(), pool.misses.serialize()),
            ("pool_hit_pct".to_owned(), pool_hit_pct.serialize()),
            ("dup_builds".to_owned(), dup_builds.serialize()),
        ]);
        RunOutput {
            ops,
            metrics,
            record,
        }
    };
    daemon.stop();
    leave_run_dir(&run_dir);
    out
}

/// The traced comparison: one connection sends a fixed request stream
/// through the daemon (untraced), and each request is replayed through
/// the layer calls (traced) right after, on identical inputs.
fn replay_phase(
    endpoint: &Listen,
    seed: u64,
    seconds: Duration,
    lt: &mut LayerTimes,
    ops: &mut Ops,
) -> (f64, f64, u64) {
    let rtt = layers::ping_rtt_ms(endpoint);
    lt.set("ser_serve.ping_rtt_ms", rtt);
    let mut replay = Replay::new(PathBuf::from("replay-pool"), rtt);
    // Both sides start warm: duplicate builds in the two-connection
    // phase may have replaced the daemon's corner-warmed sessions.
    warm_up(endpoint, ops);
    let mut warm_lt = LayerTimes::default();
    for name in CIRCUITS {
        let _ = replay.handle(
            &analyze(CircuitSource::Named(name.to_owned()), 16.0),
            &mut warm_lt,
        );
        let _ = replay.handle(&sweep(name), &mut warm_lt);
    }
    // A stream no timed connection used, so its cold circuits are new.
    let conn = CONNECTIONS;
    let mut client = Client::connect(endpoint).expect("the daemon accepts");
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let start = Instant::now();
    let mut i = 0;
    while i < COLD_EVERY || start.elapsed() < seconds {
        let (kind, req) = request(seed, conn, i);
        // An untimed ping first: the replay just left the daemon's
        // worker idle, and waking an idle core would otherwise add to
        // every request a delay that a loaded daemon does not see.
        let _ = client.request(&Request::Ping);
        let (served, t) = timed(|| client.request(&req));
        untraced_ms += t;
        let (replayed, t) = timed(|| replay.handle(&req, lt));
        traced_ms += t;
        let same = match (&served, &replayed) {
            (Ok(a), Ok(b)) => well_formed(kind, a) && same_answer(a, b),
            _ => false,
        };
        ops.check(same, || {
            format!("replayed request {i} differs: {served:?} / {replayed:?}")
        });
        i += 1;
    }
    (untraced_ms, traced_ms, i)
}

fn same_answer(a: &Response, b: &Response) -> bool {
    let u = |r: &AnalyzeResult| (r.unreliability.to_bits(), r.critical_delay_s.to_bits());
    match (a, b) {
        (Response::Analyzed(x), Response::Analyzed(y)) => u(x) == u(y),
        (Response::Swept { points: x }, Response::Swept { points: y }) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.unreliability.to_bits() == q.unreliability.to_bits())
        }
        _ => false,
    }
}
