//! Every call the traced run makes into a layer, in one module.
//!
//! The product has no spans yet, so the traced run reaches each layer
//! through its public functions and times the calls here: the same work
//! the untraced entry points do, split at the layer boundaries. Each
//! traced operation is run against the untraced one on identical inputs
//! (and must give bitwise the same answer), so the layer times can be
//! checked to add up to the untraced wall time (`layer_sum_pct`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use aserta::{AnalysisSession, AsertaConfig, AsertaReport, CircuitCells, EngineConfig};
use ser_cells::{CharGrids, Library};
use ser_logicsim::sensitize::sensitization_probabilities_with_stats_cfg;
use ser_logicsim::SensitizationMatrix;
use ser_netlist::Circuit;
use ser_serve::api::{AnalyzeResult, CircuitSource, Request, Response, SweepPoint};
use ser_serve::pool::intern_circuit;
use ser_serve::{proto, Client, Listen, DEFAULT_MAX_FRAME};
use ser_spice::Technology;
use sertopt::{OptimizeRequest, Outcome};

use crate::report::{self, Metrics};
use crate::timed;

/// Every per-layer metric, in report order. Each workload reports all
/// of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("ser_cells.characterize_ms", "ms"),
    ("ser_cells.variants", "count"),
    ("ser_netlist.instantiate_ms", "ms"),
    ("ser_logicsim.pij_ms", "ms"),
    ("ser_logicsim.cone_entries", "count"),
    ("ser_logicsim.adaptive_stop_pct", "%"),
    ("ser_logicsim.exact_roots", "count"),
    ("ser_logicsim.arena_peak_mb", "MiB"),
    ("aserta.build_ms", "ms"),
    ("aserta.delta_ms", "ms"),
    ("aserta.rows_recomputed", "count"),
    ("aserta.report_ms", "ms"),
    ("aserta.sweep_corner_ms", "ms"),
    ("aserta.snapshot_encode_ms", "ms"),
    ("aserta.snapshot_kb", "KiB"),
    ("ser_serve.encode_ms", "ms"),
    ("ser_serve.decode_ms", "ms"),
    ("ser_serve.response_kb", "KiB"),
    ("ser_serve.ping_rtt_ms", "ms"),
    ("ser_serve.pool_hit_pct", "%"),
    ("ser_serve.dup_builds", "count"),
    ("ser_serve.sweep_p50_ms", "ms"),
    ("ser_serve.cold_p50_ms", "ms"),
    ("sertopt.optimize_ms", "ms"),
    ("sertopt.evaluations", "count"),
    ("sertopt.ms_per_eval", "ms"),
    ("sertopt.ser_reduction_pct", "%"),
    ("sertopt.delay_ratio", "ratio"),
    ("trace_overhead_pct", "%"),
    ("layer_sum_pct", "%"),
];

/// Span time charged to the socket round trip of a served request.
const WIRE: &str = "ser_serve.wire_ms";

#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    total: f64,
    calls: u64,
}

/// Accumulated layer spans and counters of one traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Time spent inside a traced operation, by layer.
    op: BTreeMap<&'static str, Acc>,
    /// Time and counts outside the traced operations (set-up) and
    /// per-call counters.
    other: BTreeMap<&'static str, Acc>,
}

impl LayerTimes {
    /// Charges `ms` to `layer` inside a traced operation.
    pub fn span(&mut self, layer: &'static str, ms: f64) {
        let a = self.op.entry(layer).or_default();
        a.total += ms;
        a.calls += 1;
    }

    /// Records a set-up span or a per-call counter; the metric reads
    /// the mean over calls.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let a = self.other.entry(name).or_default();
        a.total += value;
        a.calls += 1;
    }

    /// Sets a gauge (overwrites earlier values).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.other.insert(
            name,
            Acc {
                total: value,
                calls: 1,
            },
        );
    }

    /// Raises a high-water mark.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let a = self.other.entry(name).or_default();
        a.total = a.total.max(value);
        a.calls = 1;
    }

    fn mean(&self, name: &str) -> f64 {
        let a = self
            .op
            .get(name)
            .or_else(|| self.other.get(name))
            .copied()
            .unwrap_or_default();
        if a.calls == 0 {
            0.0
        } else {
            a.total / a.calls as f64
        }
    }

    /// Total span time inside traced operations, milliseconds.
    fn op_total_ms(&self) -> f64 {
        self.op.values().map(|a| a.total).sum()
    }

    /// Emits every [`PER_LAYER`] metric. `untraced_ms` and `traced_ms`
    /// are the wall times of the same operations run untraced and
    /// traced.
    pub fn finish(mut self, metrics: &mut Metrics, untraced_ms: f64, traced_ms: f64) {
        let evals = self
            .other
            .get("sertopt.evaluations")
            .map_or(0.0, |a| a.total);
        let opt_ms = self.op.get("sertopt.optimize_ms").map_or(0.0, |a| a.total);
        if evals > 0.0 {
            self.set("sertopt.ms_per_eval", opt_ms / evals);
        }
        self.set(
            "trace_overhead_pct",
            100.0 * (traced_ms / untraced_ms - 1.0),
        );
        self.set("layer_sum_pct", 100.0 * self.op_total_ms() / untraced_ms);
        for (name, unit) in PER_LAYER {
            metrics.put(name, unit, self.mean(name));
        }
    }
}

/// Generates a named ISCAS'85 benchmark (set-up span).
pub fn instantiate(name: &str, lt: &mut LayerTimes) -> Circuit {
    let (c, t) = timed(|| ser_netlist::generate::iscas85(name).expect("a bundled ISCAS'85 name"));
    lt.count("ser_netlist.instantiate_ms", t);
    c
}

/// Times a library characterization (set-up span).
pub fn characterize(build: impl FnOnce() -> Library, lt: &mut LayerTimes) -> Library {
    let (library, t) = timed(build);
    lt.count("ser_cells.characterize_ms", t);
    lt.set("ser_cells.variants", library.len() as f64);
    library
}

fn estimate(
    circuit: &Circuit,
    cfg: &AsertaConfig,
    engine: &EngineConfig,
    lt: &mut LayerTimes,
) -> SensitizationMatrix {
    let ((pij, stats), t) = timed(|| {
        sensitization_probabilities_with_stats_cfg(
            circuit,
            cfg.sensitization_vectors,
            cfg.seed,
            engine.threads(),
            engine.cone_chunk(),
            &engine.pij(),
        )
    });
    lt.span("ser_logicsim.pij_ms", t);
    lt.count("ser_logicsim.cone_entries", stats.cone_entries as f64);
    lt.count("ser_logicsim.exact_roots", stats.exact_roots as f64);
    lt.count(
        "ser_logicsim.adaptive_stop_pct",
        100.0 * stats.adaptive_stops as f64 / circuit.node_count() as f64,
    );
    lt.max(
        "ser_logicsim.arena_peak_mb",
        stats.peak_bytes as f64 / (1024.0 * 1024.0),
    );
    pij
}

/// `aserta::try_analyze_fresh`, split into its `P_ij` estimate and the
/// analysis built on it.
pub fn analyze(
    circuit: &Circuit,
    cells: &CircuitCells,
    library: &mut Library,
    cfg: &AsertaConfig,
    lt: &mut LayerTimes,
) -> Result<AsertaReport, aserta::AnalysisError> {
    let pij = estimate(circuit, cfg, &EngineConfig::lenient_env(), lt);
    let (report, t) = timed(|| aserta::try_analyze(circuit, cells, library, &pij, cfg));
    lt.span("aserta.build_ms", t);
    report
}

/// `sertopt::optimize` (the optimizer exposes no finer public split).
pub fn optimize(
    circuit: &Circuit,
    library: &mut Library,
    request: &OptimizeRequest,
    lt: &mut LayerTimes,
) -> Outcome {
    let (outcome, t) = timed(|| sertopt::optimize(circuit, library, request));
    lt.span("sertopt.optimize_ms", t);
    lt.count("sertopt.evaluations", outcome.evaluations as f64);
    outcome
}

/// Median round trip of a `Ping` on a fresh connection, milliseconds:
/// the socket and worker hand-off cost every served request pays.
pub fn ping_rtt_ms(endpoint: &Listen) -> f64 {
    let mut client = Client::connect(endpoint).expect("the daemon accepts");
    let rtts: Vec<f64> = (0..200)
        .map(|_| timed(|| client.request(&Request::Ping)).1)
        .collect();
    report::median(&rtts)
}

/// A warm-session store that serves `Analyze` and `CornerSweep` requests
/// in-process, through the same public calls the daemon makes for them:
/// frame encode/decode, circuit instantiation and interning, and on a
/// miss library characterization, `P_ij`, session build and the crash
/// image.
pub struct Replay {
    dir: PathBuf,
    wire_ms: f64,
    engine: EngineConfig,
    sessions: Vec<(&'static Circuit, AsertaConfig, AnalysisSession<'static>)>,
}

impl Replay {
    /// An empty store imaging into `dir`, charging `wire_ms` per request
    /// for the socket round trip it skips.
    pub fn new(dir: PathBuf, wire_ms: f64) -> Self {
        Replay {
            dir,
            wire_ms,
            engine: EngineConfig::default().overlay(&EngineConfig::lenient_env()),
            sessions: Vec::new(),
        }
    }

    /// Serves one request, recording its layer spans.
    pub fn handle(&mut self, request: &Request, lt: &mut LayerTimes) -> Result<Response, String> {
        let (request, _): (Request, _) = round_trip(request, lt)?;
        let response = match &request {
            Request::Analyze {
                circuit, config, ..
            } => self.analyze(circuit, config, lt)?,
            Request::CornerSweep {
                circuit,
                config,
                vdds,
                vths,
                charges,
                ..
            } => self.sweep(circuit, config, vdds, vths, charges, lt)?,
            other => return Err(format!("the replay does not serve {other:?}")),
        };
        let (response, bytes) = round_trip(&response, lt)?;
        lt.count("ser_serve.response_kb", bytes as f64 / 1024.0);
        lt.span(WIRE, self.wire_ms);
        Ok(response)
    }

    /// The pooled session for a request, built on a miss.
    fn session(
        &mut self,
        source: &CircuitSource,
        cfg: &AsertaConfig,
        lt: &mut LayerTimes,
    ) -> Result<usize, String> {
        let (circuit, t) = timed(|| source.instantiate().map(intern_circuit));
        lt.span("ser_netlist.instantiate_ms", t);
        let circuit = circuit.map_err(|e| e.to_string())?;
        let identity = AsertaConfig {
            charge: 0.0,
            ..cfg.clone()
        };
        if let Some(i) = self
            .sessions
            .iter()
            .position(|(c, id, _)| std::ptr::eq(*c, circuit) && *id == identity)
        {
            return Ok(i);
        }
        let cells = CircuitCells::nominal(circuit);
        let (library, t) = timed(|| {
            let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
            for g in circuit.gates() {
                library.get_or_characterize(cells.get(g).expect("gates carry parameters"));
            }
            library
        });
        lt.span("ser_cells.characterize_ms", t);
        lt.count("ser_cells.variants", library.len() as f64);
        let pij = estimate(circuit, cfg, &self.engine, lt);
        let (session, t) = timed(|| {
            AnalysisSession::builder(circuit, cells, library, cfg.clone())
                .engine(self.engine)
                .pij(pij)
                .build()
        });
        lt.span("aserta.build_ms", t);
        let session = session.map_err(|e| e.to_string())?;
        std::fs::create_dir_all(&self.dir).map_err(|e| e.to_string())?;
        let path = self.dir.join(format!("{}.sersnap", self.sessions.len()));
        let (imaged, t) = timed(|| session.snapshot_to(&path));
        lt.span("aserta.snapshot_encode_ms", t);
        imaged.map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        lt.count("aserta.snapshot_kb", bytes as f64 / 1024.0);
        self.sessions.push((circuit, identity, session));
        Ok(self.sessions.len() - 1)
    }

    fn analyze(
        &mut self,
        source: &CircuitSource,
        cfg: &AsertaConfig,
        lt: &mut LayerTimes,
    ) -> Result<Response, String> {
        let i = self.session(source, cfg, lt)?;
        let (circuit, _, session) = &mut self.sessions[i];
        let (rows, t) = timed(|| -> Result<usize, aserta::AnalysisError> {
            let a = session.try_set_charge(cfg.charge)?;
            let b = session.try_set_cells(&CircuitCells::nominal(circuit))?;
            Ok(a.rows_recomputed + b.rows_recomputed)
        });
        lt.span("aserta.delta_ms", t);
        lt.count(
            "aserta.rows_recomputed",
            rows.map_err(|e| e.to_string())? as f64,
        );
        let (result, t) = timed(|| {
            let report = session.report();
            AnalyzeResult {
                circuit: circuit.name().to_owned(),
                gates: circuit.gate_count() as u64,
                unreliability: session.unreliability(),
                critical_delay_s: session.critical_delay(),
                per_gate_unreliability: report.per_gate_unreliability,
            }
        });
        lt.span("aserta.report_ms", t);
        Ok(Response::Analyzed(result))
    }

    fn sweep(
        &mut self,
        source: &CircuitSource,
        cfg: &AsertaConfig,
        vdds: &[f64],
        vths: &[f64],
        charges: &[f64],
        lt: &mut LayerTimes,
    ) -> Result<Response, String> {
        let i = self.session(source, cfg, lt)?;
        let (circuit, _, session) = &mut self.sessions[i];
        let base = CircuitCells::nominal(circuit);
        let mut points = Vec::new();
        for &vdd in vdds {
            for &vth in vths {
                for &charge in charges {
                    let (point, t) = timed(|| -> Result<SweepPoint, aserta::AnalysisError> {
                        session.try_set_charge(charge)?;
                        session.try_set_cells(&CircuitCells::from_fn(circuit, |id| {
                            let mut p = *base.get(id).expect("gates carry parameters");
                            p.vdd = vdd;
                            p.vth = vth;
                            p
                        }))?;
                        Ok(SweepPoint {
                            vdd,
                            vth,
                            charge,
                            unreliability: session.unreliability(),
                            critical_delay_s: session.critical_delay(),
                        })
                    });
                    lt.span("aserta.sweep_corner_ms", t);
                    points.push(point.map_err(|e| e.to_string())?);
                }
            }
        }
        Ok(Response::Swept { points })
    }
}

/// Encodes `value` as a frame and decodes it back, as one side of the
/// wire writes and the other reads it. Returns the decoded value and
/// the frame's size in bytes.
fn round_trip<T: serde::Serialize + serde::Deserialize>(
    value: &T,
    lt: &mut LayerTimes,
) -> Result<(T, usize), String> {
    let mut frame = Vec::new();
    let (written, t) = timed(|| proto::write_frame(&mut frame, value));
    lt.span("ser_serve.encode_ms", t);
    written.map_err(|e| e.to_string())?;
    let (read, t) = timed(|| proto::read_message::<T>(&mut frame.as_slice(), DEFAULT_MAX_FRAME));
    lt.span("ser_serve.decode_ms", t);
    read.map(|v| (v, frame.len())).map_err(|e| e.to_string())
}
