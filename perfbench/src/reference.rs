//! The committed high-budget `U` reference that `u_err_pct` is measured
//! against, and the command that regenerates it:
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --regen-reference perfbench/data/u_ref.json
//! ```
//!
//! Every `U` entry is the circuit's unreliability at the coarse grid and
//! the default analysis settings, with `P_ij` estimated from
//! [`REF_VECTORS`] vectors at a fixed budget: no adaptive stops
//! (`tol = 0`) and no exact enumeration. The file also holds the SER
//! reduction, percent, of one `optimize-dual` operation per circuit,
//! which that workload's quality floor is a share of.

use std::sync::OnceLock;

use aserta::{AsertaConfig, CircuitCells};
use ser_cells::{CharGrids, Library};
use ser_logicsim::engine::EngineConfig;
use ser_logicsim::sensitize::{sensitization_probabilities_cfg, PijConfig};
use ser_netlist::Circuit;
use ser_spice::Technology;
use serde::{Serialize, Value};

/// Vectors behind every reference `P_ij`.
pub const REF_VECTORS: usize = 1 << 18;

/// Seed of the reference estimate, distinct from every workload's.
pub const REF_SEED: u64 = 0x5EF_E7E4CE;

const COMMITTED: &str = include_str!("../data/u_ref.json");

/// Looks up a committed reference in `section` (`analyze`,
/// `optimize_baseline` or `optimize_ser_reduction_pct`).
pub fn lookup(section: &str, circuit: &str) -> Option<f64> {
    static PARSED: OnceLock<Option<Value>> = OnceLock::new();
    let root = PARSED
        .get_or_init(|| serde_json::from_str(COMMITTED).ok())
        .as_ref()?;
    let entries = root.as_object()?;
    let (_, table) = entries.iter().find(|(k, _)| k == section)?;
    let (_, u) = table.as_object()?.iter().find(|(k, _)| k == circuit)?;
    match u {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// `100 · |u − u_ref| / u_ref`, or `NaN` without a usable reference.
pub fn err_pct(u: f64, u_ref: Option<f64>) -> f64 {
    match u_ref {
        Some(r) if r > 0.0 && r.is_finite() => 100.0 * (u - r).abs() / r,
        _ => f64::NAN,
    }
}

/// The reference `U` of one assignment: fixed-budget `P_ij`, then the
/// analysis proper.
pub fn reference_u(
    circuit: &Circuit,
    cells: &CircuitCells,
    library: &mut Library,
) -> Result<f64, String> {
    let engine = EngineConfig::lenient_env();
    let fixed = PijConfig {
        tolerance: 0.0,
        exact_support: 0,
        ..PijConfig::default()
    };
    let pij = sensitization_probabilities_cfg(
        circuit,
        REF_VECTORS,
        REF_SEED,
        engine.threads(),
        engine.cone_chunk(),
        &fixed,
    );
    aserta::try_analyze(circuit, cells, library, &pij, &AsertaConfig::default())
        .map(|r| r.unreliability)
        .map_err(|e| format!("{}: {e}", circuit.name()))
}

/// Recomputes every reference and writes the JSON file.
pub fn regenerate(path: &str) -> Result<(), String> {
    let mut analyze = Vec::new();
    let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
    for name in crate::analyze::CIRCUITS {
        let circuit = ser_netlist::generate::iscas85(name).ok_or(format!("no circuit {name}"))?;
        let u = reference_u(&circuit, &CircuitCells::nominal(&circuit), &mut library)?;
        eprintln!("analyze {name}: U = {u:e}");
        analyze.push((name.to_owned(), u.serialize()));
    }
    let mut baseline = Vec::new();
    let mut reduction = Vec::new();
    let mut library = crate::optimize::dual_library(&crate::optimize::circuits());
    for circuit in crate::optimize::circuits() {
        let cells = crate::optimize::baseline_cells(&circuit, &mut library);
        let u = reference_u(&circuit, &cells, &mut library)?;
        eprintln!("optimize baseline {}: U = {u:e}", circuit.name());
        baseline.push((circuit.name().to_owned(), u.serialize()));
        let outcome = sertopt::optimize(&circuit, &mut library, &crate::optimize::request());
        let pct = 100.0 * outcome.unreliability_decrease();
        eprintln!("optimize {}: SER reduction {pct}%", circuit.name());
        reduction.push((circuit.name().to_owned(), pct.serialize()));
    }
    let doc = Value::Object(vec![
        (
            "regenerate".to_owned(),
            "cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
             --regen-reference perfbench/data/u_ref.json"
                .serialize(),
        ),
        ("vectors".to_owned(), REF_VECTORS.serialize()),
        ("seed".to_owned(), REF_SEED.serialize()),
        ("analyze".to_owned(), Value::Object(analyze)),
        ("optimize_baseline".to_owned(), Value::Object(baseline)),
        (
            "optimize_ser_reduction_pct".to_owned(),
            Value::Object(reduction),
        ),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))
}
