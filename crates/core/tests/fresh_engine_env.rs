//! `try_analyze_fresh` resolves the engine environment strictly, like
//! `SessionBuilder::build`: a malformed `SER_*` variable is a typed
//! [`AnalysisError::Engine`], not a silent fallback to the default.
//!
//! A test binary of its own, holding a single test, because it mutates
//! the process-wide environment.

use aserta::{try_analyze_fresh, AnalysisError, AnalysisSession, AsertaConfig, CircuitCells};
use ser_cells::{CharGrids, Library};
use ser_netlist::generate;
use ser_spice::Technology;

#[test]
fn malformed_engine_env_is_rejected_like_the_builder() {
    let c = generate::c17();
    let cells = CircuitCells::nominal(&c);
    let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
    let cfg = AsertaConfig::fast();

    std::env::set_var("SER_SIM_THREADS", "banana");
    let fresh = try_analyze_fresh(&c, &cells, &mut library, &cfg);
    let built = AnalysisSession::builder(&c, cells.clone(), library.clone(), cfg.clone()).build();
    std::env::remove_var("SER_SIM_THREADS");

    match (fresh, built) {
        (Err(AnalysisError::Engine(fresh)), Err(AnalysisError::Engine(built))) => {
            assert_eq!(fresh.var, "SER_SIM_THREADS");
            assert_eq!(fresh.value, "banana");
            assert_eq!(fresh, built);
        }
        (fresh, built) => panic!(
            "expected two engine errors, got {:?} and {:?}",
            fresh.map(|r| r.unreliability),
            built.map(|s| s.unreliability())
        ),
    }
    // With the variable gone the same call runs.
    let report = try_analyze_fresh(&c, &cells, &mut library, &cfg).unwrap();
    assert!(report.unreliability > 0.0);
}
