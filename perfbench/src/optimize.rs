//! `optimize-dual`: one caller in a closed loop running SQP over the
//! paper's dual-VDD/dual-Vth grid (`AllowedParams::table1_dual`) at
//! 10 000 vectors, on the Table 1 circuits small enough that one run
//! stays under a second. The dual coarse library is characterized in
//! set-up, so the timed phase is the optimizer's own work. This is the
//! only workload where `sertopt` does the work, and it measures the
//! paper's quality claim: SER reduction at a bounded delay.
//!
//! Every run uses the optimizer's default seed, as users do. SQP's work
//! depends strongly on its seed (from about 100 to over 700 cost
//! evaluations per run on these circuits), so drawing seeds from the
//! workload seed would make the spread between runs a property of the
//! draw rather than of the code.

use std::time::Instant;

use aserta::CircuitCells;
use ser_cells::{CharGrids, Library};
use ser_netlist::Circuit;
use ser_spice::Technology;
use serde::{Serialize, Value};
use sertopt::matching::MatchingConfig;
use sertopt::{AllowedParams, OptimizeRequest, OptimizerConfig, Outcome};

use crate::layers::{self, LayerTimes};
use crate::report::{Metrics, Ops};
use crate::{reference, timed, EndToEnd, RunArgs, RunOutput};

/// Set-up repetitions per run; `setup_s` is their median. Each
/// characterizes the 2 080-variant dual library (about 7 s on 2 cores).
const SETUP_REPS: usize = 3;

/// Table 1 dual-VDD/Vth rows that optimize in under a second each.
const CIRCUITS: [&str; 2] = ["c432", "c499"];

/// One pass, as indices into [`CIRCUITS`]. c432 runs twice so the
/// median latency falls inside c432's samples, not in the gap between
/// c432 (~75 ms) and c499 (~150 ms), where it jumped between the two.
const PASS: [usize; 3] = [0, 1, 0];

/// Largest accepted optimized/baseline critical-delay ratio. The search
/// keeps path delays at the baseline by construction; library
/// quantization may move them by a few percent, not more.
const DELAY_BOUND: f64 = 1.05;

/// Largest accepted relative error of the optimizer's baseline `U`
/// against the committed reference, percent.
const U_TOL_PCT: f64 = 10.0;

/// Share of the committed SER reduction (`data/u_ref.json`,
/// `optimize_ser_reduction_pct`) an outcome must reach. A change to the
/// estimator may move the search's end point a little; losing more than
/// a fifth of the reduction is a quality regression.
const REDUCTION_FLOOR_SHARE: f64 = 0.8;

/// The workload's circuits, generated.
pub fn circuits() -> Vec<Circuit> {
    CIRCUITS
        .iter()
        .map(|n| ser_netlist::generate::iscas85(n).expect("a bundled ISCAS'85 name"))
        .collect()
}

/// The coarse library covering the dual grid on `circuits`.
pub fn dual_library(circuits: &[Circuit]) -> Library {
    let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
    for c in circuits {
        library.characterize_spec(&AllowedParams::table1_dual().library_spec(c), 0);
    }
    library
}

/// The speed-sized baseline the optimizer starts from.
pub fn baseline_cells(circuit: &Circuit, library: &mut Library) -> CircuitCells {
    let cfg = config();
    sertopt::size_for_speed(
        circuit,
        library,
        &cfg.baseline_sizes,
        MatchingConfig::new(cfg.allowed.clone()).load_model,
        cfg.baseline_effort,
    )
}

/// The workload's settings, for the record.
fn settings(variants: usize) -> Vec<(String, Value)> {
    vec![
        (
            "vectors".to_owned(),
            config().aserta.sensitization_vectors.serialize(),
        ),
        ("grid".to_owned(), "coarse".serialize()),
        ("library_variants".to_owned(), variants.serialize()),
    ]
}

fn config() -> OptimizerConfig {
    OptimizerConfig {
        allowed: AllowedParams::table1_dual(),
        ..OptimizerConfig::default()
    }
}

/// The request of every operation: SQP over the dual grid at the
/// optimizer's default seed.
pub fn request() -> OptimizeRequest {
    OptimizeRequest::new(config())
}

/// Checks one outcome: never worse than the baseline, SER reduction at
/// least [`REDUCTION_FLOOR_SHARE`] of the committed one, delay within
/// [`DELAY_BOUND`], baseline `U` near the reference.
fn check(ops: &mut Ops, outcome: &Outcome) -> f64 {
    let name = &outcome.circuit_name;
    let (b, o) = (&outcome.baseline, &outcome.optimized);
    ops.check(
        o.cost <= b.cost && o.unreliability <= b.unreliability && o.unreliability.is_finite(),
        || format!("{name}: optimized {o:?} regresses on baseline {b:?}"),
    );
    let reduction = 100.0 * outcome.unreliability_decrease();
    let floor =
        reference::lookup("optimize_ser_reduction_pct", name).map(|r| REDUCTION_FLOOR_SHARE * r);
    ops.check(floor.is_some_and(|f| reduction >= f), || {
        format!("{name}: SER reduction {reduction:.3}% under the floor {floor:?}")
    });
    let ratio = outcome.delay_ratio();
    ops.check(ratio <= DELAY_BOUND, || {
        format!("{name}: delay ratio {ratio} over {DELAY_BOUND}")
    });
    let err = reference::err_pct(
        b.unreliability,
        reference::lookup("optimize_baseline", name),
    );
    ops.check(err <= U_TOL_PCT, || {
        format!(
            "{name}: baseline U {:e} is {err:.3}% off the reference",
            b.unreliability
        )
    });
    err
}

pub fn run(args: &RunArgs) -> RunOutput {
    let mut ops = Ops::default();
    let mut setups_s = Vec::new();
    let mut lt = LayerTimes::default();
    let mut set = None;
    for _ in 0..SETUP_REPS {
        lt = LayerTimes::default();
        let (s, ms) = timed(|| {
            let circuits: Vec<Circuit> = CIRCUITS
                .iter()
                .map(|n| layers::instantiate(n, &mut lt))
                .collect();
            let library = layers::characterize(|| dual_library(&circuits), &mut lt);
            (circuits, library)
        });
        setups_s.push(ms / 1e3);
        set = Some(s);
    }
    let (circuits, mut library) = set.expect("at least one set-up");
    let variants = library.len();
    let n = PASS.len();

    let mut latencies = Vec::new();
    let mut untraced_ms = 0.0;
    let mut traced_ms = 0.0;
    let mut errs = Vec::new();
    let mut reductions = Vec::new();
    let mut delay_ratios = Vec::new();
    let request = request();
    let start = Instant::now();
    let mut op = 0usize;
    // Whole passes; the quality figures cover each circuit's first run.
    while !op.is_multiple_of(n) || op == 0 || start.elapsed() < args.seconds {
        let circuit = &circuits[PASS[op % n]];
        let (outcome, t) = timed(|| sertopt::optimize(circuit, &mut library, &request));
        latencies.push(t);
        untraced_ms += t;
        let err = check(&mut ops, &outcome);
        if args.trace {
            let (traced, t) = timed(|| layers::optimize(circuit, &mut library, &request, &mut lt));
            traced_ms += t;
            ops.check(
                traced.optimized.unreliability.to_bits()
                    == outcome.optimized.unreliability.to_bits(),
                || format!("{}: traced outcome differs", outcome.circuit_name),
            );
        }
        if op < CIRCUITS.len() {
            errs.push(err);
            reductions.push(100.0 * outcome.unreliability_decrease());
            delay_ratios.push(outcome.delay_ratio());
        }
        op += 1;
    }
    let elapsed = start.elapsed();
    ops.check(library.len() == variants, || {
        format!(
            "the timed phase characterized {} new variants",
            library.len() - variants
        )
    });
    let ser_reduction_pct = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let delay_ratio = delay_ratios.iter().copied().fold(f64::MIN, f64::max);

    if args.trace {
        lt.set("sertopt.ser_reduction_pct", ser_reduction_pct);
        lt.set("sertopt.delay_ratio", delay_ratio);
        let mut metrics = Metrics::default();
        lt.finish(&mut metrics, untraced_ms, traced_ms);
        return RunOutput {
            ops,
            metrics,
            record: [("traced_ops".to_owned(), op.serialize())]
                .into_iter()
                .chain(settings(variants))
                .collect(),
        };
    }
    let e2e = EndToEnd {
        setups_s,
        latencies_ms: latencies,
        elapsed,
        u_err_pct: errs.iter().sum::<f64>() / errs.len() as f64,
        peak_rss_mb: crate::peak_rss_mb(),
    };
    let (metrics, mut record) = e2e.metrics();
    record.extend(settings(variants));
    record.extend([
        (
            "ser_reduction_pct".to_owned(),
            ser_reduction_pct.serialize(),
        ),
        ("delay_ratio".to_owned(), delay_ratio.serialize()),
        (
            "first_pass_ser_reduction_pct".to_owned(),
            reductions.serialize(),
        ),
        (
            "first_pass_delay_ratio".to_owned(),
            delay_ratios.serialize(),
        ),
    ]);
    RunOutput {
        ops,
        metrics,
        record,
    }
}
