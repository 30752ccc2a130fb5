//! `analyze-iscas`: one caller in a closed loop running
//! `aserta::try_analyze_fresh` over the ten ISCAS'85 circuits at the
//! paper's 10 000 vectors, a fresh seed per operation, with one coarse
//! library characterized in set-up. `P_ij` estimation does almost all
//! the work: no characterization and no I/O in the timed phase.

use std::time::Instant;

use aserta::{AsertaConfig, CircuitCells};
use ser_cells::{CharGrids, Library};
use ser_netlist::Circuit;
use ser_spice::Technology;
use serde::Serialize;

use crate::layers::{self, LayerTimes};
use crate::report::{self, Metrics, Ops};
use crate::{mix, reference, timed, EndToEnd, RunArgs, RunOutput};

/// Set-up repetitions per run; `setup_s` is their median. A set-up takes
/// about a fifth of a second, so many are needed for a steady median.
const SETUP_REPS: usize = 15;

/// The ten ISCAS'85 benchmarks c432…c7552, plus c17. The toy c17 costs
/// nothing, but it makes a pass eleven operations long, so the median
/// latency falls inside one circuit's samples (c1908's) rather than in
/// the gap between c1908 and c2670, where it would jump between them.
pub const CIRCUITS: [&str; 11] = [
    "c17", "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552",
];

/// Passes whose operation seeds are the same at every workload seed;
/// `u_err_pct` is their mean error, so it moves only when the program
/// changes, and averages several seeds per circuit.
const ACCURACY_PASSES: usize = 3;

/// Fewest passes of a run. The slowest circuit then gives at least
/// `TAIL_BEYOND + 1` samples, so `tail_ms` (the `TAIL_BEYOND + 1`-th
/// largest latency) always falls inside its samples. With fewer passes
/// it would fall in the second-slowest circuit's and jump between the
/// two as throughput changed.
const MIN_PASSES: usize = report::TAIL_BEYOND + 1;

/// Seed of the accuracy passes.
const ACCURACY_SEED: u64 = 0xACC0_2A7E;

/// Largest accepted relative `U` error of one operation against the
/// committed reference, percent. The 10 000-vector estimate's sampling
/// error is a few percent at most; a larger miss is a wrong answer.
pub const U_TOL_PCT: f64 = 10.0;

struct Setup {
    circuits: Vec<Circuit>,
    cells: Vec<CircuitCells>,
    library: Library,
}

fn setup(lt: &mut LayerTimes) -> Setup {
    let circuits: Vec<Circuit> = CIRCUITS
        .iter()
        .map(|n| layers::instantiate(n, lt))
        .collect();
    let cells: Vec<CircuitCells> = circuits.iter().map(CircuitCells::nominal).collect();
    let library = layers::characterize(
        || {
            let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
            for (circuit, cells) in circuits.iter().zip(&cells) {
                for g in circuit.gates() {
                    library.get_or_characterize(cells.get(g).expect("gates carry parameters"));
                }
            }
            library
        },
        lt,
    );
    Setup {
        circuits,
        cells,
        library,
    }
}

/// The workload's settings, for the record.
fn settings() -> Vec<(String, serde::Value)> {
    vec![
        (
            "vectors".to_owned(),
            AsertaConfig::default().sensitization_vectors.serialize(),
        ),
        ("grid".to_owned(), "coarse".serialize()),
    ]
}

fn op_config(seed: u64, op: usize) -> AsertaConfig {
    let base = if op < ACCURACY_PASSES * CIRCUITS.len() {
        ACCURACY_SEED
    } else {
        seed
    };
    AsertaConfig {
        seed: mix(base, op as u64),
        ..AsertaConfig::default()
    }
}

/// Checks one answer: finite and within [`U_TOL_PCT`] of the reference.
/// Returns its error, percent.
pub fn check(ops: &mut Ops, circuit: &str, u: f64) -> f64 {
    let err = reference::err_pct(u, reference::lookup("analyze", circuit));
    ops.check(u.is_finite() && err <= U_TOL_PCT, || {
        format!("{circuit}: U = {u:e} is {err:.3}% off the reference")
    });
    err
}

pub fn run(args: &RunArgs) -> RunOutput {
    let mut ops = Ops::default();
    let mut setups_s = Vec::new();
    let mut lt = LayerTimes::default();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        lt = LayerTimes::default();
        let (set, ms) = timed(|| setup(&mut lt));
        setups_s.push(ms / 1e3);
        s = Some(set);
    }
    let mut s = s.expect("at least one set-up");
    let n = CIRCUITS.len();

    if args.trace {
        return run_traced(args, &mut s, lt, ops);
    }

    // Closed loop over whole passes, so every run times the same mix of
    // circuit sizes, and at least `MIN_PASSES` of them.
    let mut latencies = Vec::new();
    let mut errs = Vec::new();
    let start = Instant::now();
    let mut op = 0usize;
    while !op.is_multiple_of(n) || op < MIN_PASSES * n || start.elapsed() < args.seconds {
        let i = op % n;
        let cfg = op_config(args.seed, op);
        let (res, t) =
            timed(|| aserta::try_analyze_fresh(&s.circuits[i], &s.cells[i], &mut s.library, &cfg));
        latencies.push(t);
        match res {
            Ok(r) => {
                let err = check(&mut ops, CIRCUITS[i], r.unreliability);
                if op < ACCURACY_PASSES * n {
                    errs.push(err);
                }
            }
            Err(e) => ops.check(false, || format!("{}: {e}", CIRCUITS[i])),
        }
        op += 1;
    }
    let elapsed = start.elapsed();
    let per_circuit: Vec<(String, serde::Value)> = CIRCUITS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let own: Vec<f64> = latencies.iter().skip(i).step_by(n).copied().collect();
            ((*name).to_owned(), report::median(&own).serialize())
        })
        .collect();
    let e2e = EndToEnd {
        setups_s,
        latencies_ms: latencies,
        elapsed,
        u_err_pct: errs.iter().sum::<f64>() / errs.len() as f64,
        peak_rss_mb: crate::peak_rss_mb(),
    };
    let (metrics, mut record) = e2e.metrics();
    record.extend(settings());
    record.push(("u_err_accuracy_passes_pct".to_owned(), errs.serialize()));
    record.push((
        "p50_ms_by_circuit".to_owned(),
        serde::Value::Object(per_circuit),
    ));
    RunOutput {
        ops,
        metrics,
        record,
    }
}

/// The traced run: each operation runs untraced and then through the
/// layer calls on identical inputs, so the per-layer split is compared
/// with the untraced wall time of the same work.
fn run_traced(args: &RunArgs, s: &mut Setup, setup_lt: LayerTimes, mut ops: Ops) -> RunOutput {
    let n = CIRCUITS.len();
    let mut lt = setup_lt;
    let mut untraced_ms = 0.0;
    let mut traced_ms = 0.0;
    let mut count = 0usize;
    let start = Instant::now();
    while !count.is_multiple_of(n) || count == 0 || start.elapsed() < args.seconds {
        let i = count % n;
        let cfg = op_config(args.seed, count);
        let (plain, t) =
            timed(|| aserta::try_analyze_fresh(&s.circuits[i], &s.cells[i], &mut s.library, &cfg));
        untraced_ms += t;
        let (traced, t) =
            timed(|| layers::analyze(&s.circuits[i], &s.cells[i], &mut s.library, &cfg, &mut lt));
        traced_ms += t;
        match (plain, traced) {
            (Ok(a), Ok(b)) => {
                check(&mut ops, CIRCUITS[i], a.unreliability);
                ops.check(
                    a.unreliability.to_bits() == b.unreliability.to_bits(),
                    || format!("{}: traced U differs from untraced", CIRCUITS[i]),
                );
            }
            (a, b) => ops.check(false, || {
                format!("{}: {:?} / {:?}", CIRCUITS[i], a.err(), b.err())
            }),
        }
        count += 1;
    }
    let mut metrics = Metrics::default();
    lt.finish(&mut metrics, untraced_ms, traced_ms);
    RunOutput {
        ops,
        metrics,
        record: [("traced_ops".to_owned(), count.serialize())]
            .into_iter()
            .chain(settings())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_of_the_fewest_passes_is_the_slowest_circuits() {
        // Circuit `i` always takes `i + 1` ms, and the last is slowest.
        let n = CIRCUITS.len();
        for passes in MIN_PASSES..MIN_PASSES + 3 {
            let latencies: Vec<f64> = (0..passes * n).map(|op| (op % n + 1) as f64).collect();
            let t = report::tail(&latencies).expect("enough samples");
            assert_eq!(t.value, n as f64, "{passes} passes");
        }
        let short: Vec<f64> = (0..(MIN_PASSES - 1) * n)
            .map(|op| (op % n + 1) as f64)
            .collect();
        assert_eq!(
            report::tail(&short).expect("enough samples").value,
            (n - 1) as f64
        );
    }
}
