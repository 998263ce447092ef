//! `sweep-full`: `sweep::run` over the `Scale::Full` grid, then
//! `emit::to_json`, as `exp sweep --scale full --threads 2` does.
//!
//! `matching/det` runs in a second sweep capped at n ≤ 1024: one of its
//! `gnp/0.05` cells at n = 4096 takes over 400 s (Δ ≈ 205, rounds grow
//! ≈ Δ²). The cap keeps the defect visible in
//! `core.algo.matching-det.execute_s` without letting it set the run time.

use crate::common::{fnv64, Ctx, Unit};
use crate::replay;
use localavg_bench::emit;
use localavg_bench::experiments::Scale;
use localavg_bench::sweep::{self, SweepReport, SweepSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Worker threads of every sweep (the host's `nproc`).
const THREADS: usize = 2;
/// The algorithm whose sizes are capped, and its cap.
const CAPPED: &str = "matching/det";
const CAPPED_SIZES: [usize; 2] = [256, 1024];

/// A unit is as long as its slowest cells let it be, and on a shared
/// 2-vCPU host one unit's wall time moves by a fifth from run to run,
/// so a run reports the median of at least two units.
pub const MIN_UNITS: usize = 2;

pub struct Inputs {
    specs: Vec<SweepSpec>,
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    let mut main = SweepSpec::for_scale(Scale::Full);
    main.master_seed = seed;
    main.algorithms.retain(|a| a != CAPPED);
    let mut capped = SweepSpec::for_scale(Scale::Full);
    capped.master_seed = seed;
    capped.algorithms = vec![CAPPED.to_string()];
    capped.sizes = CAPPED_SIZES.to_vec();
    for spec in [&main, &capped] {
        spec.cells().map_err(|e| e.to_string())?;
    }
    Ok(Inputs {
        specs: vec![main, capped],
    })
}

/// The quick grid, two sizes larger, through the same two calls.
pub fn warm_up() -> Result<(), String> {
    let mut quick = SweepSpec::for_scale(Scale::Quick);
    quick.sizes.extend([256, 512]);
    let report = sweep::run(&quick, THREADS).map_err(|e| e.to_string())?;
    std::hint::black_box(emit::to_json(&report));
    Ok(())
}

/// Serializes both reports, in spec order, as one byte stream.
fn emit_all(cx: &Ctx, reports: &[SweepReport]) -> String {
    let json = cx.tr.span("bench.emit.json", 0, || {
        reports
            .iter()
            .map(emit::to_json)
            .collect::<Vec<_>>()
            .concat()
    });
    cx.counts.add("bench.emit.bytes", json.len() as u64);
    json
}

pub fn run(inp: &Inputs, cx: &Ctx) -> Unit {
    let mut unit = Unit::default();
    let t0 = Instant::now();
    let mut reports = Vec::new();
    for (k, spec) in inp.specs.iter().enumerate() {
        let r = cx.tr.span("bench.sweep.run", k as u64, || {
            catch_unwind(AssertUnwindSafe(|| sweep::run(spec, THREADS)))
        });
        match r {
            Ok(Ok(report)) => {
                unit.check(true, String::new);
                unit.cells += report.cells.len();
                reports.push(report);
            }
            Ok(Err(e)) => unit.check(false, || format!("sweep {k}: {e}")),
            Err(_) => unit.check(false, || format!("sweep {k}: a cell failed verification")),
        }
    }
    let json = emit_all(cx, &reports);
    unit.wall_s = t0.elapsed().as_secs_f64();
    // The user's request is the whole grid: it is answered when both
    // reports are emitted.
    unit.latencies_ms.push(unit.wall_s * 1e3);
    unit.digests.insert("report".into(), fnv64(json.as_bytes()));
    unit
}

/// The traced pass: both sweeps walked through the layers by
/// [`replay::sweep`], then emitted. The bytes must be `sweep::run`'s.
pub fn attribute(inp: &Inputs, cx: &Ctx, main: &Unit) -> Unit {
    let mut unit = Unit::default();
    let mut reports = Vec::new();
    for (k, spec) in inp.specs.iter().enumerate() {
        match replay::sweep(cx, spec, THREADS, None, k as u64) {
            Ok((report, invalid)) => {
                unit.check(invalid == 0, || {
                    format!("replay {k}: {invalid} invalid outputs")
                });
                reports.push(report);
            }
            Err(e) => unit.check(false, || format!("replay {k}: {e}")),
        }
    }
    let digest = fnv64(emit_all(cx, &reports).as_bytes());
    unit.check(main.digests.get("report") == Some(&digest), || {
        "the replayed report differs from sweep::run's".into()
    });
    unit
}
