//! End-to-end benchmark of the localavg workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-full|fuzz|serve-mixed|large> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload repeats until `--seconds` have passed
//! (at least once) and the end-to-end metrics are printed. With
//! `--trace 1` it runs once as measured, and then its attribution pass
//! (see `replay.rs`) three times: untraced, traced, and untraced. The
//! per-layer metrics come from the spans of the traced attribution pass,
//! and the tracing overhead is its wall time minus the mean of the
//! untraced ones'. The last stdout
//! line is the result object; the lines before it are the host
//! fingerprint and, when tracing, the layer table.
//! Spans and exact counters are written under `.perfbench_out/`.

mod common;
mod fuzz;
mod host;
mod large;
mod replay;
mod serve_mixed;
mod sweep_full;
mod trace;

use common::{median, metric_key, percentile, Ctx, Unit};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const OUT_DIR: &str = ".perfbench_out";
const TMP_DIR: &str = ".perfbench_tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let trace = get("--trace")?;
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match trace {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, not `{trace}`")),
        },
    })
}

enum Inputs {
    SweepFull(sweep_full::Inputs),
    Fuzz(fuzz::Inputs),
    ServeMixed(serve_mixed::Inputs),
    Large(large::Inputs),
}

impl Inputs {
    /// Generates the inputs from the seed.
    fn setup(workload: &str, seed: u64) -> Result<Inputs, String> {
        Ok(match workload {
            "sweep-full" => Inputs::SweepFull(sweep_full::setup(seed)?),
            "fuzz" => Inputs::Fuzz(fuzz::setup(seed)?),
            "serve-mixed" => Inputs::ServeMixed(serve_mixed::setup(seed)?),
            "large" => Inputs::Large(large::setup(seed)),
            other => {
                return Err(format!(
                    "unknown workload `{other}` (sweep-full, fuzz, serve-mixed, large)"
                ))
            }
        })
    }

    /// Warms caches and lazy state up with work that is the same for
    /// every seed.
    fn warm_up(&self, tmp: &Path) -> Result<(), String> {
        match self {
            Inputs::SweepFull(_) => sweep_full::warm_up(),
            Inputs::Fuzz(_) => fuzz::warm_up(),
            Inputs::ServeMixed(_) => serve_mixed::warm_up(),
            Inputs::Large(_) => large::warm_up(tmp),
        }
    }

    fn run(&self, cx: &Ctx) -> Unit {
        match self {
            Inputs::SweepFull(i) => sweep_full::run(i, cx),
            Inputs::Fuzz(i) => fuzz::run(i, cx),
            Inputs::ServeMixed(i) => serve_mixed::run(i, cx),
            Inputs::Large(i) => large::run(i, cx),
        }
    }

    /// The pass whose spans the per-layer metrics come from: the unit's
    /// work with each single library call that hides several layers
    /// walked through those layers' public functions. It checks its
    /// outputs against `main`, the unit's.
    fn attribute(&self, cx: &Ctx, main: &Unit) -> Unit {
        match self {
            Inputs::SweepFull(i) => sweep_full::attribute(i, cx, main),
            Inputs::Fuzz(i) => fuzz::attribute(i, cx, main),
            Inputs::ServeMixed(i) => serve_mixed::attribute(i, cx, main),
            Inputs::Large(i) => large::attribute(i, cx, main),
        }
    }

    /// Units a measured run makes at least, whatever `--seconds` says.
    fn min_units(&self) -> usize {
        match self {
            Inputs::SweepFull(_) => sweep_full::MIN_UNITS,
            Inputs::Fuzz(_) => fuzz::MIN_UNITS,
            Inputs::ServeMixed(_) => serve_mixed::MIN_UNITS,
            _ => 1,
        }
    }
}

/// Tallies checks over every unit of the run.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Verdict {
    fn absorb(&mut self, u: &Unit) {
        self.attempted += u.attempted;
        self.failed += u.failed;
        self.errors.extend(u.errors.iter().cloned());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

/// Names this build of the benchmark, so that stored exact values are
/// only compared between runs of the same program: the size and
/// modification time of the running executable.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_secs());
            format!("{:x}-{mtime:x}", m.len())
        })
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Checks this run's exact values against the stored record (see
/// [`check_exact`]) and counts each difference as a failed check.
fn record_exact(verdict: &mut Verdict, args: &Args, exact: &BTreeMap<String, u64>) {
    let path = Path::new(OUT_DIR).join("counters").join(format!(
        "{}-seed{}-{}.txt",
        args.workload,
        args.seed,
        build_id()
    ));
    for d in check_exact(&path, exact) {
        verdict.check(false, || format!("exact value changed between runs: {d}"));
    }
}

/// Compares this run's exact values with those an earlier run with the
/// same workload and seed stored, then stores the union. Returns the
/// names that differ.
fn check_exact(path: &Path, values: &BTreeMap<String, u64>) -> Vec<String> {
    let mut stored: BTreeMap<String, u64> = std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect();
    let differ: Vec<String> = values
        .iter()
        .filter(|(k, v)| stored.get(*k).is_some_and(|s| s != *v))
        .map(|(k, v)| format!("{k}: {v} now, {} before", stored[k]))
        .collect();
    if differ.is_empty() {
        stored.extend(values.iter().map(|(k, v)| (k.clone(), *v)));
        let text: String = stored.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!(
                "warning: cannot store exact counters in {}: {e}",
                path.display()
            );
        }
    }
    differ
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

/// Every registry key, for the `core.algo.<key>.*` metrics.
fn algorithm_keys() -> Vec<&'static str> {
    localavg_core::algo::registry().names().collect()
}

/// The per-layer metrics of a traced run, plus the layer table line.
fn layer_metrics(
    spans: &[trace::Span],
    counts: &common::Counts,
    gauges: &BTreeMap<String, f64>,
    overhead_s: f64,
) -> (String, String) {
    let selfs = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let mut by_algo: BTreeMap<&str, f64> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        *by_name.entry(s.name).or_insert(0.0) += t;
        *by_layer.entry(trace::layer_of(s.name)).or_insert(0.0) += t;
        if s.name.starts_with("sim.execute") {
            *by_algo.entry(s.tag).or_insert(0.0) += t;
        }
    }
    let t = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| counts.get(name) as f64;
    let g = |name: &str| gauges.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let unattributed: f64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| trace::layer_of(s.name) == "bench" && s.name != "bench.emit.json")
        .map(|(_, t)| t)
        .sum();

    let mut m = String::new();
    metric(&mut m, "graph.gen.build_s", t("graph.gen.build"), "s");
    metric(&mut m, "graph.bytes", c("graph.bytes"), "bytes");
    metric(&mut m, "graph.io.write_s", t("graph.io.write"), "s");
    metric(&mut m, "graph.io.read_s", t("graph.io.read"), "s");
    metric(
        &mut m,
        "graph.io.read_mb_per_s",
        ratio(c("graph.io.read_bytes") / 1e6, t("graph.io.read")),
        "MB/s",
    );
    metric(
        &mut m,
        "graph.analysis.topology_s",
        t("graph.analysis.topology"),
        "s",
    );
    metric(&mut m, "lowerbound.build_s", t("lowerbound.build"), "s");
    let exec_s = t("sim.execute") + t("sim.execute_par");
    metric(&mut m, "sim.execute_s", t("sim.execute"), "s");
    metric(&mut m, "sim.execute_par_s", t("sim.execute_par"), "s");
    metric(
        &mut m,
        "sim.ns_per_live_node_round",
        ratio(exec_s * 1e9, c("sim.live_node_rounds")),
        "ns",
    );
    metric(&mut m, "sim.rounds", c("sim.rounds"), "count");
    metric(&mut m, "sim.messages", c("sim.messages"), "count");
    metric(
        &mut m,
        "sim.live_node_rounds",
        c("sim.live_node_rounds"),
        "count",
    );
    metric(
        &mut m,
        "sim.workspace_reuse_ratio",
        ratio(c("sim.workspace.reuses"), c("sim.workspace.runs")),
        "ratio",
    );
    for key in algorithm_keys() {
        let k = metric_key(key);
        metric(
            &mut m,
            &format!("core.algo.{k}.execute_s"),
            by_algo.get(key).copied().unwrap_or(0.0),
            "s",
        );
        metric(
            &mut m,
            &format!("core.algo.{k}.rounds"),
            c(&format!("core.algo.{k}.rounds")),
            "count",
        );
    }
    metric(&mut m, "core.verify_s", t("core.verify"), "s");
    metric(&mut m, "core.metrics_s", t("core.metrics"), "s");
    metric(&mut m, "core.check_s", t("core.check"), "s");
    metric(&mut m, "core.check.brute_s", t("core.check.brute"), "s");
    metric(&mut m, "bench.emit.json_s", t("bench.emit.json"), "s");
    metric(&mut m, "bench.emit.bytes", c("bench.emit.bytes"), "bytes");
    metric(&mut m, "bench.unattributed_s", unattributed, "s");
    metric(
        &mut m,
        "serve.cache.hit_ratio",
        ratio(g("serve.cache.hits"), g("serve.cache.served")),
        "ratio",
    );
    metric(
        &mut m,
        "serve.cache.evictions",
        g("serve.cache.evictions"),
        "count",
    );
    metric(&mut m, "serve.executed", g("serve.executed"), "count");
    metric(
        &mut m,
        "serve.graph_store.entries",
        g("serve.graph_store.entries"),
        "count",
    );
    metric(
        &mut m,
        "serve.pool.execute_cell_s",
        t("serve.pool.execute_cell"),
        "s",
    );
    metric(
        &mut m,
        "serve.protocol.parse_s",
        t("serve.protocol.parse"),
        "s",
    );
    metric(&mut m, "trace.overhead_s", overhead_s, "s");

    let total: f64 = by_layer.values().sum();
    let largest = by_layer
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or("none", |(l, _)| *l);
    let layers: Vec<String> = by_layer
        .iter()
        .map(|(l, s)| {
            format!(
                "\"{l}\": {{\"self_s\": {s}, \"share\": {}}}",
                ratio(*s, total)
            )
        })
        .collect();
    let span_cost_s = trace::span_cost_s();
    let table = format!(
        "{{\"layers\": {{{}}}, \"largest_layer\": \"{largest}\", \"bench.unattributed_s\": {unattributed}, \"trace.overhead_s\": {overhead_s}, \"spans\": {}, \"span_cost_s\": {span_cost_s}}}",
        layers.join(", "),
        spans.len()
    );
    for (l, s) in &by_layer {
        eprintln!(
            "layer {l:<10} self {s:>10.4} s  {:>5.1}%",
            100.0 * ratio(*s, total)
        );
    }
    eprintln!(
        "largest self-time layer: {largest}; bench.unattributed_s {unattributed:.4}; trace overhead {overhead_s:.4} s ({} spans at about {:.0} ns each)",
        spans.len(),
        span_cost_s * 1e9
    );
    (m, table)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <sweep-full|fuzz|serve-mixed|large> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let tmp = PathBuf::from(TMP_DIR).join(std::process::id().to_string());
    let counters_dir = Path::new(OUT_DIR).join("counters");
    for dir in [&tmp, &counters_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let code = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_DIR);
    std::process::exit(code);
}

fn run(args: &Args, tmp: &Path) -> i32 {
    let mut setup_times = Vec::new();
    let mut warm_up_times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let set_up = Inputs::setup(&args.workload, args.seed).and_then(|i| {
            let w = Instant::now();
            i.warm_up(tmp)?;
            warm_up_times.push(w.elapsed().as_secs_f64());
            Ok(i)
        });
        match set_up {
            Ok(i) => inputs = Some(i),
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return 1;
            }
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let setup_s = median(&setup_times);
    println!(
        "{{\"host\": {}}}",
        host::fingerprint(median(&warm_up_times))
    );

    let mut verdict = Verdict::default();
    let metrics = if args.trace {
        let main = inputs.run(&Ctx::new(false, tmp.to_path_buf()));
        // Untraced, traced, untraced: the traced pass is compared with the
        // mean of the passes around it, which cancels a steady drift of
        // the host's speed and the gain a later pass has from warm state.
        let pass = |trace: bool| {
            let cx = Ctx::new(trace, tmp.to_path_buf());
            let t = Instant::now();
            let unit = inputs.attribute(&cx, &main);
            (cx, unit, t.elapsed().as_secs_f64())
        };
        let (before, untraced, before_s) = pass(false);
        let (cx, traced, traced_s) = pass(true);
        let (after, untraced_again, after_s) = pass(false);
        let overhead_s = traced_s - (before_s + after_s) / 2.0;
        for u in [&main, &untraced, &traced, &untraced_again] {
            verdict.absorb(u);
        }
        let exact_of = |c: &Ctx| -> BTreeMap<String, u64> {
            c.counts
                .snapshot()
                .into_iter()
                .filter(|(k, _)| !k.starts_with("sim.workspace."))
                .collect()
        };
        let mut exact = exact_of(&cx);
        verdict.check(
            exact == exact_of(&before) && exact == exact_of(&after),
            || "traced and untraced attribution passes count differently".into(),
        );
        let spans = cx.tr.take();
        let (m, table) = layer_metrics(&spans, &cx.counts, &traced.gauges, overhead_s);
        println!("{table}");
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let spans_path = Path::new(OUT_DIR).join(format!("{stem}.spans.jsonl"));
        if let Err(e) = std::fs::write(&spans_path, trace::spans_jsonl(&spans)) {
            eprintln!("warning: cannot write {}: {e}", spans_path.display());
        }
        exact.extend(
            main.digests
                .iter()
                .map(|(k, v)| (format!("digest.{k}"), *v)),
        );
        record_exact(&mut verdict, args, &exact);
        m
    } else {
        let cx = Ctx::new(false, tmp.to_path_buf());
        let mut exact: BTreeMap<String, u64> = BTreeMap::new();
        let t0 = Instant::now();
        let mut units = Vec::new();
        loop {
            units.push(inputs.run(&cx));
            if t0.elapsed().as_secs_f64() >= args.seconds && units.len() >= inputs.min_units() {
                break;
            }
        }
        for u in &units {
            verdict.absorb(u);
            verdict.check(u.digests == units[0].digests, || {
                "outputs differ between units".into()
            });
        }
        exact.extend(
            units[0]
                .digests
                .iter()
                .map(|(k, v)| (format!("digest.{k}"), *v)),
        );
        record_exact(&mut verdict, args, &exact);
        let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
        // Percentiles per unit, then the median over units, like `wall_s`.
        let unit_percentile = |q: f64| {
            let per_unit: Vec<f64> = units
                .iter()
                .map(|u| percentile(&u.latencies_ms, q))
                .collect();
            median(&per_unit)
        };
        let (p50, p99) = (unit_percentile(0.50), unit_percentile(0.99));
        let requests: usize = units.iter().map(|u| u.latencies_ms.len()).sum();
        let cells: usize = units.iter().map(|u| u.cells).sum();
        let pass = if verdict.attempted == 0 {
            0.0
        } else {
            (verdict.attempted - verdict.failed) as f64 / verdict.attempted as f64
        };
        let mut m = String::new();
        metric(&mut m, "setup_s", setup_s, "s");
        metric(&mut m, "wall_s", median(&walls), "s");
        metric(
            &mut m,
            "cells_per_s",
            cells as f64 / walls.iter().sum::<f64>(),
            "1/s",
        );
        metric(&mut m, "latency_p50_ms", p50, "ms");
        metric(&mut m, "latency_p99_ms", p99, "ms");
        metric(&mut m, "peak_rss_mb", host::peak_rss_mb(), "MiB");
        metric(&mut m, "pass_ratio", pass, "ratio");
        eprintln!(
            "{}: {} units, {} requests, {} cells, setup_s {setup_s:.4}, wall_s {:.4}, p50 {:.3} ms, p99 {:.3} ms, fail_ratio {}",
            args.workload,
            units.len(),
            requests,
            cells,
            median(&walls),
            p50,
            p99,
            1.0 - pass
        );
        m
    };

    for e in &verdict.errors {
        eprintln!("check failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        verdict.failed == 0 && verdict.attempted > 0,
        verdict.attempted.max(1),
        verdict.failed
    );
    0
}
