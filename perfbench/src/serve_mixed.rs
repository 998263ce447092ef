//! `serve-mixed`: the serve traffic the repository documents (DESIGN.md
//! §9, EXPERIMENTS.md §F, the CI serve smoke): `exp submit --scale quick`
//! sends the whole quick grid to an `exp serve` daemon, cold, and then
//! resubmits it warm.
//!
//! A unit is a series of sessions. Each session starts a cold in-process
//! `serve::run` daemon (2 workers, the default cache of 4096 cells, the
//! run's seed as master seed) and two closed-loop clients. Each client
//! makes one cold submit of the grid and then [`WARM`] warm ones, each
//! on a new connection, as one `exp submit` invocation makes it. The two
//! cold submits overlap, so the daemon sees misses, duplicates coalesced
//! onto one execution, and hits. The grid is smaller than the cache, so
//! nothing is evicted.
//!
//! Not documented, and chosen here: [`WARM`] = 3 (the smoke resubmits
//! once), so that the median request is a warm one and the 99th
//! percentile a cold one; and [`SESSIONS`], which makes a unit at least
//! 1000 requests. The `--scale full` grid is left out: its cold submit
//! takes minutes (EXPERIMENTS.md §F).

use crate::common::{fnv64, Ctx, Unit};
use localavg_bench::cell::CellKey;
use localavg_bench::experiments::Scale;
use localavg_bench::serve::{self, protocol, Client, GraphStore, ServeConfig, ServeStats};
use localavg_bench::sweep::SweepSpec;
use localavg_core::algo::Workspace;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Warm resubmissions per client and session, after its cold submit.
const WARM: usize = 3;
/// Sessions per unit: 125 × 2 clients × 4 submits = 1000 requests.
const SESSIONS: usize = 125;

/// A run's first unit is slower than the next ones, and one unit is
/// about as long as `--seconds`, so a run always makes at least two and
/// reports their median.
pub const MIN_UNITS: usize = 2;

pub struct Inputs {
    master_seed: u64,
    /// The quick grid, in the order `exp submit --scale quick` sends it.
    grid: Vec<CellKey>,
}

fn quick_grid() -> Result<Vec<CellKey>, String> {
    let spec = SweepSpec::for_scale(Scale::Quick);
    let cells = spec.cells().map_err(|e| e.to_string())?;
    Ok(cells.iter().map(|c| c.key()).collect())
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    Ok(Inputs {
        master_seed: seed,
        grid: quick_grid()?,
    })
}

/// Four sessions under master seed 0.
pub fn warm_up() -> Result<(), String> {
    let warm = Inputs {
        master_seed: 0,
        grid: quick_grid()?,
    };
    let cx = Ctx::new(false, Default::default());
    let mut unit = Unit::default();
    let seen = Mutex::new(BTreeMap::new());
    for _ in 0..4 {
        session(&warm, &cx, &mut unit, &seen)?;
    }
    if unit.failed > 0 {
        return Err(format!("warm-up sessions failed: {:?}", unit.errors));
    }
    Ok(())
}

/// Starts a cold daemon, lets each client submit the grid cold and then
/// warm, then reads the daemon's counters and shuts it down.
fn session(
    inp: &Inputs,
    cx: &Ctx,
    unit: &mut Unit,
    seen: &Mutex<BTreeMap<String, String>>,
) -> Result<ServeStats, String> {
    let cfg = ServeConfig {
        threads: WORKERS,
        master_seed: inp.master_seed,
        ..ServeConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(|| serve::run(&cfg, |addr| tx.send(addr).expect("ready channel")));
        let Ok(addr) = rx.recv() else {
            return Err(format!("daemon did not start: {:?}", server.join()));
        };
        let parent = cx.tr.current();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || cx.tr.adopt(parent, || client(addr, c, inp, cx, seen))))
            .collect();
        let mut outcomes = Vec::new();
        for h in clients {
            outcomes.push(h.join().map_err(|_| "client thread panicked".to_string()));
        }
        // Shut the daemon down even when `stats` fails, or the join hangs.
        let stats = Client::connect(addr).and_then(|mut c| {
            let st = c.stats();
            c.shutdown()?;
            st
        });
        let served = server.join();
        for o in outcomes {
            let (lat, cells, attempted, failed, errors) = o??;
            unit.latencies_ms.extend(lat);
            unit.cells += cells;
            unit.attempted += attempted;
            unit.failed += failed;
            unit.errors.extend(errors);
        }
        match served {
            Ok(Ok(())) => {}
            other => return Err(format!("daemon exited badly: {other:?}")),
        }
        stats.map_err(|e| format!("stats/shutdown: {e}"))
    })
}

type ClientOutcome = (Vec<f64>, usize, usize, usize, Vec<String>);

/// One client's submits: connect, submit the grid, disconnect, as often
/// as one cold and [`WARM`] warm submits make. Latency covers connect
/// and submit. `Client::submit` already rejects a line that does not
/// parse, so the check is that no line is an error and that a cell seen
/// before comes back byte-identical.
fn client(
    addr: SocketAddr,
    c: usize,
    inp: &Inputs,
    cx: &Ctx,
    seen: &Mutex<BTreeMap<String, String>>,
) -> Result<ClientOutcome, String> {
    let (mut lat, mut cells, mut attempted, mut failed, mut errors) =
        (Vec::new(), 0, 0, 0, Vec::new());
    for j in 0..=WARM {
        let req = (c * (WARM + 1) + j) as u64;
        let t = Instant::now();
        let out = cx.tr.span("serve.client.submit", req, || {
            Client::connect(addr).and_then(|mut cl| cl.submit(&inp.grid))
        });
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        let out = out.map_err(|e| format!("submit: {e}"))?;
        cx.tr.span("bench.serve.check", req, || {
            let mut seen = seen.lock().expect("seen-lines map poisoned");
            for (idx, key) in inp.grid.iter().enumerate() {
                attempted += 1;
                let line = out.lines.get(idx).map_or("", String::as_str);
                let ok_line = out.errors == 0 && !line.is_empty();
                let same = seen
                    .entry(key.canonical())
                    .or_insert_with(|| line.to_string())
                    == line;
                if ok_line && same {
                    cells += 1;
                } else {
                    failed += 1;
                    if errors.len() < 20 {
                        errors.push(format!("{key}: error or differing line `{line}`"));
                    }
                }
            }
        });
    }
    Ok((lat, cells, attempted, failed, errors))
}

pub fn run(inp: &Inputs, cx: &Ctx) -> Unit {
    let mut unit = Unit::default();
    let seen = Mutex::new(BTreeMap::new());
    let t0 = Instant::now();
    for _ in 0..SESSIONS {
        match session(inp, cx, &mut unit, &seen) {
            Ok(st) => {
                for (k, v) in [
                    ("serve.cache.hits", st.hits),
                    ("serve.cache.served", st.served),
                    ("serve.cache.evictions", st.evictions),
                    ("serve.executed", st.executed),
                ] {
                    *unit.gauges.entry(k.into()).or_insert(0.0) += v as f64;
                }
            }
            Err(e) => unit.check(false, || e),
        }
    }
    unit.wall_s = t0.elapsed().as_secs_f64();
    let all: String = seen
        .into_inner()
        .expect("seen-lines map poisoned")
        .into_iter()
        .map(|(k, l)| k + &l)
        .collect();
    unit.digests.insert("lines".into(), fnv64(all.as_bytes()));
    unit
}

/// The traced pass: a unit of sessions, then the daemon's per-request
/// work through the public functions it calls. Every submit the clients
/// made is parsed again with `serve::parse_request`, as the connection
/// handler parses it, and every grid cell is executed once through
/// `serve::execute_cell` on a fresh graph store. Each line must be
/// byte-identical to the one the daemon served.
pub fn attribute(inp: &Inputs, cx: &Ctx, main: &Unit) -> Unit {
    let mut unit = run(inp, cx);
    let request = protocol::submit_request_json(&inp.grid);
    for req in 0..SESSIONS * CLIENTS * (WARM + 1) {
        let parsed = cx.tr.span("serve.protocol.parse", req as u64, || {
            serve::parse_request(&request)
        });
        unit.check(parsed.is_ok(), || format!("parse_request: {parsed:?}"));
    }
    let store = GraphStore::new();
    let mut ws = Workspace::new();
    let mut lines = BTreeMap::new();
    cx.tr.span("bench.serve.replay", 0, || {
        for (i, key) in inp.grid.iter().enumerate() {
            let req = i as u64;
            if let Ok(g) = cx
                .tr
                .span("graph.gen.build", req, || store.get(key, inp.master_seed))
            {
                cx.counts.add("graph.bytes", g.memory_bytes() as u64);
            }
            let line = cx.tr.span("serve.pool.execute_cell", req, || {
                serve::execute_cell(key, inp.master_seed, &store, &mut ws)
            });
            match line {
                Ok(line) => {
                    lines.insert(key.canonical(), line);
                }
                Err(e) => unit.check(false, || format!("{key}: {e}")),
            }
        }
    });
    let all: String = lines.into_iter().map(|(k, l)| k + &l).collect();
    unit.check(
        main.digests.get("lines") == Some(&fnv64(all.as_bytes())),
        || "execute_cell lines differ from the served lines".into(),
    );
    unit.gauges
        .insert("serve.graph_store.entries".into(), store.len() as f64);
    let st = ws.stats();
    cx.counts.add("sim.workspace.runs", st.runs as u64);
    cx.counts.add("sim.workspace.reuses", st.reuses as u64);
    unit
}
