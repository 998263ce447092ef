//! The synchronous round engine (sequential and parallel executors).
//!
//! Both executors produce *bit-identical* [`Transcript`]s: per-node
//! randomness is derived from `(seed, node id)` alone, inboxes are ordered
//! by sender id, and commit events are applied in node order. The parallel
//! executor exists to exercise realistic concurrent message passing (and
//! to speed up big lower-bound instances); the determinism property is
//! checked by tests.
//!
//! # Round anatomy
//!
//! Every round is three chunked passes over the node array, each a
//! word-parallel sweep of the halted bitset so cost tracks the **live
//! frontier** (the paper's Definition 1 is exactly the observation that
//! most nodes halt long before the worst-case round):
//!
//! 1. **step** — activate every live node (`init` at round 0, `round`
//!    after); sends land in per-arc outbox slots, commits in per-chunk
//!    event buffers, halts in per-chunk halt buffers.
//! 2. **audit** — sweep the nodes that were live *at the start* of the
//!    round (the only possible senders): count messages for the CONGEST
//!    audit, clear slots addressed to receivers that halted this round,
//!    and zero the per-node `sent` counters.
//! 3. **gather** — sweep the nodes still live *after* this round's halts:
//!    each receiver pulls its neighbors' slot messages (in ascending
//!    neighbor id order, via [`Graph::sorted_port_order`]) into its own
//!    region of the inbox arena. Delta routing falls out for free: a
//!    halted region of the graph is skipped by the bitset sweep, and
//!    arcs whose sender went quiet hold `None` and cost one branch.
//!
//! The passes are the *same code* on both executors — the sequential
//! loop is the 1-chunk special case — so executor choice, thread count,
//! and chunk geometry are pure performance knobs that cannot perturb the
//! transcript. Parallel runs distribute chunks over a persistent
//! [`WorkerPool`] (spawned once per [`Workspace`], so batched runs
//! reuse its threads) instead of respawning scoped threads every round.

use crate::bitset::Bitset;
use crate::message::{Envelope, MessageSize};
use crate::pool::WorkerPool;
use crate::process::{Ctx, Event, EventBuf, Knowledge, Process};
use crate::transcript::{Round, Transcript, TranscriptPolicy, UNCOMMITTED};
pub use crate::workspace::Workspace;
use localavg_graph::rng::Rng;
use localavg_graph::{Graph, NodeId};
use std::any::TypeId;

/// Everything one run needs besides the graph and the algorithm's own
/// parameters: seed, executor, round budget, transcript policy, knowledge,
/// and chunk geometry — the engine's one run configuration.
///
/// This is the argument of the unified `execute(&Graph, &RunSpec)` entry
/// points (`localavg-core`'s `Algorithm`/`DynAlgorithm`). Built with
/// chainable `with_*` setters:
///
/// ```
/// use localavg_sim::engine::{Exec, RunSpec};
/// use localavg_sim::transcript::TranscriptPolicy;
///
/// let spec = RunSpec::new(7)
///     .with_exec(Exec::Parallel { threads: 2 })
///     .with_transcript(TranscriptPolicy::CompletionsOnly)
///     .with_max_rounds(10_000);
/// assert_eq!(spec.seed, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Master seed; node `v` uses the substream `seed.fork(v)`.
    pub seed: u64,
    /// Executor driving the run (a pure performance knob — transcripts
    /// are bit-identical across executors).
    pub exec: Exec,
    /// Hard cap on rounds; exceeding it panics (indicates a non-terminating
    /// algorithm — every algorithm in this workspace halts explicitly).
    pub max_rounds: usize,
    /// How much ledger the transcript retains.
    pub transcript: TranscriptPolicy,
    /// Initial knowledge configuration.
    pub knowledge: Knowledge,
    /// Explicit scheduler chunk size (nodes per chunk); `None` — the
    /// default — picks a balanced geometry. Setting this *forces* the
    /// chunked code path even below [`PARALLEL_MIN_NODES`] — the
    /// scheduler-adversarial determinism tests use it to probe chunk
    /// boundaries on small instances. A pure performance/testing knob:
    /// transcripts are bit-identical for every value.
    pub chunk_nodes: Option<usize>,
}

impl RunSpec {
    /// Creates a spec with the given seed and defaults: sequential
    /// executor, 1,000,000-round cap, [`TranscriptPolicy::Full`], full
    /// neighbor knowledge, default chunk geometry.
    pub fn new(seed: u64) -> Self {
        RunSpec {
            seed,
            exec: Exec::Sequential,
            max_rounds: 1_000_000,
            transcript: TranscriptPolicy::Full,
            knowledge: Knowledge::default(),
            chunk_nodes: None,
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the executor.
    #[must_use]
    pub fn with_exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the round budget.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the transcript-retention policy.
    #[must_use]
    pub fn with_transcript(mut self, policy: TranscriptPolicy) -> Self {
        self.transcript = policy;
        self
    }

    /// Sets the knowledge configuration.
    #[must_use]
    pub fn with_knowledge(mut self, knowledge: Knowledge) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// Sets an explicit scheduler chunk size (see [`RunSpec::chunk_nodes`]).
    #[must_use]
    pub fn with_chunk_nodes(mut self, chunk_nodes: Option<usize>) -> Self {
        self.chunk_nodes = chunk_nodes;
        self
    }

    /// Runs `P` under this spec with fresh arenas (see [`RunSpec::run_in`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`RunSpec::run_in`].
    pub fn run<P>(&self, g: &Graph, params: &P::Params) -> Transcript<P::NodeOutput, P::EdgeOutput>
    where
        P: Process + 'static,
        P::Message: 'static,
        P::NodeOutput: 'static,
        P::EdgeOutput: 'static,
    {
        self.run_in::<P>(g, params, &mut Workspace::new())
    }

    /// Runs `P` under this spec, reusing the arenas stored in `ws`.
    ///
    /// The first run of a process type (or the first after a CSR shape
    /// change) allocates its arenas inside the workspace; subsequent runs
    /// reuse them, paying only an O(n + m) reset instead of fresh
    /// allocations. The first *parallel* run additionally spawns the
    /// workspace's persistent worker pool; later parallel runs reuse its
    /// threads. Transcripts are bit-identical to fresh-workspace runs —
    /// the reset path is the only initialization path in the engine.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm exceeds [`RunSpec::max_rounds`] without
    /// halting every node, if a node commits its own output twice, or if
    /// the two endpoints of an edge commit conflicting labels.
    pub fn run_in<P>(
        &self,
        g: &Graph,
        params: &P::Params,
        ws: &mut Workspace,
    ) -> Transcript<P::NodeOutput, P::EdgeOutput>
    where
        P: Process + 'static,
        P::Message: 'static,
        P::NodeOutput: 'static,
        P::EdgeOutput: 'static,
    {
        let threads = match self.exec {
            Exec::Sequential => 1,
            Exec::Parallel { threads } => resolve_threads(threads),
        };
        let shape = (g.n(), g.m(), g.degree_sum());
        let Workspace {
            shape: ws_shape,
            states,
            pool,
            reuses,
            runs,
        } = ws;
        if *ws_shape != Some(shape) {
            states.clear();
            *ws_shape = Some(shape);
        }
        *runs += 1;
        let slot = states.entry(TypeId::of::<P>());
        if let std::collections::hash_map::Entry::Occupied(_) = &slot {
            *reuses += 1;
        }
        let state = slot
            .or_insert_with(|| Box::new(RunState::<P>::empty()))
            .downcast_mut::<RunState<P>>()
            .expect("workspace slot keyed by process type");
        run_with_threads::<P>(g, params, self, threads, state, pool)
    }
}

/// Which executor drives a run.
///
/// Both executors produce bit-identical transcripts (see the module docs),
/// so `Exec` is a pure performance knob: benchmark harnesses and the
/// determinism tests set it on a [`RunSpec`] to time or cross-check the
/// two executors on the same algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exec {
    /// Single-threaded executor: one chunk, no worker pool.
    #[default]
    Sequential,
    /// Chunked executor over the [`Workspace`]'s persistent [`WorkerPool`].
    Parallel {
        /// Worker threads; 0 means "number of available cores".
        threads: usize,
    },
}

/// Mutable per-run state shared by both executors.
///
/// Everything the per-round inner loop touches is a flat arena sized once
/// from the graph's CSR layout — no per-node heap vectors, no per-round
/// allocation in the steady state:
///
/// * `out_slots` — one message slot per directed arc, addressed by
///   `csr_offset(v) + port` (plus a per-node spill vector for the rare
///   second message on one port in a round);
/// * `inbox` — one contiguous envelope arena; node `v`'s region is its
///   own CSR arc range (`csr_offset(v) .. csr_offset(v) + degree`,
///   `inbox_len[v]` of it filled), so the gather pass needs no counting
///   or prefix-sum repartition — regions are fixed for the whole run and
///   only live receivers are touched;
/// * `halted_bits` / `committed` — columnar bitsets mirroring the
///   per-node flags, letting every pass skip 64 halted nodes per word
///   compare.
struct RunState<P: Process> {
    processes: Vec<Option<P>>,
    rngs: Vec<Rng>,
    /// Per-node halt flag (written by the node's own activation).
    halted: Vec<bool>,
    /// Columnar mirror of `halted`, updated when halts are recorded.
    halted_bits: Bitset,
    /// Columnar "node committed its own output" state.
    committed: Bitset,
    /// Nodes that have not halted yet.
    live: usize,
    /// Outbox arena: slot per arc (`csr_offset(v) + port`).
    out_slots: Vec<Option<P::Message>>,
    /// Per-node overflow for repeated sends on one port (almost always
    /// empty; capacity is retained across rounds).
    out_spill: Vec<Vec<(u32, P::Message)>>,
    /// Per-node count of messages written this round.
    sent: Vec<u32>,
    /// Commit events, one buffer per executor chunk; entries are pushed in
    /// ascending node order within a chunk, so draining chunks in order
    /// replays events in global node order.
    events: Vec<EventBuf<P>>,
    /// Nodes that halted this round, one buffer per executor chunk.
    fresh_halts: Vec<Vec<NodeId>>,
    /// Nodes whose outbox spilled this round, one buffer per executor
    /// chunk; the driver clears exactly these spill vectors after gather.
    spill_nodes: Vec<Vec<NodeId>>,
    /// Per-chunk assembly buffer for the rare inbox that overflows its
    /// arc-range region (spills can deliver more messages than `degree`).
    scratch: Vec<Vec<Envelope<P::Message>>>,
    /// Per-chunk audit accumulators reported by the audit pass.
    audit_parts: Vec<AuditPart>,
    /// Inbox arena: node `v`'s messages for the current round are the
    /// first `inbox_len[v]` entries of its arc range, sorted by sender
    /// id. Grown once (to `degree_sum`) on the first round that delivers
    /// anything.
    inbox: Vec<Envelope<P::Message>>,
    /// Per-node count of messages delivered this round.
    inbox_len: Vec<u32>,
    /// Per-node overflow beyond the arc-range region (spill deliveries
    /// past `degree` messages; almost always empty).
    inbox_over: Vec<Vec<Envelope<P::Message>>>,
    /// Whether the CONGEST audit is recorded (policy [`TranscriptPolicy::Full`]).
    audit: bool,
    /// Whether per-node halt rounds are recorded (policies other than
    /// [`TranscriptPolicy::None`]).
    record_halt_rounds: bool,
    transcript: Transcript<P::NodeOutput, P::EdgeOutput>,
}

/// Accumulators one audit-pass chunk reports back to the driver.
#[derive(Debug, Clone, Copy, Default)]
struct AuditPart {
    /// Messages sent by this chunk's nodes (CONGEST audit; 0 unless the
    /// policy records the audit).
    messages: usize,
    /// Largest message, in bits (0 unless the audit is recorded).
    max_bits: usize,
    /// Messages addressed to *live* receivers — the driver grows the
    /// inbox arena iff any chunk reports a pending delivery.
    deliveries: usize,
}

impl<P: Process> RunState<P> {
    /// An unsized state holding no arenas; [`RunState::reset`] sizes it.
    fn empty() -> Self {
        RunState {
            processes: Vec::new(),
            rngs: Vec::new(),
            halted: Vec::new(),
            halted_bits: Bitset::new(0),
            committed: Bitset::new(0),
            live: 0,
            out_slots: Vec::new(),
            out_spill: Vec::new(),
            sent: Vec::new(),
            events: Vec::new(),
            fresh_halts: Vec::new(),
            spill_nodes: Vec::new(),
            scratch: Vec::new(),
            audit_parts: Vec::new(),
            inbox: Vec::new(),
            inbox_len: Vec::new(),
            inbox_over: Vec::new(),
            audit: true,
            record_halt_rounds: true,
            transcript: Transcript::empty(P::OUTPUT_KIND, 0, 0),
        }
    }

    /// Prepares the state for one run on `g`, reusing every allocation
    /// from a previous run of the same process type on the same CSR
    /// shape. This is the *only* initialization path — fresh runs build
    /// an [`RunState::empty`] state and reset it — so reuse can never
    /// diverge from a cold start.
    fn reset(&mut self, g: &Graph, seed: u64, chunks: usize, policy: TranscriptPolicy) {
        let n = g.n();
        let master = Rng::seed_from(seed);
        self.processes.clear();
        self.processes.resize_with(n, || None);
        self.rngs.clear();
        self.rngs.extend((0..n).map(|v| master.fork(v as u64)));
        self.halted.clear();
        self.halted.resize(n, false);
        self.halted_bits.clear_and_resize(n);
        self.committed.clear_and_resize(n);
        self.live = n;
        // Outbox slots are all `None` at the end of a *completed* run
        // (audit + gather consume every pending message), but a run
        // aborted by a caught panic (e.g. a max_rounds probe) can leave
        // messages behind — refill unconditionally so stale sends can
        // never leak into the next run. This is an O(Σdeg) overwrite of
        // warm memory, the same order as the rest of the reset.
        self.out_slots.clear();
        self.out_slots.resize_with(g.degree_sum(), || None);
        for spill in &mut self.out_spill {
            spill.clear();
        }
        self.out_spill.resize_with(n, Vec::new);
        self.sent.clear();
        self.sent.resize(n, 0);
        for buf in &mut self.events {
            buf.clear();
        }
        self.events.resize_with(chunks, Vec::new);
        for buf in &mut self.fresh_halts {
            buf.clear();
        }
        self.fresh_halts.resize_with(chunks, Vec::new);
        for buf in &mut self.spill_nodes {
            buf.clear();
        }
        self.spill_nodes.resize_with(chunks, Vec::new);
        for buf in &mut self.scratch {
            buf.clear();
        }
        self.scratch.resize_with(chunks, Vec::new);
        self.audit_parts.clear();
        self.audit_parts.resize(chunks, AuditPart::default());
        // The inbox arena keeps its previous length as a high-water mark;
        // stale envelopes are never read because `inbox_len` is zeroed
        // here and only the gather pass raises it — after rewriting the
        // region. An aborted run can leave overflow entries behind, so
        // those are cleared explicitly.
        self.inbox_len.clear();
        self.inbox_len.resize(n, 0);
        for over in &mut self.inbox_over {
            over.clear();
        }
        self.inbox_over.resize_with(n, Vec::new);
        self.audit = policy.records_audit();
        self.record_halt_rounds = policy.records_halts();
        self.transcript = Transcript::empty(P::OUTPUT_KIND, n, g.m());
        if self.audit {
            // Volume columns exist exactly when the audit does; the audit
            // and gather passes accumulate into them in place.
            self.transcript.node_messages_sent = vec![0; n];
            self.transcript.node_bits_sent = vec![0; n];
            self.transcript.node_messages_recv = vec![0; n];
            self.transcript.node_bits_recv = vec![0; n];
        }
    }

    /// Applies commit events (in node order — deterministic) for `round`.
    fn apply_events(&mut self, round: Round) {
        for chunk in &mut self.events {
            for (v, event) in chunk.drain(..) {
                match event {
                    Event::Node(out) => {
                        assert!(
                            !self.committed.get(v),
                            "node {v} committed twice (round {round}); outputs are final"
                        );
                        self.committed.set(v);
                        self.transcript.node_commit_round[v] = round;
                        self.transcript.node_output[v] = Some(out);
                    }
                    Event::Edge(e, out) => match &self.transcript.edge_output[e] {
                        None => {
                            self.transcript.edge_commit_round[e] = round;
                            self.transcript.edge_output[e] = Some(out);
                        }
                        Some(prev) => {
                            assert!(
                                *prev == out,
                                "edge {e} committed with conflicting labels \
                                     ({prev:?} vs {out:?}) — algorithm bug"
                            );
                        }
                    },
                }
            }
        }
    }

    /// Sums the audit pass's per-chunk accumulators:
    /// `(messages, max_bits, live deliveries)`.
    fn collect_audit(&self) -> (usize, usize, usize) {
        let mut messages = 0;
        let mut max_bits = 0;
        let mut deliveries = 0;
        for part in &self.audit_parts {
            messages += part.messages;
            max_bits = max_bits.max(part.max_bits);
            deliveries += part.deliveries;
        }
        (messages, max_bits, deliveries)
    }

    /// Grows the inbox arena to its final size (`Σdeg`) before the first
    /// gather that delivers anything. The filler is a clone of a pending
    /// message; a slot is only ever read after the gather pass wrote it
    /// (`inbox_len` gates every read).
    fn ensure_inbox_arena(&mut self, g: &Graph) {
        let cap = g.degree_sum();
        if self.inbox.len() >= cap {
            return;
        }
        let filler = self
            .pending_message_filler()
            .expect("a live delivery implies a pending message");
        self.inbox.resize(
            cap,
            Envelope {
                src: 0,
                port: 0,
                msg: filler,
            },
        );
    }

    /// A clone of any message still pending in the outbox (arena filler).
    fn pending_message_filler(&self) -> Option<P::Message> {
        if let Some(msg) = self.out_slots.iter().flatten().next() {
            return Some(msg.clone());
        }
        for spill in &self.out_spill {
            if let Some((_, msg)) = spill.first() {
                return Some(msg.clone());
            }
        }
        None
    }

    /// Records this round's halts (chunk order = node order) into the
    /// transcript (unless the policy drops the termination ledger), the
    /// columnar bitset, and the live counter.
    fn record_halts(&mut self, round: Round) {
        for chunk in &mut self.fresh_halts {
            for v in chunk.drain(..) {
                if self.record_halt_rounds {
                    debug_assert_eq!(self.transcript.node_halt_round[v], UNCOMMITTED);
                    self.transcript.node_halt_round[v] = round;
                }
                self.halted_bits.set(v);
                self.live -= 1;
            }
        }
    }

    /// Clears exactly the spill vectors that filled this round (the spill
    /// nodes were recorded by the audit pass; messages toward live
    /// receivers were already cloned out by the gather pass).
    fn drain_spills(&mut self) {
        let spill_nodes = &mut self.spill_nodes;
        let out_spill = &mut self.out_spill;
        for chunk in spill_nodes {
            for u in chunk.drain(..) {
                out_spill[u].clear();
            }
        }
    }

    fn all_halted(&self) -> bool {
        self.live == 0
    }

    /// Bundles this round's shared state for the chunk passes (see
    /// [`RoundShared`]).
    #[allow(clippy::too_many_arguments)]
    fn round_shared<'a>(
        &mut self,
        g: &'a Graph,
        spec: &'a RunSpec,
        params: &'a P::Params,
        order: Option<&'a [u32]>,
        round: Round,
        max_degree: usize,
        chunk: usize,
    ) -> RoundShared<'a, P> {
        RoundShared {
            g,
            spec,
            params,
            order,
            round,
            max_degree,
            n: g.n(),
            chunk,
            audit: self.audit,
            processes: self.processes.as_mut_ptr(),
            rngs: self.rngs.as_mut_ptr(),
            halted: self.halted.as_mut_ptr(),
            halted_bits: &self.halted_bits,
            out_slots: self.out_slots.as_mut_ptr(),
            out_spill: self.out_spill.as_mut_ptr(),
            sent: self.sent.as_mut_ptr(),
            events: self.events.as_mut_ptr(),
            fresh_halts: self.fresh_halts.as_mut_ptr(),
            spill_nodes: self.spill_nodes.as_mut_ptr(),
            scratch: self.scratch.as_mut_ptr(),
            audit_parts: self.audit_parts.as_mut_ptr(),
            inbox: self.inbox.as_mut_ptr(),
            inbox_len: self.inbox_len.as_mut_ptr(),
            inbox_over: self.inbox_over.as_mut_ptr(),
            vol_msgs_sent: self.transcript.node_messages_sent.as_mut_ptr(),
            vol_bits_sent: self.transcript.node_bits_sent.as_mut_ptr(),
            vol_msgs_recv: self.transcript.node_messages_recv.as_mut_ptr(),
            vol_bits_recv: self.transcript.node_bits_recv.as_mut_ptr(),
        }
    }
}

/// One round-pass's view of the run state, shared across chunk workers by
/// raw pointer.
///
/// # Safety
///
/// The pointers alias the arenas of one `RunState`, which outlives the
/// pass (the driver blocks in [`dispatch`] until every chunk finished).
/// Data races are excluded structurally, chunk by chunk:
///
/// * per-**node** columns (`processes`, `rngs`, `halted`, `out_spill`,
///   `sent`, `inbox_len`, `inbox_over`, the sender-side volume columns in
///   the audit pass and the receiver-side ones in the gather pass) and
///   per-**chunk** buffers
///   (`events`, `fresh_halts`, `spill_nodes`, `scratch`, `audit_parts`)
///   are written only for indices owned by the running chunk;
/// * the **step** and **audit** passes touch `out_slots` only inside the
///   chunk's own arc ranges; the **gather** pass writes only the *other*
///   direction of each arc — receiver `v` takes from the slot of the arc
///   `u → v`, an index unique to `v` — and reads `out_spill[u]` (shared,
///   immutably: spills are cleared later, by the driver);
/// * `halted_bits` is read-only during every pass (halts recorded by the
///   driver between passes), and `halted` (bools) is written only by a
///   node's own activation, read for *other* nodes only in the audit
///   pass, which runs strictly after the step pass.
struct RoundShared<'a, P: Process> {
    g: &'a Graph,
    spec: &'a RunSpec,
    params: &'a P::Params,
    /// Receiver-side port permutation (ascending neighbor id); `None`
    /// when adjacency is already sorted.
    order: Option<&'a [u32]>,
    round: Round,
    max_degree: usize,
    n: usize,
    /// Nodes per chunk; chunk `ci` owns `[ci * chunk, min(n, (ci+1) * chunk))`.
    chunk: usize,
    audit: bool,
    processes: *mut Option<P>,
    rngs: *mut Rng,
    halted: *mut bool,
    halted_bits: *const Bitset,
    out_slots: *mut Option<P::Message>,
    out_spill: *mut Vec<(u32, P::Message)>,
    sent: *mut u32,
    events: *mut EventBuf<P>,
    fresh_halts: *mut Vec<NodeId>,
    spill_nodes: *mut Vec<NodeId>,
    scratch: *mut Vec<Envelope<P::Message>>,
    audit_parts: *mut AuditPart,
    inbox: *mut Envelope<P::Message>,
    inbox_len: *mut u32,
    inbox_over: *mut Vec<Envelope<P::Message>>,
    /// Per-node message-volume columns of the transcript (length `n` when
    /// `audit`, empty otherwise — dereferenced only under `audit`). The
    /// *sent* columns are written for sender `u` only by `u`'s owning
    /// chunk in the audit pass; the *recv* columns for receiver `v` only
    /// by `v`'s owning chunk in the gather pass.
    vol_msgs_sent: *mut u64,
    vol_bits_sent: *mut u64,
    vol_msgs_recv: *mut u64,
    vol_bits_recv: *mut u64,
}

// SAFETY: see the struct-level safety contract — all aliasing is
// partitioned per chunk / per arc; `P: Process` already bounds the
// payloads (`Message: Send + Sync`, state `Send`).
#[allow(unsafe_code)]
unsafe impl<P: Process> Sync for RoundShared<'_, P> {}

impl<P: Process> RoundShared<'_, P> {
    /// The node range `[lo, hi)` owned by chunk `ci`.
    #[inline]
    fn range(&self, ci: usize) -> (usize, usize) {
        let lo = ci * self.chunk;
        (lo.min(self.n), (lo + self.chunk).min(self.n))
    }
}

/// **Step pass**: activates every live node of chunk `ci` (`init` at
/// round 0), reading its inbox region and writing sends / commit events /
/// halt flags. See [`RoundShared`] for the aliasing contract.
#[allow(unsafe_code)]
fn step_chunk<P: Process>(sh: &RoundShared<'_, P>, ci: usize) {
    let (lo, hi) = sh.range(ci);
    // SAFETY: chunk `ci` owns nodes `lo..hi` and per-chunk buffer `ci`;
    // the inbox arena is read-only during the step, and every slice stays
    // inside the arena bounds (`inbox_len[v] > 0` implies the arena was
    // grown to Σdeg before the gather that filled it).
    unsafe {
        let events = &mut *sh.events.add(ci);
        let fresh = &mut *sh.fresh_halts.add(ci);
        let scratch = &mut *sh.scratch.add(ci);
        (*sh.halted_bits).for_each_zero_in(lo, hi, |v| {
            let deg = sh.g.degree(v);
            let arc = sh.g.csr_offset(v);
            let k = *sh.inbox_len.add(v) as usize;
            let inbox: &[Envelope<P::Message>] = if k == 0 {
                &[]
            } else {
                let over = &mut *sh.inbox_over.add(v);
                if over.is_empty() {
                    std::slice::from_raw_parts(sh.inbox.add(arc), k)
                } else {
                    // Overflowed region (> deg deliveries via spills):
                    // assemble the full inbox in the chunk scratch.
                    scratch.clear();
                    scratch.extend_from_slice(std::slice::from_raw_parts(sh.inbox.add(arc), deg));
                    scratch.append(over);
                    &scratch[..]
                }
            };
            activate::<P>(
                sh.g,
                sh.spec.knowledge,
                sh.params,
                v,
                sh.round,
                sh.max_degree,
                &mut *sh.processes.add(v),
                &mut *sh.rngs.add(v),
                &mut *sh.halted.add(v),
                std::slice::from_raw_parts_mut(sh.out_slots.add(arc), deg),
                &mut *sh.out_spill.add(v),
                &mut *sh.sent.add(v),
                events,
                inbox,
            );
            *sh.inbox_len.add(v) = 0;
            if *sh.halted.add(v) {
                fresh.push(v);
            }
        });
    }
}

/// **Audit pass**: sweeps the chunk's round-start live nodes (the only
/// possible senders), accumulating the CONGEST audit, clearing slots
/// addressed to receivers that halted this round, recording spilling
/// senders, and zeroing `sent`. Runs on the *pre-halt* bitset (a node
/// that halted this round still sent this round). See [`RoundShared`]
/// for the aliasing contract.
#[allow(unsafe_code)]
fn audit_chunk<P: Process>(sh: &RoundShared<'_, P>, ci: usize) {
    let (lo, hi) = sh.range(ci);
    // SAFETY: chunk `ci` owns senders `lo..hi`, their arc ranges of
    // `out_slots`, and per-chunk buffers `ci`; `halted` flags of other
    // nodes are only *read*, and no activation is running.
    unsafe {
        let part = &mut *sh.audit_parts.add(ci);
        *part = AuditPart::default();
        let spills = &mut *sh.spill_nodes.add(ci);
        (*sh.halted_bits).for_each_zero_in(lo, hi, |u| {
            if *sh.sent.add(u) == 0 {
                return;
            }
            *sh.sent.add(u) = 0;
            let nbrs = sh.g.neighbors(u);
            let arc = sh.g.csr_offset(u);
            for (port, &(dst, _)) in nbrs.iter().enumerate() {
                let slot = &mut *sh.out_slots.add(arc + port);
                if let Some(msg) = slot {
                    if sh.audit {
                        let bits = msg.size_bits();
                        part.max_bits = part.max_bits.max(bits);
                        part.messages += 1;
                        *sh.vol_msgs_sent.add(u) += 1;
                        *sh.vol_bits_sent.add(u) += bits as u64;
                    }
                    if *sh.halted.add(dst) {
                        *slot = None; // terminated nodes no longer receive
                    } else {
                        part.deliveries += 1;
                    }
                }
            }
            let spill = &*sh.out_spill.add(u);
            if !spill.is_empty() {
                spills.push(u);
                for (port, msg) in spill {
                    if sh.audit {
                        let bits = msg.size_bits();
                        part.max_bits = part.max_bits.max(bits);
                        part.messages += 1;
                        *sh.vol_msgs_sent.add(u) += 1;
                        *sh.vol_bits_sent.add(u) += bits as u64;
                    }
                    if !*sh.halted.add(nbrs[*port as usize].0) {
                        part.deliveries += 1;
                    }
                }
            }
        });
    }
}

/// **Gather pass**: every receiver still live after this round's halts
/// pulls its neighbors' pending messages into its own inbox region, in
/// ascending sender id order (slot first, then that sender's spills in
/// send order — the inbox ordering the `Process` contract promises).
/// Runs on the *post-halt* bitset. See [`RoundShared`] for the aliasing
/// contract.
#[allow(unsafe_code)]
fn gather_chunk<P: Process>(sh: &RoundShared<'_, P>, ci: usize) {
    let (lo, hi) = sh.range(ci);
    // SAFETY: receiver `v` writes only its own inbox region /
    // `inbox_len` / `inbox_over`, and takes each sender's slot through
    // the arc `u → v` — an index no other receiver touches; sender spill
    // vectors are read-only here.
    unsafe {
        (*sh.halted_bits).for_each_zero_in(lo, hi, |v| {
            let deg = sh.g.degree(v);
            let varc = sh.g.csr_offset(v);
            let nbrs = sh.g.neighbors(v);
            let over = &mut *sh.inbox_over.add(v);
            debug_assert!(over.is_empty());
            let mut k = 0usize;
            for i in 0..deg {
                let p = match sh.order {
                    Some(order) => order[varc + i] as usize,
                    None => i,
                };
                let u = nbrs[p].0;
                // Port of the shared edge at the sender: names both the
                // sender-side outbox slot and the spill entries to match.
                let up = sh.g.rev_port(varc + p);
                let uarc = sh.g.csr_offset(u) + up;
                if let Some(msg) = (*sh.out_slots.add(uarc)).take() {
                    if sh.audit {
                        *sh.vol_msgs_recv.add(v) += 1;
                        *sh.vol_bits_recv.add(v) += msg.size_bits() as u64;
                    }
                    let env = Envelope {
                        src: u,
                        port: p,
                        msg,
                    };
                    if k < deg {
                        *sh.inbox.add(varc + k) = env;
                    } else {
                        over.push(env);
                    }
                    k += 1;
                }
                let spill = &*sh.out_spill.add(u);
                if !spill.is_empty() {
                    for (sport, msg) in spill {
                        if *sport as usize == up {
                            if sh.audit {
                                *sh.vol_msgs_recv.add(v) += 1;
                                *sh.vol_bits_recv.add(v) += msg.size_bits() as u64;
                            }
                            let env = Envelope {
                                src: u,
                                port: p,
                                msg: msg.clone(),
                            };
                            if k < deg {
                                *sh.inbox.add(varc + k) = env;
                            } else {
                                over.push(env);
                            }
                            k += 1;
                        }
                    }
                }
            }
            *sh.inbox_len.add(v) = k as u32;
        });
    }
}

/// Runs `f` over every chunk index: inline when no pool is engaged
/// (sequential and single-chunk runs), otherwise fanned out over the
/// persistent pool (the driving thread participates).
fn dispatch(pool: Option<&WorkerPool>, limit: usize, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    match pool {
        Some(p) if chunks > 1 => p.run(chunks, limit, f),
        _ => {
            for ci in 0..chunks {
                f(ci);
            }
        }
    }
}

/// Activates one node for one round (or init when `round == 0`).
#[allow(clippy::too_many_arguments)]
fn activate<P: Process>(
    g: &Graph,
    knowledge: Knowledge,
    params: &P::Params,
    v: NodeId,
    round: Round,
    max_degree: usize,
    proc_slot: &mut Option<P>,
    rng: &mut Rng,
    halted: &mut bool,
    out_slots: &mut [Option<P::Message>],
    out_spill: &mut Vec<(u32, P::Message)>,
    sent: &mut u32,
    events: &mut EventBuf<P>,
    inbox: &[Envelope<P::Message>],
) {
    let mut ctx = Ctx {
        id: v,
        round,
        graph: g,
        knowledge,
        max_degree,
        rng,
        out_slots,
        out_spill,
        sent,
        events,
        halted,
    };
    if round == 0 {
        *proc_slot = Some(P::init(params, &mut ctx));
    } else {
        proc_slot
            .as_mut()
            .expect("process exists after init")
            .round(&mut ctx, inbox);
    }
}

/// Resolves a thread count with the `0 = all available cores` convention.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, |p| p.get())
    } else {
        threads
    }
    .max(1)
}

/// Below this node count a parallel run falls back to the single-chunk
/// loop — chunking overhead would dominate. Exported so tests asserting
/// that the parallel executor really ran can size their instances
/// against the actual threshold instead of a copied magic number. An
/// explicit [`RunSpec::chunk_nodes`] overrides the fallback: the
/// chunked path then runs at any instance size (the scheduler-adversarial
/// determinism tests rely on this).
pub const PARALLEL_MIN_NODES: usize = 256;

/// Chunk geometry when none is forced: about four chunks per thread (the
/// cursor-race scheduling in the pool then smooths load imbalance),
/// rounded up to whole 64-bit bitset words so no word of the halted
/// bitset straddles a chunk boundary.
fn default_chunk(n: usize, threads: usize) -> usize {
    let target = n.div_ceil(threads.max(1) * 4).max(64);
    target.div_ceil(64) * 64
}

/// Runs `P` under `spec` on `threads` resolved threads (the calling
/// thread counts as one), in `state`'s arenas and with worker threads
/// from the workspace's resident `pool`.
fn run_with_threads<P: Process>(
    g: &Graph,
    params: &P::Params,
    spec: &RunSpec,
    threads: usize,
    state: &mut RunState<P>,
    pool: &mut Option<WorkerPool>,
) -> Transcript<P::NodeOutput, P::EdgeOutput> {
    let n = g.n();
    // The chunk geometry is fixed for the whole run: small instances and
    // one-thread runs are a single chunk unless an explicit chunk size
    // forces the chunked path.
    let chunked = match spec.chunk_nodes {
        Some(_) => true,
        None => threads > 1 && n >= PARALLEL_MIN_NODES,
    };
    let chunk = match spec.chunk_nodes {
        Some(c) => c.max(1),
        None if chunked => default_chunk(n, threads),
        None => n.max(1),
    };
    let chunks = if chunked { n.div_ceil(chunk).max(1) } else { 1 };
    // Acquire worker threads from the workspace's resident pool, grown if
    // this run wants more workers than it has. `threads` counts the
    // calling thread, so a `threads = t` run keeps `t - 1` workers
    // grabbing chunks.
    let workers = if chunks > 1 {
        threads.saturating_sub(1)
    } else {
        0
    };
    let pool: Option<&WorkerPool> = if workers > 0 {
        if pool.as_ref().is_none_or(|p| p.workers() < workers) {
            *pool = Some(WorkerPool::new(workers));
        }
        pool.as_ref()
    } else {
        None
    };
    state.reset(g, spec.seed, chunks, spec.transcript);
    let max_degree = g.max_degree();
    // Receiver-side gather walks senders in ascending id order; for
    // insertion-ordered adjacencies that is a cached permutation.
    let order = g.sorted_port_order();

    let mut round: Round = 0;
    loop {
        {
            let sh = state.round_shared(g, spec, params, order, round, max_degree, chunk);
            dispatch(pool, workers, chunks, &|ci| step_chunk::<P>(&sh, ci));
        }
        state.apply_events(round);
        {
            let sh = state.round_shared(g, spec, params, order, round, max_degree, chunk);
            dispatch(pool, workers, chunks, &|ci| audit_chunk::<P>(&sh, ci));
        }
        let (messages, round_max_bits, deliveries) = state.collect_audit();
        state.record_halts(round);
        if state.audit {
            state.transcript.messages_sent += messages;
            state.transcript.max_message_bits.push(round_max_bits);
        }
        if state.record_halt_rounds {
            state.transcript.live_after_round.push(state.live);
        }
        if state.all_halted() {
            break;
        }
        if deliveries > 0 {
            state.ensure_inbox_arena(g);
        }
        {
            let sh = state.round_shared(g, spec, params, order, round, max_degree, chunk);
            dispatch(pool, workers, chunks, &|ci| gather_chunk::<P>(&sh, ci));
        }
        state.drain_spills();
        round += 1;
        assert!(
            round <= spec.max_rounds,
            "algorithm exceeded max_rounds={} without halting",
            spec.max_rounds
        );
    }
    state.transcript.rounds = round;
    // Hand the ledger to the caller; the arenas stay behind for reuse.
    std::mem::replace(
        &mut state.transcript,
        Transcript::empty(P::OUTPUT_KIND, 0, 0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use localavg_graph::gen;

    /// Every node floods the maximum id it has seen for `radius` rounds,
    /// then commits it. Classic LOCAL warm-up; lets us test delivery,
    /// rounds, ports, and both executors.
    struct MaxFlood {
        best: u64,
        radius: usize,
    }

    impl Process for MaxFlood {
        type Message = u64;
        type NodeOutput = u64;
        type EdgeOutput = ();
        type Params = usize; // radius

        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(radius: &usize, ctx: &mut Ctx<'_, Self>) -> Self {
            ctx.broadcast(ctx.id() as u64);
            MaxFlood {
                best: ctx.id() as u64,
                radius: *radius,
            }
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<u64>]) {
            for env in inbox {
                self.best = self.best.max(env.msg);
            }
            if ctx.round() < self.radius {
                ctx.broadcast(self.best);
            } else {
                ctx.commit_node(self.best);
                ctx.halt();
            }
        }
    }

    const RADIUS: usize = 3;

    #[test]
    fn flood_reaches_radius() {
        let g = gen::path(8);
        let t = RunSpec::new(1).run::<MaxFlood>(&g, &RADIUS);
        // After 3 rounds of flooding, node 0 has seen ids up to distance 3.
        assert_eq!(t.node_output[0], Some(3));
        assert_eq!(t.node_output[4], Some(7));
        assert_eq!(t.rounds, 3);
        assert!(t.all_nodes_committed());
        assert!(t.is_complete());
        // Everyone committed at round 3 and halted at round 3.
        assert!(t.node_commit_round.iter().all(|&r| r == 3));
        assert!(t.node_halt_round.iter().all(|&r| r == 3));
    }

    #[test]
    fn congest_accounting() {
        let g = gen::cycle(6);
        let t = RunSpec::new(2).run::<MaxFlood>(&g, &RADIUS);
        assert_eq!(t.peak_message_bits(), Some(64));
        // 6 nodes broadcast to 2 neighbors for rounds 0..=2 (round 3 commits).
        assert_eq!(t.messages_sent, 6 * 2 * 3);
        // Per-node volume: every node sends and receives 2 messages per
        // flooding round, 64 bits each; the columns sum to the totals.
        assert_eq!(t.node_messages_sent, vec![2 * 3; 6]);
        assert_eq!(t.node_messages_recv, vec![2 * 3; 6]);
        assert_eq!(t.node_bits_sent, vec![2 * 3 * 64; 6]);
        assert_eq!(t.node_bits_recv, vec![2 * 3 * 64; 6]);
        assert_eq!(
            t.node_messages_sent.iter().sum::<u64>(),
            t.messages_sent as u64
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::grid(8, 9);
        let a = RunSpec::new(7).run::<MaxFlood>(&g, &RADIUS);
        let b = RunSpec::new(7)
            .with_exec(Exec::Parallel { threads: 4 })
            .run::<MaxFlood>(&g, &RADIUS);
        assert_eq!(a.node_output, b.node_output);
        assert_eq!(a.node_commit_round, b.node_commit_round);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    /// A randomized process: commits a coin flip at round 0. Used to verify
    /// per-node randomness is a function of (seed, id) only.
    struct CoinFlip;

    impl Process for CoinFlip {
        type Message = ();
        type NodeOutput = bool;
        type EdgeOutput = ();
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            let flip = ctx.rng().chance(0.5);
            ctx.commit_node(flip);
            ctx.halt();
            CoinFlip
        }

        fn round(&mut self, _ctx: &mut Ctx<'_, Self>, _inbox: &[Envelope<()>]) {
            unreachable!("halted at init");
        }
    }

    #[test]
    fn randomness_is_seed_deterministic() {
        let g = gen::cycle(32);
        let a = RunSpec::new(5).run::<CoinFlip>(&g, &());
        let b = RunSpec::new(5)
            .with_exec(Exec::Parallel { threads: 3 })
            .run::<CoinFlip>(&g, &());
        let c = RunSpec::new(6).run::<CoinFlip>(&g, &());
        assert_eq!(a.node_output, b.node_output);
        assert_ne!(a.node_output, c.node_output);
        assert_eq!(a.rounds, 0, "0-round algorithm");
    }

    /// Edge-labelling process: each edge is committed by its lower-id
    /// endpoint with label = sum of endpoint ids; the higher endpoint
    /// commits the same label one round later (consistency check).
    struct EdgeLabel;

    #[derive(Debug, Clone, PartialEq)]
    struct NoMsg;
    impl MessageSize for NoMsg {
        fn size_bits(&self) -> usize {
            0
        }
    }

    impl Process for EdgeLabel {
        type Message = NoMsg;
        type NodeOutput = ();
        type EdgeOutput = u64;
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::EdgeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            for port in ctx.ports() {
                let u = ctx.neighbor_id(port);
                if ctx.id() < u {
                    let label = (ctx.id() + u) as u64;
                    ctx.commit_edge(port, label);
                }
            }
            EdgeLabel
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Self>, _inbox: &[Envelope<NoMsg>]) {
            for port in ctx.ports() {
                let u = ctx.neighbor_id(port);
                if ctx.id() > u {
                    let label = (ctx.id() + u) as u64;
                    ctx.commit_edge(port, label);
                }
            }
            ctx.halt();
        }
    }

    #[test]
    fn edge_commits_record_earliest_round_and_agree() {
        let g = gen::path(4);
        let t = RunSpec::new(1).run::<EdgeLabel>(&g, &());
        assert!(t.all_edges_committed());
        // Lower endpoint committed at round 0; duplicate commit at round 1
        // must not move the recorded round.
        assert!(t.edge_commit_round.iter().all(|&r| r == 0));
        let labels = t.edge_labels();
        for (e, u, v) in g.edges() {
            assert_eq!(labels[e], (u + v) as u64);
        }
        assert_eq!(t.kind, OutputKind::EdgeLabels);
    }

    /// Conflicting edge labels must panic.
    struct BadEdgeLabel;

    impl Process for BadEdgeLabel {
        type Message = NoMsg;
        type NodeOutput = ();
        type EdgeOutput = u64;
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::EdgeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            for port in ctx.ports() {
                ctx.commit_edge(port, ctx.id() as u64); // endpoints disagree
            }
            ctx.halt();
            BadEdgeLabel
        }

        fn round(&mut self, _: &mut Ctx<'_, Self>, _: &[Envelope<NoMsg>]) {}
    }

    #[test]
    #[should_panic(expected = "conflicting labels")]
    fn conflicting_edge_commit_panics() {
        let g = gen::path(2);
        let _ = RunSpec::new(1).run::<BadEdgeLabel>(&g, &());
    }

    /// A process that never halts must trip the round cap.
    struct Forever;
    impl Process for Forever {
        type Message = ();
        type NodeOutput = ();
        type EdgeOutput = ();
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;
        fn init(_: &(), _: &mut Ctx<'_, Self>) -> Self {
            Forever
        }
        fn round(&mut self, _: &mut Ctx<'_, Self>, _: &[Envelope<()>]) {}
    }

    #[test]
    #[should_panic(expected = "max_rounds")]
    fn round_cap_panics() {
        let g = gen::path(3);
        let _ = RunSpec::new(1).with_max_rounds(10).run::<Forever>(&g, &());
    }

    #[test]
    fn knowledge_gating() {
        struct NosyProcess;
        impl Process for NosyProcess {
            type Message = ();
            type NodeOutput = ();
            type EdgeOutput = ();
            type Params = ();
            const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;
            fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
                let _ = ctx.neighbor_id(0); // should panic without knowledge
                NosyProcess
            }
            fn round(&mut self, _: &mut Ctx<'_, Self>, _: &[Envelope<()>]) {}
        }
        let g = gen::path(2);
        let spec = RunSpec::new(1).with_knowledge(Knowledge {
            neighbor_ids: false,
            neighbor_degrees: false,
        });
        let result = std::panic::catch_unwind(|| {
            let _ = spec.run::<NosyProcess>(&g, &());
        });
        assert!(result.is_err());
    }

    #[test]
    fn empty_graph_trivial_run() {
        let g = Graph::empty(0);
        let t = RunSpec::new(1).run::<CoinFlip>(&g, &());
        assert_eq!(t.rounds, 0);
        assert!(t.is_complete());
    }

    #[test]
    fn run_spec_builders() {
        let spec = RunSpec::new(3)
            .with_seed(4)
            .with_exec(Exec::Parallel { threads: 2 })
            .with_max_rounds(99)
            .with_transcript(TranscriptPolicy::None)
            .with_knowledge(Knowledge::default())
            .with_chunk_nodes(Some(8));
        assert_eq!(spec.seed, 4);
        assert_eq!(spec.exec, Exec::Parallel { threads: 2 });
        assert_eq!(spec.max_rounds, 99);
        assert_eq!(spec.transcript, TranscriptPolicy::None);
        assert_eq!(spec.chunk_nodes, Some(8));
        assert_eq!(RunSpec::new(1).exec, Exec::Sequential);
    }

    #[test]
    fn transcript_policy_drops_only_what_it_promises() {
        let g = gen::grid(6, 6);
        let full = RunSpec::new(5).run::<MaxFlood>(&g, &RADIUS);
        let completions = RunSpec::new(5)
            .with_transcript(TranscriptPolicy::CompletionsOnly)
            .run::<MaxFlood>(&g, &RADIUS);
        let none = RunSpec::new(5)
            .with_transcript(TranscriptPolicy::None)
            .run::<MaxFlood>(&g, &RADIUS);
        // Outputs and commit clocks survive every policy.
        for t in [&completions, &none] {
            assert_eq!(t.node_output, full.node_output);
            assert_eq!(t.node_commit_round, full.node_commit_round);
            assert_eq!(t.rounds, full.rounds);
            assert!(t.is_complete());
            // The CONGEST audit is gone below Full — including the
            // per-node volume columns — and the peak reports "unaudited".
            assert!(t.max_message_bits.is_empty());
            assert_eq!(t.messages_sent, 0);
            assert!(!t.audited());
            assert_eq!(t.peak_message_bits(), None);
            assert!(t.node_messages_sent.is_empty());
            assert!(t.node_bits_sent.is_empty());
            assert!(t.node_messages_recv.is_empty());
            assert!(t.node_bits_recv.is_empty());
        }
        assert!(full.messages_sent > 0);
        assert!(!full.max_message_bits.is_empty());
        assert_eq!(
            full.node_messages_sent.iter().sum::<u64>(),
            full.messages_sent as u64
        );
        // Halt clocks survive CompletionsOnly but not None, and the
        // live-frontier ledger travels with them.
        assert_eq!(completions.node_halt_round, full.node_halt_round);
        assert_eq!(completions.live_after_round, full.live_after_round);
        assert_eq!(full.live_after_round.len(), full.rounds as usize + 1);
        assert!(none.node_halt_round.iter().all(|&r| r == UNCOMMITTED));
        assert!(none.live_after_round.is_empty());
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_runs() {
        let g = gen::grid(8, 9);
        let mut ws = Workspace::new();
        let spec = RunSpec::new(7);
        let first = spec.run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        let reused = spec.run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        let fresh = spec.run::<MaxFlood>(&g, &RADIUS);
        assert_eq!(ws.run_count(), 2);
        assert_eq!(ws.reuse_count(), 1);
        assert_eq!(first.node_output, fresh.node_output);
        assert_eq!(reused.node_output, fresh.node_output);
        assert_eq!(reused.node_commit_round, fresh.node_commit_round);
        assert_eq!(reused.node_halt_round, fresh.node_halt_round);
        assert_eq!(reused.max_message_bits, fresh.max_message_bits);
        assert_eq!(reused.messages_sent, fresh.messages_sent);
        assert_eq!(reused.node_messages_sent, fresh.node_messages_sent);
        assert_eq!(reused.node_bits_sent, fresh.node_bits_sent);
        assert_eq!(reused.node_messages_recv, fresh.node_messages_recv);
        assert_eq!(reused.node_bits_recv, fresh.node_bits_recv);
        // A different seed through the same arenas still matches fresh.
        let other_ws = spec.with_seed(9).run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        let other = RunSpec::new(9).run::<MaxFlood>(&g, &RADIUS);
        assert_eq!(other_ws.node_output, other.node_output);
    }

    #[test]
    fn workspace_handles_shape_changes_and_many_process_types() {
        let small = gen::path(6);
        let big = gen::grid(7, 7);
        let mut ws = Workspace::new();
        let spec = RunSpec::new(2);
        let _ = spec.run_in::<MaxFlood>(&small, &RADIUS, &mut ws);
        let _ = spec.run_in::<CoinFlip>(&small, &(), &mut ws);
        assert_eq!(ws.arena_count(), 2);
        // Shape change flushes the stored arenas, then runs fine.
        let on_big = spec.run_in::<MaxFlood>(&big, &RADIUS, &mut ws);
        assert_eq!(ws.arena_count(), 1);
        assert_eq!(
            on_big.node_output,
            spec.run::<MaxFlood>(&big, &RADIUS).node_output
        );
        // Back to the small shape: flush again, still correct.
        let back = spec.run_in::<MaxFlood>(&small, &RADIUS, &mut ws);
        assert_eq!(
            back.node_output,
            spec.run::<MaxFlood>(&small, &RADIUS).node_output
        );
    }

    #[test]
    fn workspace_reuse_after_an_aborted_run_is_clean() {
        // A run that panics mid-round leaves messages pending in the
        // outbox arena. Reusing the workspace afterwards — for the same
        // process type, hence the same arena slot — must behave exactly
        // like a fresh run: stale sends must not be delivered (they
        // would spill behind the next run's own sends).
        use std::sync::atomic::{AtomicBool, Ordering};
        static POISON: AtomicBool = AtomicBool::new(false);

        /// Broadcasts in rounds 0 and 1; while `POISON` is set, node 5
        /// panics in round 1 *after* lower-id nodes already wrote their
        /// round-1 sends into the shared outbox arena.
        struct MidRoundPanic;
        impl Process for MidRoundPanic {
            type Message = u64;
            type NodeOutput = u64;
            type EdgeOutput = ();
            type Params = ();
            const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;
            fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
                ctx.broadcast(1);
                MidRoundPanic
            }
            fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<u64>]) {
                if ctx.round() == 1 {
                    ctx.broadcast(2);
                    assert!(
                        !(POISON.load(Ordering::Relaxed) && ctx.id() == 5),
                        "poisoned node"
                    );
                } else {
                    ctx.commit_node(inbox.iter().map(|e| e.msg).sum());
                    ctx.halt();
                }
            }
        }

        let g = gen::grid(6, 6); // node 5 exists; sequential id order
        let mut ws = Workspace::new();
        let spec = RunSpec::new(4);
        POISON.store(true, Ordering::Relaxed);
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = spec.run_in::<MidRoundPanic>(&g, &(), &mut ws);
        }));
        assert!(aborted.is_err(), "the poisoned run must panic");
        POISON.store(false, Ordering::Relaxed);
        // Same process type through the abandoned arena: the pending
        // round-1 broadcasts of nodes 0..5 must be gone.
        let reused = spec.run_in::<MidRoundPanic>(&g, &(), &mut ws);
        let fresh = spec.run::<MidRoundPanic>(&g, &());
        assert_eq!(reused.node_output, fresh.node_output);
        assert_eq!(reused.messages_sent, fresh.messages_sent);
        assert_eq!(reused.max_message_bits, fresh.max_message_bits);
    }

    #[test]
    fn workspace_reuse_matches_fresh_across_executors_and_policies() {
        let g = gen::grid(17, 17); // big enough to really chunk
        assert!(g.n() >= PARALLEL_MIN_NODES);
        let mut ws = Workspace::new();
        for policy in [
            TranscriptPolicy::Full,
            TranscriptPolicy::CompletionsOnly,
            TranscriptPolicy::None,
        ] {
            for exec in [Exec::Sequential, Exec::Parallel { threads: 3 }] {
                let spec = RunSpec::new(11).with_exec(exec).with_transcript(policy);
                let reused = spec.run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
                let fresh = spec.run::<MaxFlood>(&g, &RADIUS);
                assert_eq!(reused.node_output, fresh.node_output);
                assert_eq!(reused.node_commit_round, fresh.node_commit_round);
                assert_eq!(reused.node_halt_round, fresh.node_halt_round);
                assert_eq!(reused.max_message_bits, fresh.max_message_bits);
                assert_eq!(reused.node_messages_sent, fresh.node_messages_sent);
                assert_eq!(reused.node_bits_recv, fresh.node_bits_recv);
            }
        }
        assert_eq!(ws.reuse_count(), 5);
    }

    /// Nodes halt in waves (round `id % 5`), never sending — a pure
    /// frontier-decay workload for the live ledger.
    struct Staircase;

    impl Process for Staircase {
        type Message = ();
        type NodeOutput = u64;
        type EdgeOutput = ();
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            ctx.commit_node(ctx.id() as u64);
            if ctx.id().is_multiple_of(5) {
                ctx.halt();
            }
            Staircase
        }
        fn round(&mut self, ctx: &mut Ctx<'_, Self>, _: &[Envelope<()>]) {
            if ctx.round() >= (ctx.id() % 5) as Round {
                ctx.halt();
            }
        }
    }

    #[test]
    fn live_ledger_matches_a_recount_from_halt_rounds() {
        let g = gen::grid(6, 7);
        let t = RunSpec::new(3).run::<Staircase>(&g, &());
        assert_eq!(t.rounds, 4);
        assert_eq!(t.live_after_round.len(), 5);
        // Monotone non-increasing, ending at zero.
        assert!(t.live_after_round.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(*t.live_after_round.last().unwrap(), 0);
        // Every entry recomputes from the per-node termination ledger.
        for (r, &live) in t.live_after_round.iter().enumerate() {
            let recount = t
                .node_halt_round
                .iter()
                .filter(|&&h| h > r as Round)
                .count();
            assert_eq!(live, recount, "live count at round {r}");
        }
    }

    #[test]
    fn chunk_geometry_never_changes_the_transcript() {
        // Small enough that the default geometry is a single chunk: the
        // explicit override is what forces the chunked path here.
        let g = gen::grid(6, 6);
        let baseline = RunSpec::new(5).run::<MaxFlood>(&g, &RADIUS);
        assert!(g.n() < PARALLEL_MIN_NODES);
        for chunk in [1, 3, 7, 36, 1000] {
            for threads in [1, 2, 8] {
                let spec = RunSpec::new(5)
                    .with_exec(Exec::Parallel { threads })
                    .with_chunk_nodes(Some(chunk));
                let t = spec.run::<MaxFlood>(&g, &RADIUS);
                assert_eq!(
                    t, baseline,
                    "transcript drift at chunk={chunk} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn workspace_keeps_a_resident_pool_across_runs() {
        let g = gen::grid(17, 17);
        assert!(g.n() >= PARALLEL_MIN_NODES);
        let mut ws = Workspace::new();
        let seq = RunSpec::new(2).run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        assert_eq!(ws.pool_workers(), 0, "sequential runs never spawn the pool");
        let spec = RunSpec::new(2).with_exec(Exec::Parallel { threads: 3 });
        let par = spec.run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        assert_eq!(par, seq);
        assert_eq!(ws.pool_workers(), 2, "threads = 3 keeps 2 pool workers");
        // Re-running with fewer threads reuses the bigger pool as-is …
        let spec2 = RunSpec::new(2).with_exec(Exec::Parallel { threads: 2 });
        assert_eq!(spec2.run_in::<MaxFlood>(&g, &RADIUS, &mut ws), seq);
        assert_eq!(ws.pool_workers(), 2);
        // … a wider run grows it, and clear() keeps it.
        let spec3 = RunSpec::new(2).with_exec(Exec::Parallel { threads: 4 });
        assert_eq!(spec3.run_in::<MaxFlood>(&g, &RADIUS, &mut ws), seq);
        assert_eq!(ws.pool_workers(), 3);
        ws.clear();
        assert_eq!(ws.pool_workers(), 3);
    }
}
