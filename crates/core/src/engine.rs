//! The `ComputeInstant()` engine: incremental evaluation of a temporal
//! dependency graph.
//!
//! "Once input evolution instant `u(k)` is known, it is possible to
//! successively determine each intermediate instant and output evolution
//! instant" (paper Section III.C). The [`Engine`] does precisely that, in
//! zero *simulated* time: each call to [`Engine::set_input`] runs a
//! worklist propagation that computes every node whose dependencies are now
//! satisfied, across however many iterations are in flight.
//!
//! The engine simultaneously performs the paper's *observation over a local
//! time* (Fig. 2(b)): every computed exchange instant is logged per
//! relation, and every computed execution interval is replayed into
//! [`ExecRecord`]s — identical in format to the conventional simulation's
//! records, enabling a bitwise accuracy comparison without any simulator
//! involvement.
//!
//! Negative-iteration history (`k − d < 0`) resolves to instant 0, the
//! model start, mirroring the simulator where every process is ready at
//! time zero.
//!
//! # Performance
//!
//! `ComputeInstant()` replaces kernel events, so its cost *is* the method's
//! overhead (paper Fig. 5). The implementation therefore avoids per-event
//! allocation entirely in steady state: iteration states live in a ring
//! buffer and are recycled, per-node observation actions are precompiled,
//! and arc evaluation reads weights in place. On top of that, the default
//! [`EvalBackend::Compiled`] lowers the graph into a [`CompiledTdg`] —
//! a levelized schedule with CSR-flattened arcs — and evaluates steady-state
//! iterations as one branch-light linear sweep instead of worklist
//! propagation; [`EvalBackend::Worklist`] keeps the propagation path as the
//! bitwise reference (see `tests/backend_conformance.rs`).

use std::collections::VecDeque;

use evolve_des::{EventId, Time};
use evolve_maxplus::MaxPlus;
use evolve_model::ExecRecord;

use crate::compile::{lower_node_meta, CompiledTdg, EvalBackend, Obs, Slot};
use crate::derive::{DerivedTdg, SizeRule};
use crate::error::EngineError;
use crate::lane::{eval_weight, LaneLog, LaneState, Wake};
use crate::periodic::{
    self, CallObservation, FastForward, FastForwardStats, PeriodicConfig, PeriodicState,
    ReplayPlan, TailObservation, Template,
};
use crate::tdg::{NodeId, NodeKind, Tdg};

/// A kernel notification requested by the engine: wake `event` immediately
/// (`at == None`) or at the given computed instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// The event to notify.
    pub event: EventId,
    /// When to notify; `None` = in the current delta cycle.
    pub at: Option<Time>,
}

/// Latest instant, in ticks, an engine represents: offer instants, arc lags
/// and computed instants are lifted into the finite (max,+) range, whose top
/// is [`MaxPlus::MAX`]. A caller feeding offers or loads from outside the
/// program keeps a run's instants within it.
pub const MAX_INSTANT_TICKS: u64 = MaxPlus::MAX.raw() as u64;

/// Upper bound on recycled [`IterState`]s retained by the free list.
const FREE_LIST_CAP: usize = 16;

/// Allocation-footprint snapshot of an [`Engine`] (see
/// [`Engine::allocation_footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocationFootprint {
    /// Materialized iteration states (in the ring or the free list).
    pub iteration_states: usize,
    /// Capacity of the iteration ring buffer.
    pub ring_capacity: usize,
    /// Capacity of the iteration free list.
    pub free_capacity: usize,
    /// Capacity of the propagation worklist.
    pub work_capacity: usize,
    /// Capacity of the pending-notification buffer.
    pub notification_capacity: usize,
    /// Total element capacity of the compiled backend's buffers (schedule,
    /// CSR arc streams, instruction stream); `0` for the worklist backend.
    /// Constant after engine construction — the compiled program is
    /// immutable.
    pub compiled_elements: usize,
    /// Total element capacity of per-lane SoA state (accumulators, sizes,
    /// exec stashes across the ring and free list). `0` for the scalar
    /// [`Engine`]; the batched engine
    /// ([`BatchedEngine`](crate::BatchedEngine)) reports its lane blocks
    /// here.
    pub lane_state_elements: usize,
    /// Of [`lane_state_elements`](AllocationFootprint::lane_state_elements),
    /// how many are chunk-padding tails: accumulator rows are padded to the
    /// kernel stride (`kernel::lane_stride`), and the padded lanes hold
    /// harmless never-read values. `0` for the scalar [`Engine`] and for
    /// batches narrower than one chunk.
    pub lane_padding_elements: usize,
}

/// Computation statistics of an engine: the telemetry layer's engine
/// counter family, declared once in `evolve-obs`.
pub use evolve_obs::EngineCounters as EngineStats;

/// Per-iteration evaluation state (recycled through a free list).
struct IterState {
    /// Running `⊕` accumulator per node; the final value once computed.
    acc: Vec<MaxPlus>,
    /// Unresolved incoming arcs per node.
    remaining: Vec<u32>,
    computed: Vec<bool>,
    /// Token size per relation (0 until the defining node computes).
    sizes: Vec<u64>,
    /// `(start, ops)` per dense exec-end index, captured when the duration
    /// arc resolves.
    exec_stash: Vec<(MaxPlus, u64)>,
    nodes_pending: usize,
}

impl IterState {
    fn fresh(template: &[u32], relations: usize, execs: usize) -> Self {
        let nodes = template.len();
        IterState {
            acc: vec![MaxPlus::EPSILON; nodes],
            remaining: template.to_vec(),
            computed: vec![false; nodes],
            sizes: vec![0; relations],
            exec_stash: vec![(MaxPlus::EPSILON, 0); execs],
            nodes_pending: nodes,
        }
    }

    fn reset(&mut self, template: &[u32]) {
        self.acc.fill(MaxPlus::EPSILON);
        self.remaining.copy_from_slice(template);
        self.computed.fill(false);
        self.sizes.fill(0);
        self.exec_stash.fill((MaxPlus::EPSILON, 0));
        self.nodes_pending = self.acc.len();
    }
}

#[inline]
fn iter_at(ring: &VecDeque<IterState>, base: u64, k: u64) -> Option<&IterState> {
    if k < base {
        return None;
    }
    ring.get((k - base) as usize)
}

#[inline]
fn iter_at_mut(ring: &mut VecDeque<IterState>, base: u64, k: u64) -> Option<&mut IterState> {
    if k < base {
        return None;
    }
    ring.get_mut((k - base) as usize)
}

/// One scalar lane around iteration `k` while the compiled sweep holds `k`
/// outside the ring (`tail`); history stays in the ring.
struct TailLane<'a> {
    tail: &'a mut IterState,
    ring: &'a VecDeque<IterState>,
    base_k: u64,
    k: u64,
}

impl LaneState for TailLane<'_> {
    #[inline]
    fn size(&self, rel: usize, delay: u32) -> u64 {
        if delay == 0 {
            self.tail.sizes[rel]
        } else {
            iter_at(self.ring, self.base_k, self.k - u64::from(delay)).map_or(0, |it| it.sizes[rel])
        }
    }

    #[inline]
    fn set_size(&mut self, rel: usize, size: u64) {
        self.tail.sizes[rel] = size;
    }

    #[inline]
    fn stash(&self, dense: usize) -> (MaxPlus, u64) {
        self.tail.exec_stash[dense]
    }
}

/// One scalar lane around iteration `k` on the worklist path, where `k`
/// and its history all live in the ring.
struct RingLane<'a> {
    ring: &'a mut VecDeque<IterState>,
    base_k: u64,
    k: u64,
}

impl LaneState for RingLane<'_> {
    fn size(&self, rel: usize, delay: u32) -> u64 {
        iter_at(self.ring, self.base_k, self.k - u64::from(delay)).map_or(0, |it| it.sizes[rel])
    }

    fn set_size(&mut self, rel: usize, size: u64) {
        if let Some(it) = iter_at_mut(self.ring, self.base_k, self.k) {
            it.sizes[rel] = size;
        }
    }

    fn stash(&self, dense: usize) -> (MaxPlus, u64) {
        iter_at(self.ring, self.base_k, self.k)
            .map_or((MaxPlus::EPSILON, 0), |it| it.exec_stash[dense])
    }
}

/// One slot of the scalar compiled sweep: folds the node's slow, exec and
/// const arcs into its instant at iteration `k` (held outside the ring in
/// `tail`; all dependencies are available), stores it with any exec stash,
/// and returns it. The compiled sweep folds every slot not yet computed
/// and marks the whole tail computed once the walk ends.
#[inline(always)]
fn fold_slot(
    ct: &CompiledTdg,
    slot: &Slot,
    k: u64,
    ring: &VecDeque<IterState>,
    base_k: u64,
    record: bool,
    tail: &mut IterState,
) -> MaxPlus {
    let history = |delay: u64, src: usize| {
        if delay > k {
            MaxPlus::E
        } else {
            iter_at(ring, base_k, k - delay).map_or(MaxPlus::E, |it| it.acc[src])
        }
    };
    // Process-start baseline, then the slow stream: delayed constant arcs,
    // read through the full history ring (delay ≥ 1 by construction).
    let mut acc = MaxPlus::E;
    for i in slot.slows.clone() {
        let src_val = history(u64::from(ct.slow_delays[i]), ct.slow_srcs[i] as usize);
        // ε ⊗ lag = ε, and ⊕ ε is a no-op — no explicit skip needed.
        acc = acc.oplus(src_val.otimes(ct.slow_lags[i]));
    }
    // Exec stream: data-dependent arcs (any delay), each weight evaluated
    // against this iteration's token sizes.
    let mut stash: Option<(u32, (MaxPlus, u64))> = None;
    for i in slot.execs.clone() {
        let delay = u64::from(ct.exec_delays[i]);
        let src = ct.exec_srcs[i] as usize;
        let src_val = if delay == 0 {
            tail.acc[src]
        } else {
            history(delay, src)
        };
        if src_val.is_epsilon() {
            continue;
        }
        let exec = &ct.exec_arcs[i];
        let sizes = TailLane {
            tail: &mut *tail,
            ring,
            base_k,
            k,
        };
        let (lag, ops) = eval_weight(&exec.weight, k, &sizes);
        if record && exec.stash_dense != u32::MAX {
            stash = Some((exec.stash_dense, (src_val, ops)));
        }
        acc = acc.oplus(src_val.otimes(MaxPlus::new(lag as i64)));
    }
    // Constant stream: the branch-light common case, a contiguous max-fold
    // over same-iteration sources of the tail state. The zipped subslices
    // elide per-arc bounds checks.
    let consts = slot.consts.clone();
    for (&src, &lag) in ct.const_srcs[consts.clone()]
        .iter()
        .zip(&ct.const_lags[consts])
    {
        let src_val = tail.acc[src as usize];
        if !src_val.is_epsilon() {
            acc = acc.oplus(src_val.otimes(lag));
        }
    }
    tail.acc[slot.node] = acc;
    if let Some((dense, captured)) = stash {
        tail.exec_stash[dense as usize] = captured;
    }
    acc
}

/// Kernel events registered per input and output, and the notifications
/// requested of them so far.
#[derive(Debug)]
struct Notifier {
    input_events: Vec<Option<EventId>>,
    output_events: Vec<Option<EventId>>,
    pending: Vec<Notification>,
}

impl Notifier {
    /// Queues the notification `wake` asks for, if its event is registered.
    #[inline]
    fn wake(&mut self, wake: Wake) {
        let (event, at) = match wake {
            // Wake the reception in the current delta cycle.
            Wake::Ack(input) => (self.input_events[input as usize], None),
            // Wake the emission directly at the output instant.
            Wake::Output(output, t) => (self.output_events[output as usize], Some(t)),
        };
        if let Some(event) = event {
            self.pending.push(Notification { event, at });
        }
    }
}

/// Incremental evaluator of a derived temporal dependency graph.
///
/// # Examples
///
/// ```
/// use evolve_core::{derive_tdg, Engine};
/// use evolve_des::Time;
/// use evolve_model::didactic;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = didactic::chained(1, didactic::Params::default())?;
/// let derived = derive_tdg(&d.arch)?;
/// let mut engine = Engine::new(derived, d.arch.app().relations().len(), true);
/// // Offer the first token at t = 0 with size 8.
/// engine.set_input(0, 0, Time::ZERO, 8);
/// // The output instant y(0) is now computed.
/// let (k, y, _size) = engine.next_output(0).expect("output computed");
/// assert_eq!(k, 0);
/// assert!(y > Time::ZERO);
/// # Ok(())
/// # }
/// ```
pub struct Engine {
    tdg: Tdg,
    size_rules: Vec<SizeRule>,
    relation_count: usize,
    /// In-degree per node (ring-state reset template).
    remaining_template: Vec<u32>,
    /// Precompiled observation action per node.
    node_obs: Vec<Obs>,
    /// Arcs whose resolution stashes exec info (duration arc S → E).
    stash_arc: Vec<bool>,
    n_execs: usize,
    /// Arc indices with delay ≥ 1 (scanned when opening an iteration).
    delayed_arcs: Vec<u32>,
    /// Non-input nodes with no incoming arcs (take the baseline on open).
    baseline_nodes: Vec<NodeId>,
    /// Output-acknowledgment node per output, if feedback is required.
    output_ack_nodes: Vec<Option<NodeId>>,
    /// Whether any output needs acknowledgment feedback (disables the
    /// single-sweep fast path: iterations then complete only after the
    /// environment consumed the outputs).
    has_output_acks: bool,
    /// Whether any node is independent of all external instants (the
    /// look-ahead has something to compute).
    has_prefix: bool,
    /// Next expected acknowledgment iteration per output.
    next_output_ack_k: Vec<u64>,
    /// Which evaluation strategy this engine was built with.
    backend: EvalBackend,
    /// The lowered evaluation program for the steady-state linear sweep;
    /// `None` for [`EvalBackend::Worklist`].
    compiled: Option<CompiledTdg>,
    /// Iterations `base_k ..` currently materialized.
    ring: VecDeque<IterState>,
    base_k: u64,
    free: Vec<IterState>,
    /// Reused propagation worklist.
    work: VecDeque<(u64, NodeId)>,
    /// Next expected iteration per input.
    next_input_k: Vec<u64>,
    /// Acknowledgments, outputs, instant logs and execution records.
    log: LaneLog,
    record_observations: bool,
    notifier: Notifier,
    stats: EngineStats,
    prune_counter: u32,
    /// Periodic fast-forward knob (Off by default for bare engines).
    fast_forward: FastForward,
    /// Structural eligibility for fast-forward, fixed at construction.
    ff_eligible: bool,
    /// Distinct `k`-periods of all execution loads; `None` when some load
    /// is aperiodic in `k` (which also makes the engine ineligible).
    ff_load_periods: Option<Vec<u64>>,
    /// Online periodic-regime detector and template; `Some` iff fast-forward
    /// is enabled and the engine is eligible.
    periodic: Option<Box<PeriodicState>>,
    /// Statistics before a fast-path call captured during confirmation.
    ff_stats_mark: EngineStats,
    /// Reusable two-pass extrapolation scratch (replayed instants).
    ff_scratch: Vec<u64>,
    /// Reusable two-pass extrapolation scratch (reconstructed accumulators).
    ff_acc_scratch: Vec<i64>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("nodes", &self.tdg.node_count())
            .field("in_flight", &self.ring.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Engine {
    /// Creates an engine over a derived graph with the default
    /// (compiled) backend — see [`Engine::with_backend`].
    ///
    /// `relation_count` is the total number of relations in the source
    /// application (sizes and logs are indexed by relation);
    /// `record_observations` enables the exchange-instant and execution
    /// logs (disable for maximum speed when only boundary instants matter).
    pub fn new(derived: DerivedTdg, relation_count: usize, record_observations: bool) -> Self {
        Self::with_backend(
            derived,
            relation_count,
            record_observations,
            EvalBackend::default(),
        )
    }

    /// Creates an engine with an explicit [`EvalBackend`].
    ///
    /// [`EvalBackend::Compiled`] lowers the graph into a [`CompiledTdg`]
    /// once, here; [`EvalBackend::Worklist`] skips the lowering and
    /// evaluates every iteration through the reference worklist.
    pub fn with_backend(
        derived: DerivedTdg,
        relation_count: usize,
        record_observations: bool,
        backend: EvalBackend,
    ) -> Self {
        let size_reads_ok = derived.size_reads_within_horizon();
        let (tdg, size_rules, topo) = derived.into_parts();
        let n = tdg.node_count();

        let meta = lower_node_meta(&tdg, relation_count);
        let compiled = match backend {
            EvalBackend::Compiled => Some(CompiledTdg::lower(&tdg, &topo, &meta)),
            EvalBackend::Worklist => None,
        };
        let node_obs = meta.obs;
        let stash_arc = meta.stash_arc;
        let n_execs = meta.n_execs;

        let mut remaining_template = vec![0u32; n];
        for arc in tdg.arcs() {
            remaining_template[arc.dst.index()] += 1;
        }

        let delayed_arcs: Vec<u32> = tdg
            .arcs()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.delay > 0)
            .map(|(i, _)| i as u32)
            .collect();
        let baseline_nodes: Vec<NodeId> = (0..n)
            .filter(|&i| {
                remaining_template[i] == 0
                    && !matches!(
                        tdg.nodes()[i].kind,
                        NodeKind::Input { .. } | NodeKind::OutputAck { .. }
                    )
            })
            .map(NodeId)
            .collect();
        let output_ack_nodes: Vec<Option<NodeId>> = tdg.output_acks().to_vec();
        let has_output_acks = output_ack_nodes.iter().any(Option::is_some);

        // Input-independent prefix: nodes with no zero-delay path from any
        // externally set node. They compute during look-ahead, mirroring
        // the conventional model's eager run-ahead; graphs without such
        // nodes (every behaviour starts with a read) skip the look-ahead
        // entirely.
        let has_prefix = crate::compile::zero_delay_dependent(&tdg)
            .iter()
            .any(|d| !d);

        // Fast-forward eligibility: the structural conditions under which a
        // detected periodic steady state can be replayed exactly (see
        // `crate::periodic`): a compiled schedule, a single externally
        // driven input, no acknowledgment feedback, every load eventually
        // periodic in `k`, and no token-size read deeper than the history
        // horizon the demotion path reconstructs.
        let ff_load_periods = periodic::load_periods(&tdg);
        let ff_eligible = compiled.is_some()
            && tdg.inputs().len() == 1
            && !has_output_acks
            && ff_load_periods.is_some()
            && size_reads_ok;

        let n_inputs = tdg.inputs().len();
        let n_outputs = tdg.outputs().len();
        Engine {
            size_rules,
            relation_count,
            remaining_template,
            node_obs,
            stash_arc,
            n_execs,
            delayed_arcs,
            baseline_nodes,
            output_ack_nodes,
            has_output_acks,
            has_prefix,
            next_output_ack_k: vec![0; n_outputs],
            backend,
            compiled,
            ring: VecDeque::new(),
            base_k: 0,
            free: Vec::new(),
            work: VecDeque::new(),
            next_input_k: vec![0; n_inputs],
            log: LaneLog::new(record_observations, relation_count, n_inputs, n_outputs),
            record_observations,
            notifier: Notifier {
                input_events: vec![None; n_inputs],
                output_events: vec![None; n_outputs],
                pending: Vec::new(),
            },
            stats: EngineStats::default(),
            prune_counter: 0,
            fast_forward: FastForward::Off,
            ff_eligible,
            ff_load_periods,
            periodic: None,
            ff_stats_mark: EngineStats::default(),
            ff_scratch: Vec::new(),
            ff_acc_scratch: Vec::new(),
            tdg,
        }
    }

    /// The underlying graph.
    pub fn tdg(&self) -> &Tdg {
        &self.tdg
    }

    /// The evaluation backend this engine was built with.
    pub fn backend(&self) -> EvalBackend {
        self.backend
    }

    /// The lowered evaluation program, when the engine runs the compiled
    /// backend.
    pub fn compiled_tdg(&self) -> Option<&CompiledTdg> {
        self.compiled.as_ref()
    }

    /// Enables or disables periodic steady-state fast-forward with default
    /// [`PeriodicConfig`] tuning — see [`Engine::set_fast_forward_with`].
    pub fn set_fast_forward(&mut self, ff: FastForward) {
        self.set_fast_forward_with(ff, PeriodicConfig::default());
    }

    /// Enables or disables periodic steady-state fast-forward.
    ///
    /// When on (and the engine is [eligible](Engine::fast_forward_eligible)),
    /// the engine watches input offers for a periodic pattern; once the
    /// per-iteration state deltas have repeated through a confirmation
    /// window, `set_input` answers in O(1) by shifting a cached template
    /// instead of sweeping the compiled schedule — bitwise identical
    /// outputs, logs, records and statistics. An offer that breaks the
    /// pattern demotes back to the compiled sweep transparently.
    ///
    /// # Panics
    ///
    /// Panics when called after offers have started: pick the mode before
    /// driving the engine (or right after [`Engine::reset`]).
    pub fn set_fast_forward_with(&mut self, ff: FastForward, cfg: PeriodicConfig) {
        assert!(
            self.next_input_k.iter().all(|&k| k == 0),
            "set the fast-forward mode before offering inputs"
        );
        self.fast_forward = ff;
        self.periodic = match (ff, self.ff_eligible) {
            (FastForward::On, true) => Some(Box::new(PeriodicState::new(
                cfg,
                u64::from(self.tdg.max_delay()),
                self.ff_load_periods
                    .clone()
                    .expect("eligibility implies periodic loads"),
            ))),
            _ => None,
        };
    }

    /// The configured fast-forward mode.
    pub fn fast_forward(&self) -> FastForward {
        self.fast_forward
    }

    /// Whether this engine can structurally support fast-forward: compiled
    /// backend, a single input, no output-acknowledgment feedback, loads
    /// periodic in `k`, and size reads within the history horizon. Enabling
    /// fast-forward on an ineligible engine is a silent no-op.
    pub fn fast_forward_eligible(&self) -> bool {
        self.ff_eligible
    }

    /// Fast-forward statistics so far (all zero while disabled or
    /// ineligible).
    pub fn fast_forward_stats(&self) -> FastForwardStats {
        self.periodic.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Rewinds the engine to its just-constructed state while keeping every
    /// allocation: ring-buffer iteration states move to the free list, logs
    /// and statistics clear in place, and the derived graph (with all its
    /// precompiled evaluation tables) is untouched.
    ///
    /// This is the sweep-workload reuse path: one engine evaluates the same
    /// derived graph across many input traces without re-deriving the graph
    /// or reallocating per-iteration state, so per-scenario cost collapses
    /// to the `ComputeInstant()` propagation itself. After `reset` the
    /// engine behaves exactly like a freshly built one ([`EngineStats`]
    /// counters restart at zero); kernel event registrations
    /// ([`Engine::set_input_event`] / [`Engine::set_output_event`]) are
    /// cleared and must be re-registered if the engine is re-attached to a
    /// kernel.
    pub fn reset(&mut self) {
        self.release_ring();
        self.base_k = 0;
        self.work.clear();
        self.next_input_k.fill(0);
        self.next_output_ack_k.fill(0);
        self.log.clear();
        self.notifier.input_events.fill(None);
        self.notifier.output_events.fill(None);
        self.notifier.pending.clear();
        self.stats = EngineStats::default();
        self.prune_counter = 0;
        // Fast-forward: keep the knob and eligibility, restart detection.
        if let Some(pd) = &mut self.periodic {
            pd.reset();
        }
    }

    /// A snapshot of the engine's allocation footprint, for asserting
    /// steady-state stability: once warmed up, reusing the engine (more
    /// iterations, or [`Engine::reset`] plus another trace of the same
    /// length) must not grow any of these numbers.
    pub fn allocation_footprint(&self) -> AllocationFootprint {
        AllocationFootprint {
            iteration_states: self.ring.len() + self.free.len(),
            ring_capacity: self.ring.capacity(),
            free_capacity: self.free.capacity(),
            work_capacity: self.work.capacity(),
            notification_capacity: self.notifier.pending.capacity(),
            compiled_elements: self
                .compiled
                .as_ref()
                .map_or(0, CompiledTdg::buffer_elements),
            lane_state_elements: 0,
            lane_padding_elements: 0,
        }
    }

    /// Computation statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of materialized (in-flight or retained) iterations.
    pub fn iterations_in_flight(&self) -> usize {
        self.ring.len()
    }

    /// Registers the kernel event to notify when an ack instant for input
    /// `input` becomes computable.
    pub fn set_input_event(&mut self, input: usize, event: EventId) {
        self.notifier.input_events[input] = Some(event);
    }

    /// Registers the kernel event to notify when a new output instant for
    /// output `output` becomes known.
    pub fn set_output_event(&mut self, output: usize, event: EventId) {
        self.notifier.output_events[output] = Some(event);
    }

    /// Takes the notifications that must be delivered as a result of recent
    /// computation (the caller forwards them to the kernel).
    pub fn take_notifications(&mut self) -> Vec<Notification> {
        std::mem::take(&mut self.notifier.pending)
    }

    /// Records the `k`-th offer on input `input` at instant `at` with the
    /// given token size, and propagates all now-computable instants — the
    /// paper's `ComputeInstant()`.
    ///
    /// # Panics
    ///
    /// Panics if offers arrive out of iteration order for an input, or if a
    /// fast-forward extrapolation overflows `u64` ticks (use
    /// [`Engine::try_set_input`] to handle that as a typed error).
    pub fn set_input(&mut self, input: usize, k: u64, at: Time, size: u64) {
        if let Err(e) = self.try_set_input(input, k, at, size) {
            panic!("{e}");
        }
    }

    /// [`Engine::set_input`], surfacing fast-forward extrapolation overflow
    /// as [`EngineError::TimeOverflow`] instead of panicking. On error the
    /// engine state is unchanged (extrapolation is two-pass: every shifted
    /// instant is computed before any is applied), so the offer was not
    /// consumed.
    ///
    /// # Panics
    ///
    /// Panics if offers arrive out of iteration order for an input.
    pub fn try_set_input(
        &mut self,
        input: usize,
        k: u64,
        at: Time,
        size: u64,
    ) -> Result<(), EngineError> {
        assert_eq!(
            k, self.next_input_k[input],
            "input offers must arrive in iteration order"
        );
        let node = self.tdg.inputs[input];
        let NodeKind::Input { relation } = self.tdg.nodes[node.index()].kind else {
            unreachable!()
        };
        // Promoted fast-forward: answer the offer by shifting the cached
        // periodic template; an offer off the detected pattern demotes (the
        // ring is reconstructed from the template) and falls through to the
        // normal evaluation below.
        if self.periodic.as_ref().is_some_and(|p| p.is_promoted()) {
            let mut pd = self.periodic.take().expect("just checked");
            let outcome = self.ff_offer(&mut pd, k, at, size);
            self.periodic = Some(pd);
            if outcome? {
                self.next_input_k[input] = k + 1;
                return Ok(());
            }
        }
        self.next_input_k[input] = k + 1;
        // Steady-state fast path: with a compiled program, a single input,
        // and all older history complete, the iteration evaluates in one
        // levelized linear sweep with no dependency bookkeeping. Iteration
        // `k` itself may already exist as the look-ahead (its
        // input-independent prefix computed); the sweep then fills in the
        // rest.
        let tail_k = self.base_k + self.ring.len() as u64;
        let fast_ok = self.compiled.is_some()
            && self.tdg.inputs.len() == 1
            && !self.has_output_acks
            && (k == tail_k
                || (k + 1 == tail_k
                    && !self
                        .ring
                        .back()
                        .expect("tail exists")
                        .computed[node.index()]))
            && self
                .ring
                .iter()
                .take((k.saturating_sub(self.base_k)) as usize)
                .all(|it| it.nodes_pending == 0);
        if fast_ok {
            // The detector observes fast-path calls only; capture the
            // observable-state marks before the sweep while confirming.
            let capture = self.periodic.as_ref().is_some_and(|p| p.wants_capture());
            if capture {
                self.log.mark();
                self.ff_stats_mark = self.stats;
            }
            self.compute_iteration_compiled(k, node, relation.index(), at, size);
            self.ensure_lookahead();
            if self.periodic.is_some() {
                let mut pd = self.periodic.take().expect("just checked");
                self.ff_observe(&mut pd, k, at, size, capture);
                self.periodic = Some(pd);
            }
            self.maybe_prune();
            return Ok(());
        }
        // A call off the fast path breaks the observed call sequence; any
        // in-progress detection restarts from scratch.
        if let Some(pd) = &mut self.periodic {
            pd.abandon();
        }
        self.open_to(k);
        {
            let it = iter_at_mut(&mut self.ring, self.base_k, k).expect("just opened");
            it.sizes[relation.index()] = size;
            it.acc[node.index()] = MaxPlus::new(at.ticks() as i64);
        }
        self.work.push_back((k, node));
        self.drain();
        self.ensure_lookahead();
        self.maybe_prune();
        Ok(())
    }

    /// Keeps one look-ahead iteration materialized past the last complete
    /// one, mirroring the conventional model's eager run-ahead: processes
    /// execute the input-independent prefix of their next iteration before
    /// blocking on a read. The opened iteration computes exactly those
    /// prefix nodes (everything else waits for its input), so execution
    /// records match the event-driven model even at stream end.
    fn ensure_lookahead(&mut self) {
        if self.has_prefix
            && self
                .ring
                .back()
                .is_none_or(|it| it.nodes_pending == 0)
        {
            self.open_next();
        }
    }

    /// Opens iteration `k` for a fast-path sweep — fresh (one past the
    /// ring) or the partially computed look-ahead at the tail — applies the
    /// offer, and pops it out of the ring: owned access sidesteps the ring's
    /// bounds-checked `back_mut()` on every node, and older iterations keep
    /// their ring indices, so delayed reads via `iter_at` stay valid.
    fn open_tail(
        &mut self,
        k: u64,
        input_node: NodeId,
        input_relation: usize,
        at: Time,
        size: u64,
    ) -> IterState {
        if k == self.base_k + self.ring.len() as u64 {
            let state = self.take_state();
            self.ring.push_back(state);
        }
        let mut tail = self.ring.pop_back().expect("tail exists");
        tail.sizes[input_relation] = size;
        tail.acc[input_node.index()] = MaxPlus::new(at.ticks() as i64);
        tail.nodes_pending = 0;
        self.stats.iterations_completed += 1;
        tail
    }

    /// Evaluates (the remainder of) iteration `k` in one linear pass over
    /// the compiled schedule; all dependencies are guaranteed available
    /// (same-iteration sources precede their targets in the levelized
    /// order, history is complete).
    fn compute_iteration_compiled(
        &mut self,
        k: u64,
        input_node: NodeId,
        input_relation: usize,
        at: Time,
        size: u64,
    ) {
        let mut tail = self.open_tail(k, input_node, input_relation, at, size);
        // Moved out of `self` for the duration of the sweep so arc ranges
        // can be read while the ring and logs are mutated.
        let ct = self.compiled.take().expect("compiled backend gated by fast_ok");
        // The input node's value was set above — pre-mark it computed so the
        // sweep's look-ahead skip handles it without a per-node comparison.
        tail.computed[input_node.index()] = true;
        let mut nodes_local = 1u64;
        let mut arcs_local = 0u64;
        // Rolling CSR cursors; a `Slot` is built only past the look-ahead
        // skip (see `CompiledTdg::slot`).
        let mut clo = ct.const_offsets[0] as usize;
        let mut slo = ct.slow_offsets[0] as usize;
        let mut elo = ct.exec_offsets[0] as usize;
        let slots = ct
            .schedule
            .iter()
            .zip(&ct.const_offsets[1..])
            .zip(&ct.slow_offsets[1..])
            .zip(&ct.exec_offsets[1..])
            .zip(&ct.obs);
        for ((((&slot_node, &chi), &shi), &ehi), &obs) in slots {
            let node = slot_node as usize;
            let (chi, shi, ehi) = (chi as usize, shi as usize, ehi as usize);
            let (c0, s0, e0) = (clo, slo, elo);
            (clo, slo, elo) = (chi, shi, ehi);
            if tail.computed[node] {
                // Computed during look-ahead (input-independent prefix), or
                // the pre-marked input node.
                continue;
            }
            let slot = Slot {
                node,
                obs,
                consts: c0..chi,
                slows: s0..shi,
                execs: e0..ehi,
            };
            nodes_local += 1;
            arcs_local += slot.arcs();
            let record = self.record_observations;
            let acc = fold_slot(&ct, &slot, k, &self.ring, self.base_k, record, &mut tail);
            if !matches!(obs, Obs::None) {
                self.observe_tail(k, obs, acc, &mut tail);
            }
        }
        // The schedule is a permutation of all nodes, and a slot's flag is
        // read only by its own skip test, so the walk marks them all here.
        tail.computed.fill(true);
        self.stats.nodes_computed += nodes_local;
        self.stats.arcs_evaluated += arcs_local;
        self.ring.push_back(tail);
        self.compiled = Some(ct);
    }

    /// The computed acknowledgment instant (boundary exchange) of the
    /// `k`-th offer on `input`, if known yet.
    pub fn ack_instant(&self, input: usize, k: u64) -> Option<Time> {
        self.log.ack_instant(input, k)
    }

    /// Pops the next computed output of output `output`, if any:
    /// `(iteration, emission instant, token size)`.
    pub fn next_output(&mut self, output: usize) -> Option<(u64, Time, u64)> {
        self.log.outputs[output].pop_front()
    }

    /// Returns `true` when `output` requires acknowledgment feedback
    /// ([`Engine::set_output_ack`]) after each emitted token.
    pub fn needs_output_ack(&self, output: usize) -> bool {
        self.output_ack_nodes[output].is_some()
    }

    /// Records that the `k`-th token of `output` was actually consumed at
    /// instant `at`, unblocking the producer's internal successors.
    ///
    /// # Panics
    ///
    /// Panics if the output has no acknowledgment node or acknowledgments
    /// arrive out of iteration order.
    pub fn set_output_ack(&mut self, output: usize, k: u64, at: Time) {
        let node = self.output_ack_nodes[output]
            .expect("output has an acknowledgment node");
        assert_eq!(
            k, self.next_output_ack_k[output],
            "output acknowledgments must arrive in iteration order"
        );
        self.next_output_ack_k[output] = k + 1;
        self.open_to(k);
        {
            let it = iter_at_mut(&mut self.ring, self.base_k, k).expect("just opened");
            it.acc[node.index()] = MaxPlus::new(at.ticks() as i64);
        }
        self.work.push_back((k, node));
        self.drain();
        self.ensure_lookahead();
        self.maybe_prune();
    }

    /// Exchange-instant log of a relation (write instants, in iteration
    /// order) — the computed counterpart of the simulator's channel log.
    pub fn instants(&self, relation: usize) -> &[Time] {
        &self.log.instants[relation]
    }

    /// Read-instant log of a relation (differs from writes for FIFOs).
    pub fn read_instants(&self, relation: usize) -> &[Time] {
        &self.log.reads[relation]
    }

    /// Execution records replayed from computed instants (the observation
    /// over local time of paper Fig. 2(b)).
    pub fn exec_records(&self) -> &[ExecRecord] {
        &self.log.records
    }

    /// Consumes the engine, returning its execution records.
    pub fn into_exec_records(self) -> Vec<ExecRecord> {
        self.log.records
    }

    // -- internals ---------------------------------------------------------

    /// Materializes iteration states up to and including `k`.
    fn open_to(&mut self, k: u64) {
        while self.base_k + self.ring.len() as u64 <= k {
            self.open_next();
        }
    }

    /// Opens the next iteration after the current back of the ring.
    fn open_next(&mut self) {
        let k = self.base_k + self.ring.len() as u64;
        let mut state = self.take_state();
        // Nodes with no incoming arcs (other than inputs) take the
        // process-start baseline immediately.
        for idx in 0..self.baseline_nodes.len() {
            let node = self.baseline_nodes[idx];
            state.acc[node.index()] = MaxPlus::E;
            self.work.push_back((k, node));
        }
        self.ring.push_back(state);
        // Resolve arcs whose sources are history (negative iterations get
        // the process-start baseline 0; computed past nodes their value).
        for di in 0..self.delayed_arcs.len() {
            let ai = self.delayed_arcs[di] as usize;
            let arc = &self.tdg.arcs[ai];
            let delay = u64::from(arc.delay);
            let src_val = if delay > k {
                Some(MaxPlus::E)
            } else {
                iter_at(&self.ring, self.base_k, k - delay).and_then(|it| {
                    if it.computed[arc.src.index()] {
                        Some(it.acc[arc.src.index()])
                    } else {
                        None
                    }
                })
            };
            if let Some(v) = src_val {
                self.resolve_arc(k, ai, v);
            }
        }
        self.drain();
    }

    /// Applies one resolved arc contribution; queues the destination when
    /// all of its arcs are resolved.
    #[inline]
    fn resolve_arc(&mut self, k: u64, arc_idx: usize, src_val: MaxPlus) {
        let arc = &self.tdg.arcs[arc_idx];
        let dst = arc.dst;
        self.stats.arcs_evaluated += 1;
        let contribution = if src_val.is_epsilon() {
            MaxPlus::EPSILON
        } else if arc.weight.execs.is_empty() {
            // Fast path: constant lag.
            src_val.otimes(MaxPlus::new(arc.weight.constant as i64))
        } else {
            let sizes = RingLane {
                ring: &mut self.ring,
                base_k: self.base_k,
                k,
            };
            let (lag, ops) = eval_weight(&arc.weight, k, &sizes);
            if self.record_observations && self.stash_arc[arc_idx] {
                if let Obs::ExecEnd { dense, .. } = self.node_obs[dst.index()] {
                    if let Some(it) = iter_at_mut(&mut self.ring, self.base_k, k) {
                        it.exec_stash[dense as usize] = (src_val, ops);
                    }
                }
            }
            src_val.otimes(MaxPlus::new(lag as i64))
        };
        let it = iter_at_mut(&mut self.ring, self.base_k, k).expect("iteration open");
        debug_assert!(!it.computed[dst.index()], "arc resolved after compute");
        debug_assert!(it.remaining[dst.index()] > 0, "arc resolved twice");
        it.acc[dst.index()] = it.acc[dst.index()].oplus(contribution);
        it.remaining[dst.index()] -= 1;
        if it.remaining[dst.index()] == 0 {
            self.work.push_back((k, dst));
        }
    }

    /// Pops ready nodes, finalizes their values, observes them, and
    /// propagates along all outgoing arcs.
    fn drain(&mut self) {
        while let Some((j, node)) = self.work.pop_front() {
            let value = {
                let it = iter_at_mut(&mut self.ring, self.base_k, j).expect("iteration open");
                if it.computed[node.index()] {
                    continue;
                }
                it.computed[node.index()] = true;
                // Baseline ⊕ contributions: instants are never negative.
                let v = it.acc[node.index()].oplus(MaxPlus::E);
                it.acc[node.index()] = v;
                it.nodes_pending -= 1;
                if it.nodes_pending == 0 {
                    self.stats.iterations_completed += 1;
                }
                v
            };
            self.stats.nodes_computed += 1;
            self.observe(j, node, value);
            // Propagate.
            let n_out = self.tdg.outgoing[node.index()].len();
            for idx in 0..n_out {
                let ai = self.tdg.outgoing[node.index()][idx];
                let arc = &self.tdg.arcs[ai];
                let delay = u64::from(arc.delay);
                let dst = arc.dst;
                let target_k = j + delay;
                if delay == 0 {
                    self.resolve_arc(target_k, ai, value);
                } else {
                    let pending = iter_at(&self.ring, self.base_k, target_k)
                        .is_some_and(|it| !it.computed[dst.index()]);
                    if pending {
                        self.resolve_arc(target_k, ai, value);
                    }
                }
            }
        }
    }

    /// Observation side effects of a node the worklist just computed
    /// (iteration `k` lives in the ring).
    fn observe(&mut self, k: u64, node: NodeId, value: MaxPlus) {
        let mut lane = RingLane {
            ring: &mut self.ring,
            base_k: self.base_k,
            k,
        };
        let notifier = &mut self.notifier;
        let obs = self.node_obs[node.index()];
        self.log
            .observe(k, obs, value, &self.size_rules, &mut lane, |w| {
                notifier.wake(w)
            });
    }

    /// Observation side effects of a node of iteration `k`, which the
    /// compiled sweep holds outside the ring (`tail`). Kept out of line:
    /// inlined, the replay's bulk slowed the sweep loop by 6–9% on Table I
    /// example 4 and the padded Fig. 5 graphs, where most slots observe
    /// nothing.
    #[inline(never)]
    fn observe_tail(&mut self, k: u64, obs: Obs, value: MaxPlus, tail: &mut IterState) {
        let mut lane = TailLane {
            tail,
            ring: &self.ring,
            base_k: self.base_k,
            k,
        };
        let notifier = &mut self.notifier;
        self.log
            .observe(k, obs, value, &self.size_rules, &mut lane, |w| {
                notifier.wake(w)
            });
    }

    /// Frees fully computed iterations that can no longer be referenced.
    fn maybe_prune(&mut self) {
        self.prune_counter += 1;
        if self.prune_counter < 8 {
            return;
        }
        self.prune_counter = 0;
        let min_next = self
            .next_input_k
            .iter()
            .chain(
                self.next_output_ack_k
                    .iter()
                    .zip(&self.output_ack_nodes)
                    .filter(|(_, n)| n.is_some())
                    .map(|(k, _)| k),
            )
            .copied()
            .min()
            .unwrap_or(0);
        // First incomplete iteration bounds what can be referenced again.
        let mut first_incomplete = self.base_k + self.ring.len() as u64;
        for (off, it) in self.ring.iter().enumerate() {
            if it.nodes_pending > 0 {
                first_incomplete = self.base_k + off as u64;
                break;
            }
        }
        let bound = min_next.min(first_incomplete);
        let horizon = u64::from(self.tdg.max_delay);
        while let Some(front) = self.ring.front() {
            if front.nodes_pending == 0 && self.base_k + horizon < bound {
                let state = self.ring.pop_front().expect("peeked");
                self.base_k += 1;
                if self.free.len() < FREE_LIST_CAP {
                    self.free.push(state);
                }
            } else {
                break;
            }
        }
    }

    // -- periodic fast-forward ---------------------------------------------

    /// A recycled (or fresh) iteration state with the in-degree template
    /// applied.
    fn take_state(&mut self) -> IterState {
        match self.free.pop() {
            Some(mut s) => {
                s.reset(&self.remaining_template);
                s
            }
            None => IterState::fresh(&self.remaining_template, self.relation_count, self.n_execs),
        }
    }

    /// Moves every ring state to the free list, advancing `base_k` past
    /// them.
    fn release_ring(&mut self) {
        while let Some(state) = self.ring.pop_front() {
            self.base_k += 1;
            if self.free.len() < FREE_LIST_CAP {
                self.free.push(state);
            }
        }
    }

    /// Feeds a completed fast-path call to the detector; on a confirmed
    /// window, attempts promotion (arc soundness condition) and drops the
    /// ring — the template now carries everything replay needs.
    fn ff_observe(&mut self, pd: &mut PeriodicState, k: u64, at: Time, size: u64, captured: bool) {
        let emissions = captured.then(|| {
            let (now, before) = (&self.stats, &self.ff_stats_mark);
            let work = EngineStats {
                nodes_computed: now.nodes_computed - before.nodes_computed,
                arcs_evaluated: now.arcs_evaluated - before.arcs_evaluated,
                iterations_completed: now.iterations_completed - before.iterations_completed,
                ..EngineStats::default()
            };
            self.log.collect(k, &work)
        });
        let it = iter_at(&self.ring, self.base_k, k).expect("iteration just computed");
        let tail = if self.has_prefix {
            debug_assert_eq!(self.base_k + self.ring.len() as u64, k + 2);
            let t = self.ring.back().expect("look-ahead open");
            Some(TailObservation {
                computed: &t.computed,
                acc: &t.acc,
                sizes: &t.sizes,
            })
        } else {
            None
        };
        let obs = CallObservation {
            k,
            at: at.ticks(),
            size,
            acc: &it.acc,
            sizes: &it.sizes,
            tail,
            emissions,
        };
        if pd.observe_fast_call(&obs, &self.tdg) {
            // Promoted: no sweep will run until demotion, and demotion
            // reconstructs its own history; release the ring.
            self.release_ring();
        }
    }

    /// Handles an offer while promoted: `Ok(true)` replayed it, `Ok(false)`
    /// demoted (ring reconstructed; the caller re-evaluates the offer
    /// normally), `Err` means an extrapolation overflowed with no state
    /// change.
    fn ff_offer(
        &mut self,
        pd: &mut PeriodicState,
        k: u64,
        at: Time,
        size: u64,
    ) -> Result<bool, EngineError> {
        match pd.check_offer(k, at.ticks(), size) {
            Some(plan) => {
                let t = pd.template().expect("promoted");
                self.ff_replay(t, plan, k)?;
                pd.note_fast_forwarded();
                Ok(true)
            }
            None => {
                // Reconstruct before leaving promoted mode: if extrapolating
                // the history accumulators overflows, the engine must stay
                // promoted (state unchanged) rather than lose the template.
                let t = pd.template().expect("promoted");
                self.ff_reconstruct(t, k)?;
                let _ = pd.demote();
                Ok(false)
            }
        }
    }

    /// Answers the offer at iteration `k` by shifting template position
    /// `plan.pos` forward `plan.m` periods — the O(1) steady-state path.
    fn ff_replay(&mut self, t: &Template, plan: ReplayPlan, k: u64) -> Result<(), EngineError> {
        let r = &t.refs[plan.pos];
        let d = r.deltas.as_ref().expect("promoted template has deltas");
        let mut scratch = std::mem::take(&mut self.ff_scratch);
        scratch.clear();
        let extrapolated = periodic::extrapolate_emissions(r, d, plan.m, &mut scratch);
        if extrapolated.is_ok() {
            // Pass 2: apply — infallible, in the same order the captured
            // call appended (log order is part of the observable contract).
            let notifier = &mut self.notifier;
            let applied = self.log.apply(r, k, &scratch, |w| notifier.wake(w));
            debug_assert_eq!(applied, scratch.len());
            self.stats.nodes_computed += r.emissions.nodes;
            self.stats.arcs_evaluated += r.emissions.arcs;
            self.stats.iterations_completed += r.emissions.iters;
        }
        self.ff_scratch = scratch;
        extrapolated
    }

    /// Demotion: rebuild the iteration ring — `max_delay` complete history
    /// iterations plus the look-ahead tail for `k_b` — from the template
    /// (`refs[pos] + m × D`), so the compiled sweep resumes exactly where a
    /// never-promoted engine would stand. Two-pass like replay: all shifted
    /// accumulators are computed before any state changes.
    fn ff_reconstruct(&mut self, t: &Template, k_b: u64) -> Result<(), EngineError> {
        let start = k_b.saturating_sub(u64::from(self.tdg.max_delay));
        let mut scratch = std::mem::take(&mut self.ff_acc_scratch);
        scratch.clear();
        if let Err(e) = periodic::shift_history(t, start, k_b, self.has_prefix, &mut scratch) {
            self.ff_acc_scratch = scratch;
            return Err(e);
        }
        // Pass 2: rebuild the node-indexed ring.
        self.release_ring();
        self.base_k = start;
        let mut rows = scratch.chunks_exact(self.tdg.node_count());
        for j in start..k_b {
            let (pos, _) = t.locate(j);
            let mut state = self.take_state();
            let row = rows.next().expect("one shifted row per iteration");
            for (acc, &v) in state.acc.iter_mut().zip(row) {
                *acc = MaxPlus::new(v);
            }
            state.computed.fill(true);
            state.remaining.fill(0);
            state.sizes.copy_from_slice(&t.refs[pos].sizes);
            // Stashes stay clear: the sweep re-captures them and history
            // never reads them.
            state.nodes_pending = 0;
            self.ring.push_back(state);
        }
        if self.has_prefix {
            let (pos, _) = t.locate(k_b - 1);
            let tt = t.refs[pos].tail.as_ref().expect("prefix engines capture tails");
            let mut state = self.take_state();
            let row = rows.next().expect("one shifted look-ahead row");
            for ((acc, &v), &computed) in state.acc.iter_mut().zip(row).zip(&tt.computed) {
                if computed {
                    *acc = MaxPlus::new(v);
                }
            }
            state.computed.copy_from_slice(&tt.computed);
            state.nodes_pending = tt.computed.iter().filter(|&&c| !c).count();
            state.sizes.copy_from_slice(&tt.sizes);
            self.ring.push_back(state);
        }
        debug_assert!(rows.next().is_none());
        self.work.clear();
        self.prune_counter = 0;
        self.ff_acc_scratch = scratch;
        Ok(())
    }
}

// Sweep workers move engines (and the graphs inside them) across threads;
// keep that guarantee explicit so a future field cannot silently break it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<Tdg>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive_tdg;
    use evolve_model::didactic;

    fn const_params() -> didactic::Params {
        didactic::Params {
            ti1: (10, 0),
            tj1: (20, 0),
            ti2: (30, 0),
            ti3: (40, 0),
            tj3: (50, 0),
            ti4: (60, 0),
        }
    }

    fn engine() -> Engine {
        let d = didactic::chained(1, const_params()).unwrap();
        let derived = derive_tdg(&d.arch).unwrap();
        Engine::new(derived, d.arch.app().relations().len(), true)
    }

    fn engine_with(backend: EvalBackend) -> Engine {
        let d = didactic::chained(1, const_params()).unwrap();
        let derived = derive_tdg(&d.arch).unwrap();
        Engine::with_backend(derived, d.arch.app().relations().len(), true, backend)
    }

    #[test]
    fn didactic_first_iteration_matches_hand_values() {
        // Mirrors the conventional-model integration test in evolve-model.
        let mut e = engine();
        e.set_input(0, 0, Time::ZERO, 0);
        assert_eq!(e.instants(0), &[Time::from_ticks(0)]); // xM1
        assert_eq!(e.instants(1), &[Time::from_ticks(10)]); // xM2
        assert_eq!(e.instants(2), &[Time::from_ticks(30)]); // xM3
        assert_eq!(e.instants(3), &[Time::from_ticks(70)]); // xM4
        assert_eq!(e.instants(4), &[Time::from_ticks(120)]); // xM5
        assert_eq!(e.instants(5), &[Time::from_ticks(180)]); // xM6
        assert_eq!(e.next_output(0), Some((0, Time::from_ticks(180), 0)));
        assert_eq!(e.ack_instant(0, 0), Some(Time::ZERO));
    }

    #[test]
    fn didactic_second_iteration_matches_hand_values() {
        let mut e = engine();
        e.set_input(0, 0, Time::ZERO, 0);
        e.set_input(0, 1, Time::ZERO, 0);
        assert_eq!(e.instants(0)[1], Time::from_ticks(30));
        assert_eq!(e.instants(1)[1], Time::from_ticks(130));
        assert_eq!(e.instants(2)[1], Time::from_ticks(150));
        assert_eq!(e.instants(3)[1], Time::from_ticks(190));
        assert_eq!(e.instants(4)[1], Time::from_ticks(240));
        assert_eq!(e.instants(5)[1], Time::from_ticks(300));
        // Ack of u(1): xM1(1) = 30 even though the offer was at 0.
        assert_eq!(e.ack_instant(0, 1), Some(Time::from_ticks(30)));
    }

    #[test]
    fn exec_records_are_replayed() {
        let mut e = engine();
        e.set_input(0, 0, Time::ZERO, 0);
        let mut records = e.exec_records().to_vec();
        records.sort_by_key(|r| (r.start, r.function.index(), r.stmt));
        assert_eq!(records.len(), 6);
        // Ti1: 0→10 on P1.
        assert_eq!(records[0].start, Time::ZERO);
        assert_eq!(records[0].end, Time::from_ticks(10));
        assert_eq!(records[0].ops, 10);
        // Total ops = all loads.
        let total: u64 = records.iter().map(|r| r.ops).sum();
        assert_eq!(total, 10 + 20 + 30 + 40 + 50 + 60);
    }

    #[test]
    fn long_run_prunes_history() {
        let mut e = engine();
        for k in 0..10_000 {
            e.set_input(0, k, Time::from_ticks(k * 10), 0);
        }
        assert!(
            e.iterations_in_flight() < 200,
            "history pruned, {} iterations retained",
            e.iterations_in_flight()
        );
        assert_eq!(e.stats().iterations_completed, 10_000);
        assert_eq!(e.instants(5).len(), 10_000);
    }

    #[test]
    fn stats_count_work() {
        let mut e = engine();
        e.set_input(0, 0, Time::ZERO, 0);
        let s = e.stats();
        assert_eq!(s.nodes_computed, 19, "all nodes of iteration 0 computed");
        assert!(s.arcs_evaluated >= s.nodes_computed);
        assert_eq!(s.iterations_completed, 1);
    }

    #[test]
    #[should_panic(expected = "iteration order")]
    fn out_of_order_offers_rejected() {
        let mut e = engine();
        e.set_input(0, 1, Time::ZERO, 0);
    }

    #[test]
    fn default_backend_is_compiled() {
        let e = engine();
        assert_eq!(e.backend(), EvalBackend::Compiled);
        assert!(e.compiled_tdg().is_some());
        let w = engine_with(EvalBackend::Worklist);
        assert_eq!(w.backend(), EvalBackend::Worklist);
        assert!(w.compiled_tdg().is_none());
    }

    #[test]
    fn worklist_backend_matches_compiled() {
        let mut c = engine_with(EvalBackend::Compiled);
        let mut w = engine_with(EvalBackend::Worklist);
        for k in 0..5 {
            let at = Time::from_ticks(k * 17);
            c.set_input(0, k, at, k % 3);
            w.set_input(0, k, at, k % 3);
            assert_eq!(c.ack_instant(0, k), w.ack_instant(0, k));
            assert_eq!(c.next_output(0), w.next_output(0));
        }
        for r in 0..6 {
            assert_eq!(c.instants(r), w.instants(r), "relation {r}");
            assert_eq!(c.read_instants(r), w.read_instants(r), "relation {r}");
        }
        let (cs, ws) = (c.stats(), w.stats());
        assert_eq!(cs.nodes_computed, ws.nodes_computed);
        assert_eq!(cs.iterations_completed, ws.iterations_completed);
    }

    /// Drains both engines' output queues and asserts bitwise equality of
    /// every observable: outputs, acks, logs, exec records, and stats.
    fn assert_bitwise_equal(a: &mut Engine, b: &mut Engine, relations: usize, last_k: u64) {
        loop {
            match (a.next_output(0), b.next_output(0)) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y, "output stream diverged"),
            }
        }
        assert_eq!(a.ack_instant(0, last_k), b.ack_instant(0, last_k));
        for r in 0..relations {
            assert_eq!(a.instants(r), b.instants(r), "relation {r}");
            assert_eq!(a.read_instants(r), b.read_instants(r), "relation {r}");
        }
        assert_eq!(a.exec_records(), b.exec_records());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn fast_forward_promotes_and_matches_bitwise() {
        let mut ff = engine();
        assert!(ff.fast_forward_eligible());
        ff.set_fast_forward(FastForward::On);
        let mut plain = engine();
        for k in 0..200 {
            let at = Time::from_ticks(k * 40);
            ff.set_input(0, k, at, 3);
            plain.set_input(0, k, at, 3);
        }
        let s = ff.fast_forward_stats();
        assert_eq!(s.promotions, 1, "periodic trace must promote: {s:?}");
        assert_eq!(s.demotions, 0);
        assert!(s.fast_forwarded_iterations > 100, "{s:?}");
        let detected = s.detected.expect("regime recorded");
        assert_eq!(detected.period, 1);
        assert_eq!(plain.fast_forward_stats(), FastForwardStats::default());
        assert_bitwise_equal(&mut ff, &mut plain, 6, 199);
    }

    #[test]
    fn fast_forward_demotes_on_pattern_break_and_repromotes() {
        let mut ff = engine();
        ff.set_fast_forward(FastForward::On);
        let mut plain = engine();
        let mut at = 0u64;
        for k in 0..300 {
            at += if k == 150 { 9_999 } else { 40 };
            ff.set_input(0, k, Time::from_ticks(at), 0);
            plain.set_input(0, k, Time::from_ticks(at), 0);
        }
        let s = ff.fast_forward_stats();
        assert_eq!(s.demotions, 1, "{s:?}");
        assert_eq!(s.promotions, 2, "re-promoted after the break: {s:?}");
        assert_bitwise_equal(&mut ff, &mut plain, 6, 299);
    }

    #[test]
    fn fast_forward_aperiodic_trace_never_promotes() {
        let mut ff = engine();
        ff.set_fast_forward(FastForward::On);
        let mut plain = engine();
        let mut at = 0u64;
        for k in 0..100 {
            at += 11 + k * k % 37; // aperiodic inter-arrival pattern
            ff.set_input(0, k, Time::from_ticks(at), 0);
            plain.set_input(0, k, Time::from_ticks(at), 0);
        }
        let s = ff.fast_forward_stats();
        assert_eq!(s.promotions, 0, "{s:?}");
        assert_eq!(s.fast_forwarded_iterations, 0);
        assert_bitwise_equal(&mut ff, &mut plain, 6, 99);
    }

    #[test]
    fn fast_forward_overflow_is_typed_and_recoverable() {
        let mut e = engine();
        e.set_fast_forward(FastForward::On);
        let gap = u64::MAX / 100;
        let mut err = None;
        let mut k = 0;
        while k <= 100 {
            match e.try_set_input(0, k, Time::from_ticks(k * gap), 0) {
                Ok(()) => k += 1,
                Err(ov) => {
                    err = Some(ov);
                    break;
                }
            }
        }
        let err = err.expect("extrapolation near u64::MAX must overflow");
        assert!(matches!(err, crate::EngineError::TimeOverflow { .. }), "{err}");
        assert!(e.fast_forward_stats().promotions >= 1, "overflow hit on the replay path");
        // The failed offer was not consumed, and at this magnitude demotion
        // cannot reconstruct history either (accumulators would exceed the
        // MaxPlus range): the engine surfaces the same typed error and stays
        // promoted instead of corrupting state.
        let demote = e.try_set_input(0, k, Time::from_ticks((k - 1) * gap + 500), 0);
        assert!(matches!(demote, Err(crate::EngineError::TimeOverflow { .. })));
        assert_eq!(e.fast_forward_stats().demotions, 0);
    }

    #[test]
    fn fast_forward_reset_restarts_detection() {
        let mut e = engine();
        e.set_fast_forward(FastForward::On);
        for k in 0..50 {
            e.set_input(0, k, Time::from_ticks(k * 40), 0);
        }
        assert_eq!(e.fast_forward_stats().promotions, 1);
        e.reset();
        assert_eq!(e.fast_forward_stats(), FastForwardStats::default());
        let mut plain = engine();
        for k in 0..50 {
            e.set_input(0, k, Time::from_ticks(k * 40), 0);
            plain.set_input(0, k, Time::from_ticks(k * 40), 0);
        }
        assert_eq!(e.fast_forward_stats().promotions, 1, "knob survives reset");
        assert_bitwise_equal(&mut e, &mut plain, 6, 49);
    }

    #[test]
    fn footprint_reports_compiled_buffers() {
        let c = engine_with(EvalBackend::Compiled);
        let w = engine_with(EvalBackend::Worklist);
        assert!(c.allocation_footprint().compiled_elements > 0);
        assert_eq!(w.allocation_footprint().compiled_elements, 0);
    }
}
