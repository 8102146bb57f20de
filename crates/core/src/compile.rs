//! Compile-time lowering of a derived TDG into a flat evaluation program.
//!
//! The paper's Fig. 5 shows `ComputeInstant()` cost growing with graph size
//! until the dynamic computation method stops paying past ~1000 nodes. The
//! worklist engine reproduces that ceiling faithfully: every node costs a
//! queue pop, an in-degree decrement, and a walk over nested-`Vec`
//! adjacency. For a *static* graph all of that bookkeeping is knowable at
//! build time — so this module compiles it away.
//!
//! [`CompiledTdg`] is the lowered form of a
//! [`DerivedTdg`](crate::DerivedTdg):
//!
//! * a **levelized schedule** — node ids in topological order of the
//!   zero-delay subgraph, grouped by longest-path depth
//!   ([`level_count`](CompiledTdg::level_count) levels; every node's
//!   same-iteration dependencies sit in strictly earlier levels);
//! * incoming arcs flattened into **CSR** (one contiguous source/weight
//!   slice per stream plus per-node offset ranges), partitioned into three
//!   streams by what varies: same-iteration constant arcs (the branch-light
//!   common case — `acc ⊕= x_src(k) ⊗ w` over a contiguous range), delayed
//!   constant arcs, and data-dependent exec arcs. The first two are pure
//!   *structure* — identical for every scenario of the model, with lags
//!   pre-lifted into the semiring — while exec arcs carry the per-scenario
//!   duration tables evaluated with each trace's token sizes. That
//!   structure/weight separation is what lets the batched engine
//!   ([`BatchedEngine`](crate::BatchedEngine)) fetch arc metadata once per
//!   arc and fold many scenario lanes under it;
//! * per-node metadata (observation action, acknowledgment/notification
//!   target, dense exec-stash slot) packed into a flat SoA instruction
//!   stream aligned with the schedule.
//!
//! [`Engine`](crate::Engine) evaluates one iteration of the compiled
//! program as a single linear sweep (`max`-fold over arc ranges instead of
//! worklist pops); the original worklist path remains available as the
//! reference backend behind [`EvalBackend`], and the randomized conformance
//! suite (`tests/backend_conformance.rs`) pins the two bitwise-equal.

use std::ops::Range;

use evolve_maxplus::MaxPlus;
use evolve_model::{FunctionId, ResourceId};

use crate::tdg::{NodeId, NodeKind, Tdg, Weight};

/// Which evaluation strategy an [`Engine`](crate::Engine) uses for
/// `ComputeInstant()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvalBackend {
    /// Dependency-counting worklist propagation — the reference
    /// implementation, driven purely by arc resolution and therefore able
    /// to interleave partially known iterations in any order.
    Worklist,
    /// Levelized CSR sweep over a [`CompiledTdg`] lowered at engine-build
    /// time. Iterations whose history is complete evaluate as one linear
    /// pass; situations the sweep cannot express (multiple external inputs,
    /// acknowledged outputs, incomplete older iterations) fall back to the
    /// worklist within the same engine.
    #[default]
    Compiled,
}

impl EvalBackend {
    /// Stable lower-case name, used as the report/JSON tag.
    pub fn as_str(self) -> &'static str {
        match self {
            EvalBackend::Worklist => "worklist",
            EvalBackend::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for EvalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Precompiled observation action of a node (what [`Engine::observe`]
/// dispatches on — shared by both backends).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Obs {
    None,
    Exchange {
        relation: u32,
        /// Input index acknowledged by this node, or `u32::MAX`.
        ack_input: u32,
        /// Output index produced by this node, or `u32::MAX`.
        output: u32,
        /// Whether the relation has a separate FIFO read node.
        has_fifo_read: bool,
    },
    FifoRead {
        relation: u32,
    },
    ExecEnd {
        function: FunctionId,
        stmt: u32,
        resource: ResourceId,
        dense: u32,
    },
}

/// Per-node evaluation metadata, lowered once per engine and shared by both
/// backends.
pub(crate) struct NodeMeta {
    /// Observation action per node.
    pub(crate) obs: Vec<Obs>,
    /// Arcs whose resolution stashes exec info (duration arc S → E).
    pub(crate) stash_arc: Vec<bool>,
    /// Number of `ExecEnd` nodes (width of the dense exec stash).
    pub(crate) n_execs: usize,
}

/// Lowers the per-node observation actions and stash-arc table of a graph.
pub(crate) fn lower_node_meta(tdg: &Tdg, relation_count: usize) -> NodeMeta {
    let n = tdg.node_count();
    let ack_nodes: Vec<NodeId> = tdg
        .inputs()
        .iter()
        .map(|&u| {
            let NodeKind::Input { relation } = tdg.nodes()[u.index()].kind else {
                unreachable!("inputs() only lists input nodes");
            };
            // Hand-built graphs without a boundary exchange acknowledge
            // at the offer instant itself.
            tdg.exchange_node(relation).unwrap_or(u)
        })
        .collect();
    let mut has_fifo_read = vec![false; relation_count];
    for node in tdg.nodes() {
        if let NodeKind::FifoRead { relation } = node.kind {
            has_fifo_read[relation.index()] = true;
        }
    }

    // Dense exec indices and observation actions.
    let mut n_execs = 0usize;
    let mut exec_dense = vec![u32::MAX; n];
    for (i, node) in tdg.nodes().iter().enumerate() {
        if matches!(node.kind, NodeKind::ExecEnd { .. }) {
            exec_dense[i] = n_execs as u32;
            n_execs += 1;
        }
    }
    let obs: Vec<Obs> = tdg
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| match node.kind {
            NodeKind::Exchange { relation } | NodeKind::Output { relation } => {
                let ack_input = ack_nodes
                    .iter()
                    .position(|a| a.index() == i)
                    .map_or(u32::MAX, |p| p as u32);
                let output = tdg
                    .outputs()
                    .iter()
                    .position(|o| o.index() == i)
                    .map_or(u32::MAX, |p| p as u32);
                Obs::Exchange {
                    relation: relation.index() as u32,
                    ack_input,
                    output,
                    has_fifo_read: has_fifo_read[relation.index()],
                }
            }
            NodeKind::FifoRead { relation } => Obs::FifoRead {
                relation: relation.index() as u32,
            },
            NodeKind::ExecEnd {
                function,
                stmt,
                resource,
            } => Obs::ExecEnd {
                function,
                stmt: stmt as u32,
                resource,
                dense: exec_dense[i],
            },
            _ => Obs::None,
        })
        .collect();

    // Duration arcs S → E with exec terms stash observation data.
    let stash_arc: Vec<bool> = tdg
        .arcs()
        .iter()
        .map(|arc| {
            !arc.weight.execs.is_empty()
                && matches!(tdg.nodes()[arc.dst.index()].kind, NodeKind::ExecEnd { .. })
                && matches!(tdg.nodes()[arc.src.index()].kind, NodeKind::ExecStart { .. })
        })
        .collect();

    NodeMeta {
        obs,
        stash_arc,
        n_execs,
    }
}

/// One data-dependent arc of the compiled program: the weight to evaluate
/// per iteration plus the dense exec-stash slot its resolution fills.
#[derive(Clone, Debug)]
pub(crate) struct ExecArc {
    /// The arc's weight (constant lag plus execution-duration terms).
    pub(crate) weight: Weight,
    /// Dense `ExecEnd` index whose stash captures `(start, ops)` for
    /// observation replay, or `u32::MAX` when the arc is not a duration arc.
    pub(crate) stash_dense: u32,
}

/// A derived TDG lowered into a levelized, CSR-flattened evaluation program
/// (see the [module docs](self)).
///
/// All buffers are immutable after lowering — [`Engine::reset`]
/// (crate::Engine::reset) and steady-state evaluation never touch them, so
/// their capacity contributes a constant term to
/// [`AllocationFootprint`](crate::AllocationFootprint).
#[derive(Clone, Debug)]
pub struct CompiledTdg {
    /// Evaluation schedule: node ids, topologically ordered by zero-delay
    /// level (stable within a level).
    pub(crate) schedule: Vec<u32>,
    /// Number of zero-delay levels (schedule depth).
    pub(crate) levels: usize,
    /// SoA instruction stream: observation action per schedule slot.
    pub(crate) obs: Vec<Obs>,
    /// CSR offsets (per slot, length `slots + 1`) into the same-iteration
    /// constant-arc stream — the branch-light common case.
    pub(crate) const_offsets: Vec<u32>,
    /// Source node per constant arc.
    pub(crate) const_srcs: Vec<u32>,
    /// Constant lag per constant arc (`⊗`-applied to the source instant),
    /// pre-lifted into the semiring so the sweep skips per-arc conversion.
    pub(crate) const_lags: Vec<MaxPlus>,
    /// CSR offsets (per slot) into the slow-arc stream: delayed arcs with
    /// constant weights — still pure structure, shared across scenario
    /// lanes, just read through the history ring.
    pub(crate) slow_offsets: Vec<u32>,
    /// Source node per slow arc.
    pub(crate) slow_srcs: Vec<u32>,
    /// Iteration delay per slow arc (always ≥ 1).
    pub(crate) slow_delays: Vec<u32>,
    /// Constant lag per slow arc, pre-lifted into the semiring.
    pub(crate) slow_lags: Vec<MaxPlus>,
    /// CSR offsets (per slot) into the exec-arc stream: arcs whose weight
    /// is data-dependent and must be evaluated per iteration (and, when
    /// batched, per lane) with the feeding token sizes.
    pub(crate) exec_offsets: Vec<u32>,
    /// Source node per exec arc.
    pub(crate) exec_srcs: Vec<u32>,
    /// Iteration delay per exec arc.
    pub(crate) exec_delays: Vec<u32>,
    /// Weight table aligned with the exec stream (`exec_arcs[i]` belongs to
    /// the arc at stream position `i`).
    pub(crate) exec_arcs: Vec<ExecArc>,
    /// Schedule slot of each node (`pos_of_node[schedule[s]] == s`): the
    /// inverse permutation of the schedule. Lane state indexed by *slot*
    /// instead of node id makes consecutive schedule writes land in
    /// consecutive rows — the destination-contiguous retiling the batched
    /// sweep's chunked kernels fold over.
    pub(crate) pos_of_node: Vec<u32>,
    /// Constant-arc sources translated to schedule slots (aligned with
    /// `const_srcs`). Zero-delay sources sit in strictly earlier levels, so
    /// `const_src_pos[i]` is always strictly below the destination slot —
    /// which is what lets the batched sweep split its accumulator at the
    /// destination row and fold sources from the prefix in one pass.
    pub(crate) const_src_pos: Vec<u32>,
    /// Slow-arc sources translated to schedule slots (aligned with
    /// `slow_srcs`); read through the history ring, any slot order.
    pub(crate) slow_src_pos: Vec<u32>,
    /// Exec-arc sources translated to schedule slots (aligned with
    /// `exec_srcs`); zero-delay exec sources are also strictly below their
    /// destination slot.
    pub(crate) exec_src_pos: Vec<u32>,
    /// Per-slot fusability for the blocked traversal: `true` when the slot
    /// is constant-arcs-only (at least one, no slow/exec arcs) and carries
    /// no observation action, so a run of such slots folds as one
    /// destination-contiguous block with no per-slot dispatch.
    pub(crate) simple_slots: Vec<bool>,
}

/// One block of the level-blocked traversal produced by
/// [`CompiledTdg::plan_segments`]: a contiguous, non-skipped slot range
/// `start..end` of the schedule. `fused` blocks contain only
/// [`simple`](CompiledTdg::simple_slots) slots and are walked by the
/// chunked const-fold kernels alone; general blocks take the full per-slot
/// path (slow/exec arcs, observations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SweepSegment {
    /// First schedule slot of the block (inclusive).
    pub(crate) start: u32,
    /// One past the last schedule slot of the block.
    pub(crate) end: u32,
    /// Whether every slot in the block is constant-only and unobserved.
    pub(crate) fused: bool,
}

/// One schedule slot: its node, observation action, and the ranges of its
/// incoming arcs in the const, slow and exec streams.
#[derive(Clone, Debug)]
pub(crate) struct Slot {
    pub(crate) node: usize,
    pub(crate) obs: Obs,
    pub(crate) consts: Range<usize>,
    pub(crate) slows: Range<usize>,
    pub(crate) execs: Range<usize>,
}

impl Slot {
    /// Incoming arcs of the slot's node, all streams (plain subtraction:
    /// the ranges are well-formed, and `Range::len`'s check showed in the
    /// sweep).
    pub(crate) fn arcs(&self) -> u64 {
        let len = |r: &Range<usize>| r.end - r.start;
        (len(&self.consts) + len(&self.slows) + len(&self.execs)) as u64
    }
}

impl CompiledTdg {
    /// Lowers a graph given its cached topological order and node metadata.
    pub(crate) fn lower(tdg: &Tdg, topo: &[NodeId], meta: &NodeMeta) -> CompiledTdg {
        let n = tdg.node_count();
        let levels = tdg.zero_delay_levels(topo);

        // The FIFO Kahn order out of `Tdg::topo_order` is already
        // level-monotone (the queue holds nodes in non-decreasing level
        // order); the stable sort is then the identity, and a guarantee
        // against future order providers that are not.
        let mut schedule: Vec<u32> = topo.iter().map(|&nd| nd.index() as u32).collect();
        schedule.sort_by_key(|&i| levels[i as usize]);

        let level_count = schedule
            .last()
            .map_or(0, |&i| levels[i as usize] as usize + 1);

        let mut obs = Vec::with_capacity(n);
        let mut const_offsets = Vec::with_capacity(n + 1);
        let mut const_srcs = Vec::new();
        let mut const_lags = Vec::new();
        let mut slow_offsets = Vec::with_capacity(n + 1);
        let mut slow_srcs = Vec::new();
        let mut slow_delays = Vec::new();
        let mut slow_lags = Vec::new();
        let mut exec_offsets = Vec::with_capacity(n + 1);
        let mut exec_srcs = Vec::new();
        let mut exec_delays = Vec::new();
        let mut exec_arcs = Vec::new();
        const_offsets.push(0u32);
        slow_offsets.push(0u32);
        exec_offsets.push(0u32);
        for &slot_node in &schedule {
            let node = slot_node as usize;
            obs.push(meta.obs[node]);
            for &ai in &tdg.incoming[node] {
                let arc = &tdg.arcs[ai];
                if !arc.weight.execs.is_empty() {
                    exec_srcs.push(arc.src.index() as u32);
                    exec_delays.push(arc.delay);
                    let stash_dense = if meta.stash_arc[ai] {
                        match meta.obs[node] {
                            Obs::ExecEnd { dense, .. } => dense,
                            _ => u32::MAX,
                        }
                    } else {
                        u32::MAX
                    };
                    exec_arcs.push(ExecArc {
                        weight: arc.weight.clone(),
                        stash_dense,
                    });
                } else if arc.delay == 0 {
                    const_srcs.push(arc.src.index() as u32);
                    const_lags.push(MaxPlus::new(arc.weight.constant as i64));
                } else {
                    slow_srcs.push(arc.src.index() as u32);
                    slow_delays.push(arc.delay);
                    slow_lags.push(MaxPlus::new(arc.weight.constant as i64));
                }
            }
            const_offsets.push(const_srcs.len() as u32);
            slow_offsets.push(slow_srcs.len() as u32);
            exec_offsets.push(exec_srcs.len() as u32);
        }

        // Retiling: the inverse schedule permutation plus src streams
        // re-expressed in schedule slots, so slot-indexed lane state can be
        // walked destination-contiguously.
        let mut pos_of_node = vec![0u32; n];
        for (slot, &node) in schedule.iter().enumerate() {
            pos_of_node[node as usize] = slot as u32;
        }
        let const_src_pos: Vec<u32> = const_srcs.iter().map(|&s| pos_of_node[s as usize]).collect();
        let slow_src_pos: Vec<u32> = slow_srcs.iter().map(|&s| pos_of_node[s as usize]).collect();
        let exec_src_pos: Vec<u32> = exec_srcs.iter().map(|&s| pos_of_node[s as usize]).collect();
        let simple_slots: Vec<bool> = (0..schedule.len())
            .map(|slot| {
                matches!(obs[slot], Obs::None)
                    && const_offsets[slot + 1] > const_offsets[slot]
                    && slow_offsets[slot + 1] == slow_offsets[slot]
                    && exec_offsets[slot + 1] == exec_offsets[slot]
            })
            .collect();

        CompiledTdg {
            schedule,
            levels: level_count,
            obs,
            const_offsets,
            const_srcs,
            const_lags,
            slow_offsets,
            slow_srcs,
            slow_delays,
            slow_lags,
            exec_offsets,
            exec_srcs,
            exec_delays,
            exec_arcs,
            pos_of_node,
            const_src_pos,
            slow_src_pos,
            exec_src_pos,
            simple_slots,
        }
    }

    /// Plans the level-blocked traversal for one sweep variant: partitions
    /// the non-skipped schedule slots into maximal contiguous
    /// [`SweepSegment`]s of uniform kind, capping `fused` blocks at
    /// `max_fused` slots so each block's destination rows stay
    /// cache-resident. Because every zero-delay arc crosses a level
    /// boundary forward and blocks are walked in schedule (level) order,
    /// fusing across level boundaries preserves the level-by-level
    /// dataflow exactly.
    ///
    /// `skip[slot]` removes a slot from the plan (the externally driven
    /// input slot; the already-evaluated look-ahead prefix in steady
    /// state).
    pub(crate) fn plan_segments(&self, skip: &[bool], max_fused: usize) -> Vec<SweepSegment> {
        debug_assert_eq!(skip.len(), self.schedule.len());
        let max_fused = max_fused.max(1);
        let n = self.schedule.len();
        let mut segments = Vec::new();
        let mut slot = 0usize;
        while slot < n {
            if skip[slot] {
                slot += 1;
                continue;
            }
            let fused = self.simple_slots[slot];
            let mut end = slot + 1;
            while end < n
                && !skip[end]
                && self.simple_slots[end] == fused
                && (!fused || end - slot < max_fused)
            {
                end += 1;
            }
            segments.push(SweepSegment {
                start: slot as u32,
                end: end as u32,
                fused,
            });
            slot = end;
        }
        segments
    }

    /// Schedule slot `slot`, for the cold paths. The scalar sweep walks the
    /// schedule with rolling CSR cursors instead and builds a [`Slot`] only
    /// past its look-ahead skip test: building one per slot up front cost
    /// 5–10% per iteration on Table I example 4.
    pub(crate) fn slot(&self, slot: usize) -> Slot {
        let range = |offsets: &[u32]| offsets[slot] as usize..offsets[slot + 1] as usize;
        Slot {
            node: self.schedule[slot] as usize,
            obs: self.obs[slot],
            consts: range(&self.const_offsets),
            slows: range(&self.slow_offsets),
            execs: range(&self.exec_offsets),
        }
    }

    /// Number of scheduled nodes.
    pub fn node_count(&self) -> usize {
        self.schedule.len()
    }

    /// Number of zero-delay levels (schedule depth).
    pub fn level_count(&self) -> usize {
        self.levels
    }

    /// Same-iteration constant arcs in the fast CSR stream.
    pub fn const_arc_count(&self) -> usize {
        self.const_srcs.len()
    }

    /// Delayed constant arcs in the slow CSR stream.
    pub fn slow_arc_count(&self) -> usize {
        self.slow_srcs.len()
    }

    /// Data-dependent arcs in the exec CSR stream.
    pub fn exec_arc_count(&self) -> usize {
        self.exec_srcs.len()
    }

    /// Total element capacity across the compiled buffers — the term the
    /// lowering adds to [`AllocationFootprint`](crate::AllocationFootprint).
    /// Constant after lowering: evaluation and engine reset never touch the
    /// compiled program.
    pub fn buffer_elements(&self) -> usize {
        self.schedule.capacity()
            + self.obs.capacity()
            + self.const_offsets.capacity()
            + self.const_srcs.capacity()
            + self.const_lags.capacity()
            + self.slow_offsets.capacity()
            + self.slow_srcs.capacity()
            + self.slow_delays.capacity()
            + self.slow_lags.capacity()
            + self.exec_offsets.capacity()
            + self.exec_srcs.capacity()
            + self.exec_delays.capacity()
            + self.exec_arcs.capacity()
            + self.pos_of_node.capacity()
            + self.const_src_pos.capacity()
            + self.slow_src_pos.capacity()
            + self.exec_src_pos.capacity()
            + self.simple_slots.capacity()
    }
}

/// Marks the nodes reachable from an `Input` or `OutputAck` node through
/// zero-delay arcs only — the nodes whose value for iteration `k` can
/// depend on the external offer at `k`. The complement (the *prefix*) is
/// resolvable from history alone, which is what look-ahead evaluation and
/// the batched engine's prefix pass exploit.
pub(crate) fn zero_delay_dependent(tdg: &Tdg) -> Vec<bool> {
    let n = tdg.node_count();
    let mut dependent = vec![false; n];
    let mut queue: std::collections::VecDeque<usize> = (0..n)
        .filter(|&i| {
            matches!(
                tdg.nodes()[i].kind,
                NodeKind::Input { .. } | NodeKind::OutputAck { .. }
            )
        })
        .collect();
    for &i in &queue {
        dependent[i] = true;
    }
    while let Some(u) = queue.pop_front() {
        for &ai in &tdg.outgoing[u] {
            let arc = &tdg.arcs[ai];
            if arc.delay == 0 && !dependent[arc.dst.index()] {
                dependent[arc.dst.index()] = true;
                queue.push_back(arc.dst.index());
            }
        }
    }
    dependent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{derive_tdg, synthetic};

    fn lowered(stages: usize, padding: usize) -> (crate::DerivedTdg, CompiledTdg) {
        let p = synthetic::pipeline(stages, 50, 1).unwrap();
        let mut derived = derive_tdg(&p.arch).unwrap();
        if padding > 0 {
            derived.map_tdg(|t| synthetic::pad(t, padding));
        }
        let meta = lower_node_meta(derived.tdg(), p.arch.app().relations().len());
        let compiled = CompiledTdg::lower(derived.tdg(), derived.topo_order(), &meta);
        (derived, compiled)
    }

    #[test]
    fn schedule_is_a_level_monotone_permutation() {
        let (derived, c) = lowered(4, 32);
        let tdg = derived.tdg();
        assert_eq!(c.node_count(), tdg.node_count());
        let mut seen = vec![false; tdg.node_count()];
        for &s in &c.schedule {
            assert!(!seen[s as usize], "node scheduled twice");
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Slots are grouped by non-decreasing level, and every zero-delay
        // arc crosses a level boundary forward.
        let levels = tdg.zero_delay_levels(derived.topo_order());
        let slot_levels: Vec<u32> = c.schedule.iter().map(|&s| levels[s as usize]).collect();
        assert!(slot_levels.windows(2).all(|w| w[0] <= w[1]));
        for arc in tdg.arcs() {
            if arc.delay == 0 {
                assert!(levels[arc.src.index()] < levels[arc.dst.index()]);
            }
        }
        // The level count spans every slot's level, and no level is empty.
        assert_eq!(c.level_count(), *slot_levels.last().unwrap() as usize + 1);
        assert_eq!(slot_levels[0], 0);
        assert!(slot_levels.windows(2).all(|w| w[1] <= w[0] + 1));
    }

    #[test]
    fn csr_streams_partition_the_arcs() {
        let (derived, c) = lowered(6, 100);
        let tdg = derived.tdg();
        assert_eq!(
            c.const_arc_count() + c.slow_arc_count() + c.exec_arc_count(),
            tdg.arc_count()
        );
        // Constant stream holds exactly the same-iteration constant arcs.
        let expected_const = tdg
            .arcs()
            .iter()
            .filter(|a| a.delay == 0 && a.weight.execs.is_empty())
            .count();
        assert_eq!(c.const_arc_count(), expected_const);
        // Slow arcs are the delayed constant ones — structure shared across
        // lanes, never data-dependent.
        assert!(c.slow_delays.iter().all(|&d| d >= 1));
        assert_eq!(
            c.slow_arc_count(),
            tdg.arcs()
                .iter()
                .filter(|a| a.delay >= 1 && a.weight.execs.is_empty())
                .count()
        );
        // The exec stream carries exactly the data-dependent arcs, with the
        // weight table aligned position-for-position.
        assert_eq!(
            c.exec_arc_count(),
            tdg.arcs().iter().filter(|a| !a.weight.execs.is_empty()).count()
        );
        assert_eq!(c.exec_arcs.len(), c.exec_arc_count());
        assert!(c
            .exec_arcs
            .iter()
            .all(|ea| !ea.weight.execs.is_empty()));
        assert!(c.buffer_elements() > 0);
    }

    #[test]
    fn padding_chain_extends_the_levels() {
        let (_, plain) = lowered(3, 0);
        let (_, padded) = lowered(3, 50);
        // The padding chain hangs off the input, one node per level.
        assert!(padded.level_count() >= plain.level_count());
        assert!(padded.level_count() >= 50);
        assert_eq!(padded.node_count(), plain.node_count() + 50);
    }

    #[test]
    fn retiled_streams_point_at_earlier_slots() {
        let (derived, c) = lowered(4, 64);
        let tdg = derived.tdg();
        // The inverse permutation really inverts the schedule.
        for (slot, &node) in c.schedule.iter().enumerate() {
            assert_eq!(c.pos_of_node[node as usize] as usize, slot);
        }
        // Position streams name the same sources as the node-id streams,
        // and same-iteration sources sit strictly before their destination
        // slot (what the split-at-destination fold relies on).
        for slot in 0..c.node_count() {
            for i in c.const_offsets[slot] as usize..c.const_offsets[slot + 1] as usize {
                assert_eq!(c.schedule[c.const_src_pos[i] as usize], c.const_srcs[i]);
                assert!((c.const_src_pos[i] as usize) < slot);
            }
            for i in c.slow_offsets[slot] as usize..c.slow_offsets[slot + 1] as usize {
                assert_eq!(c.schedule[c.slow_src_pos[i] as usize], c.slow_srcs[i]);
            }
            for i in c.exec_offsets[slot] as usize..c.exec_offsets[slot + 1] as usize {
                assert_eq!(c.schedule[c.exec_src_pos[i] as usize], c.exec_srcs[i]);
                if c.exec_delays[i] == 0 {
                    assert!((c.exec_src_pos[i] as usize) < slot);
                }
            }
        }
        // Simple slots are exactly the unobserved const-only ones; the
        // padding chain makes them the majority here.
        let simple = c.simple_slots.iter().filter(|&&s| s).count();
        assert!(simple >= 64, "padding chain should be fusable");
        let _ = tdg;
    }

    #[test]
    fn segments_cover_unskipped_slots_in_order() {
        let (_, c) = lowered(3, 50);
        let n = c.node_count();
        let mut skip = vec![false; n];
        skip[0] = true; // pretend slot 0 is the driven input
        skip[n / 2] = true;
        let segs = c.plan_segments(&skip, 16);
        // Coverage: every unskipped slot appears exactly once, in order.
        let mut covered = vec![false; n];
        let mut last_end = 0u32;
        for seg in &segs {
            assert!(seg.start >= last_end);
            assert!(seg.start < seg.end);
            last_end = seg.end;
            for s in seg.start..seg.end {
                assert!(!skip[s as usize]);
                assert!(!covered[s as usize]);
                covered[s as usize] = true;
                assert_eq!(c.simple_slots[s as usize], seg.fused);
            }
            if seg.fused {
                assert!((seg.end - seg.start) as usize <= 16);
            }
        }
        for s in 0..n {
            assert_eq!(covered[s], !skip[s], "slot {s}");
        }
        // The padding chain fuses: with a generous cap there is a block of
        // at least 32 consecutive simple slots.
        let segs_wide = c.plan_segments(&vec![false; n], usize::MAX);
        assert!(segs_wide
            .iter()
            .any(|seg| seg.fused && seg.end - seg.start >= 32));
    }

    #[test]
    fn backend_tags_are_stable() {
        assert_eq!(EvalBackend::default(), EvalBackend::Compiled);
        assert_eq!(EvalBackend::Compiled.as_str(), "compiled");
        assert_eq!(EvalBackend::Worklist.to_string(), "worklist");
    }
}
