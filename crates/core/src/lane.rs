//! What one scenario lane can observe, and the per-lane primitives every
//! sweep shares.
//!
//! The scalar [`Engine`](crate::Engine) holds one [`LaneLog`]; the
//! [`BatchedEngine`](crate::BatchedEngine) holds one per lane. All three
//! evaluation paths — the worklist, the scalar compiled sweep and the
//! batched lockstep sweep — evaluate exec weights through
//! [`eval_weight`] and replay a computed node's observation action through
//! [`LaneLog::observe`]; periodic fast-forward diffs a call's emissions with
//! [`LaneLog::mark`]/[`LaneLog::collect`] and replays them with
//! [`LaneLog::apply`]. The engines differ only in where a lane's token sizes
//! and exec stashes live (node-indexed iteration states vs lane-strided
//! blocks), which they describe through [`LaneState`].

use std::collections::VecDeque;

use evolve_des::Time;
use evolve_maxplus::MaxPlus;
use evolve_model::{ExecRecord, LoadContext};

use crate::compile::Obs;
use crate::derive::SizeRule;
use crate::engine::EngineStats;
use crate::periodic::{CallEmissions, ExecEmission, OutputEmission, PosTemplate};
use crate::tdg::Weight;

/// The parts of one lane's iteration `k` (and its history) that weight
/// evaluation and observation read and write.
pub(crate) trait LaneState {
    /// Token size of relation `rel` at iteration `k − delay` (`delay ≤ k`).
    fn size(&self, rel: usize, delay: u32) -> u64;
    /// Sets the token size of relation `rel` at iteration `k`.
    fn set_size(&mut self, rel: usize, size: u64);
    /// `(start, ops)` stashed for dense exec-end index `dense` at `k`.
    fn stash(&self, dense: usize) -> (MaxPlus, u64);
}

/// Evaluates a weight at iteration `k`: total lag in ticks plus the raw
/// operation count (for observation). Sizes read before iteration 0 are 0.
#[inline]
pub(crate) fn eval_weight(weight: &Weight, k: u64, sizes: &impl LaneState) -> (u64, u64) {
    let mut lag = weight.constant;
    let mut ops_total = 0u64;
    for term in &weight.execs {
        let size = match term.size_from {
            Some((rel, delay)) if u64::from(delay) <= k => sizes.size(rel.index(), delay),
            _ => 0,
        };
        let ops = term.load.ops(LoadContext {
            function: term.function.index(),
            stmt: term.stmt,
            k,
            size,
        });
        ops_total += ops;
        lag += evolve_model::duration_for(ops, term.speed).ticks();
    }
    (lag, ops_total)
}

/// A kernel wake-up an emission asks for. The scalar engine turns these
/// into [`Notification`](crate::Notification)s; batches have no kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wake {
    /// Input `.0` has a new acknowledgment instant.
    Ack(u32),
    /// Output `.0` produced a token at instant `.1`.
    Output(u32, Time),
}

#[inline]
fn instant(v: MaxPlus) -> Time {
    Time::from_ticks(v.finite().unwrap_or(0).max(0) as u64)
}

/// Log lengths taken before a fast-forward capture call.
#[derive(Debug, Default)]
struct Marks {
    instants: Vec<usize>,
    reads: Vec<usize>,
    outputs: Vec<usize>,
    records: usize,
    ack: Option<(u64, Time)>,
}

/// Everything one lane can observe: exchange and read instant logs per
/// relation, execution records, ready outputs and input acknowledgments.
#[derive(Debug)]
pub(crate) struct LaneLog {
    /// Whether the instant logs and execution records are kept.
    record: bool,
    /// Exchange-instant log per relation (write instants).
    pub(crate) instants: Vec<Vec<Time>>,
    /// Read-instant log per relation (differs from writes only for FIFOs).
    pub(crate) reads: Vec<Vec<Time>>,
    pub(crate) records: Vec<ExecRecord>,
    /// Computed outputs per output index (iteration, instant, token size).
    pub(crate) outputs: Vec<VecDeque<(u64, Time, u64)>>,
    /// Most recent acknowledgment instant per input: `(k, instant)`.
    pub(crate) acks: Vec<Option<(u64, Time)>>,
    marks: Marks,
}

impl LaneLog {
    pub(crate) fn new(record: bool, relations: usize, inputs: usize, outputs: usize) -> Self {
        LaneLog {
            record,
            instants: vec![Vec::new(); relations],
            reads: vec![Vec::new(); relations],
            records: Vec::new(),
            outputs: vec![VecDeque::new(); outputs],
            acks: vec![None; inputs],
            marks: Marks::default(),
        }
    }

    /// Empties every log, keeping allocations.
    pub(crate) fn clear(&mut self) {
        self.instants.iter_mut().for_each(Vec::clear);
        self.reads.iter_mut().for_each(Vec::clear);
        self.records.clear();
        self.outputs.iter_mut().for_each(VecDeque::clear);
        self.acks.fill(None);
    }

    /// The acknowledgment instant of the `k`-th offer on `input`, if known.
    pub(crate) fn ack_instant(&self, input: usize, k: u64) -> Option<Time> {
        match self.acks[input] {
            Some((stored_k, t)) if stored_k == k => Some(t),
            _ => None,
        }
    }

    /// Observation side effects of a node of iteration `k` computed to
    /// `value`: derives the token size of an exchanged relation, logs
    /// instants, acknowledges inputs, queues outputs and replays execution
    /// records, calling `wake` for each acknowledgment and output.
    #[inline]
    pub(crate) fn observe(
        &mut self,
        k: u64,
        obs: Obs,
        value: MaxPlus,
        size_rules: &[SizeRule],
        lane: &mut impl LaneState,
        mut wake: impl FnMut(Wake),
    ) {
        match obs {
            Obs::None => {}
            Obs::Exchange {
                relation,
                ack_input,
                output,
                has_fifo_read,
            } => {
                let relation = relation as usize;
                let time = instant(value);
                if let SizeRule::Derived { from, model } = size_rules[relation] {
                    let input_size = match from {
                        Some((rel, delay)) if u64::from(delay) <= k => {
                            lane.size(rel.index(), delay)
                        }
                        _ => 0,
                    };
                    lane.set_size(relation, model.apply(input_size));
                }
                if self.record {
                    debug_assert_eq!(
                        self.instants[relation].len() as u64,
                        k,
                        "exchange instants must compute in iteration order"
                    );
                    self.instants[relation].push(time);
                    if !has_fifo_read {
                        // Rendezvous: read instant equals the write instant.
                        self.reads[relation].push(time);
                    }
                }
                if ack_input != u32::MAX {
                    self.acks[ack_input as usize] = Some((k, time));
                    wake(Wake::Ack(ack_input));
                }
                if output != u32::MAX {
                    let size = lane.size(relation, 0);
                    self.outputs[output as usize].push_back((k, time, size));
                    wake(Wake::Output(output, time));
                }
            }
            Obs::FifoRead { relation } => {
                if self.record {
                    self.reads[relation as usize].push(instant(value));
                }
            }
            Obs::ExecEnd {
                function,
                stmt,
                resource,
                dense,
            } => {
                if self.record {
                    let (start, ops) = lane.stash(dense as usize);
                    if start.is_finite() || ops > 0 {
                        self.records.push(ExecRecord {
                            resource,
                            function,
                            stmt: stmt as usize,
                            k,
                            start: instant(start),
                            end: instant(value),
                            ops,
                        });
                    }
                }
            }
        }
    }

    /// Snapshots the log lengths so [`LaneLog::collect`] can diff out
    /// exactly what the upcoming call emits.
    pub(crate) fn mark(&mut self) {
        let m = &mut self.marks;
        m.instants.clear();
        m.instants.extend(self.instants.iter().map(Vec::len));
        m.reads.clear();
        m.reads.extend(self.reads.iter().map(Vec::len));
        m.outputs.clear();
        m.outputs.extend(self.outputs.iter().map(VecDeque::len));
        m.records = self.records.len();
        m.ack = self.acks[0];
    }

    /// Diffs the logs against the marks: the complete emission set of the
    /// call at iteration `k` (a consumer cannot pop outputs mid-call, so
    /// queue-length diffs are exact), charged the call's `work`.
    pub(crate) fn collect(&self, k: u64, work: &EngineStats) -> CallEmissions {
        let m = &self.marks;
        let diff = |logs: &[Vec<Time>], from: &[usize]| -> Vec<(u32, u64)> {
            let tails = logs.iter().zip(from).map(|(log, &f)| &log[f..]);
            tails
                .enumerate()
                .flat_map(|(rel, ts)| ts.iter().map(move |t| (rel as u32, t.ticks())))
                .collect()
        };
        let execs = self.records[m.records..].iter().map(|r| {
            debug_assert!(r.k >= k, "a call's records belong to k or the look-ahead");
            ExecEmission {
                k_off: r.k - k,
                resource: r.resource,
                function: r.function,
                stmt: r.stmt,
                start: r.start.ticks(),
                end: r.end.ticks(),
                ops: r.ops,
            }
        });
        let outputs =
            self.outputs
                .iter()
                .zip(&m.outputs)
                .enumerate()
                .flat_map(|(out, (queue, &from))| {
                    queue.iter().skip(from).map(move |&(ok, t, size)| {
                        debug_assert!(ok >= k);
                        OutputEmission {
                            output: out as u32,
                            k_off: ok - k,
                            at: t.ticks(),
                            size,
                        }
                    })
                });
        CallEmissions {
            instants: diff(&self.instants, &m.instants),
            reads: diff(&self.reads, &m.reads),
            execs: execs.collect(),
            outputs: outputs.collect(),
            ack: self.acks[0]
                .filter(|_| self.acks[0] != m.ack)
                .map(|(ak, t)| (ak - k, t.ticks())),
            nodes: work.nodes_computed,
            arcs: work.arcs_evaluated,
            iters: work.iterations_completed,
        }
    }

    /// The apply half of template replay: appends position `r`'s emissions
    /// shifted to the call at iteration `k`, taking their instants from
    /// `shifted` (in [`crate::periodic::extrapolate_emissions`] order) and
    /// calling `wake` per output and acknowledgment. Returns how many
    /// shifted instants it consumed.
    pub(crate) fn apply(
        &mut self,
        r: &PosTemplate,
        k: u64,
        shifted: &[u64],
        mut wake: impl FnMut(Wake),
    ) -> usize {
        let mut at = shifted.iter().map(|&t| Time::from_ticks(t));
        let mut next = || at.next().expect("one shifted instant per emission");
        for &(rel, _) in &r.emissions.instants {
            self.instants[rel as usize].push(next());
        }
        for &(rel, _) in &r.emissions.reads {
            self.reads[rel as usize].push(next());
        }
        for e in &r.emissions.execs {
            let (start, end) = (next(), next());
            self.records.push(ExecRecord {
                resource: e.resource,
                function: e.function,
                stmt: e.stmt,
                k: k + e.k_off,
                start,
                end,
                ops: e.ops,
            });
        }
        for e in &r.emissions.outputs {
            let t = next();
            self.outputs[e.output as usize].push_back((k + e.k_off, t, e.size));
            wake(Wake::Output(e.output, t));
        }
        if let Some((k_off, _)) = r.emissions.ack {
            self.acks[0] = Some((k + k_off, next()));
            wake(Wake::Ack(0));
        }
        shifted.len() - at.len()
    }
}
