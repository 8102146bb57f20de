//! The counter families — engine, fast-forward, batching, serve and
//! lifecycle events — each declared exactly once.
//!
//! One `counter_families!` declaration per family names every field with
//! its Prometheus family, metric type, help text, merge rule and optional
//! label value. From it the macro generates the struct (with its field
//! docs), `merge`, the snapshot JSON object, the Prometheus lines
//! ([`crate::prometheus`] calls them in family order), and the metric
//! catalogue rows of `docs/OBSERVABILITY.md` ([`catalogue_rows`]), so a
//! counter cannot be exported under one name and documented under
//! another. `evolve-core` and `evolve-explore` count into these same
//! types.

use crate::json::Json;

/// The declaration of one counter field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterField {
    /// Struct field name, also the field's key in the snapshot JSON.
    pub field: &'static str,
    /// Prometheus metric family the field is exported under.
    pub metric: &'static str,
    /// Prometheus metric type: `counter` or `gauge`.
    pub kind: &'static str,
    /// `# HELP` text of the metric family.
    pub help: &'static str,
    /// `(label, value)` when the field is one series of a labelled family.
    pub label: Option<(&'static str, &'static str)>,
}

/// Declares counter families. Per family: the struct, then metric groups
/// `kind merge "metric" "help" { fields }`, where `kind` is `counter` or
/// `gauge`, `merge` is `sum` or `max`, and a field written
/// `field { label = "value" }` is one series of a labelled family. A
/// field's doc is its help text (plus label); doc comments written on the
/// field add to it.
macro_rules! counter_families {
    (@label) => { None };
    (@label $key:ident $value:literal) => { Some((stringify!($key), $value)) };
    (@merge sum $ours:expr, $theirs:expr) => { $ours += $theirs };
    (@merge max $ours:expr, $theirs:expr) => { $ours = $ours.max($theirs) };
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $kind:ident $merge:ident $metric:literal $help:literal {
                    $(
                        $(#[$field_meta:meta])*
                        $field:ident $({ $key:ident = $value:literal })?
                    ),+ $(,)?
                }
            )+
        }
    )+) => {$(
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(
                #[doc = concat!($help $(, ": `", stringify!($key), "=\"", $value, "\"`")?, ".")]
                $(#[$field_meta])*
                pub $field: u64,
            )+)+
        }

        impl $name {
            /// Every field's declaration, in declaration order.
            pub const FIELDS: &'static [CounterField] = &[$($(
                CounterField {
                    field: stringify!($field),
                    metric: $metric,
                    kind: stringify!($kind),
                    help: $help,
                    label: counter_families!(@label $($key $value)?),
                },
            )+)+];

            /// Folds `other` into this counter set: counters add, the
            /// `max`-merged gauges keep the larger value.
            pub fn merge(&mut self, other: &$name) {
                $($(
                    counter_families!(@merge $merge self.$field, other.$field);
                )+)+
            }

            /// Field values, in declaration order.
            pub fn values(&self) -> Vec<u64> {
                vec![$($(self.$field),+),+]
            }

            /// `(field, value)` pairs of the snapshot JSON object, in
            /// declaration order.
            pub fn json_fields(&self) -> Vec<(String, Json)> {
                json_fields(Self::FIELDS, &self.values())
            }

            /// The snapshot JSON object of this family.
            pub fn to_json(&self) -> Json {
                Json::Object(self.json_fields())
            }

            /// Appends this family's Prometheus text exposition lines.
            pub(crate) fn write_prometheus(&self, out: &mut String) {
                crate::export::write_counters(out, Self::FIELDS, &self.values());
            }
        }
    )+};
}

counter_families! {
    /// Engine work counters, filled by the scalar and batched engines
    /// (`evolve_core::EngineStats` is this type).
    pub struct EngineCounters {
        counter sum "evolve_engine_nodes_computed_total" "Graph nodes computed across all iterations"
            { nodes_computed }
        counter sum "evolve_engine_arcs_evaluated_total" "Arc-weight evaluations performed"
            { arcs_evaluated }
        counter sum "evolve_engine_iterations_completed_total" "Iterations fully computed"
            { iterations_completed }
        counter sum "evolve_engine_lanes_evaluated_total" "Scenario lanes evaluated by batched engines" {
            /// Always `0` for the scalar engine and for per-lane views.
            lanes_evaluated
        }
        counter sum "evolve_engine_batched_iterations_total" "Lockstep batched sweeps performed" {
            /// One per batched input call, covering every active lane; `0`
            /// for the scalar engine.
            batched_iterations
        }
    }

    /// Fast-forward counters of one engine, one batch lane, or a merge of
    /// them (`evolve_core::FastForwardStats` adds the detected regime).
    pub struct FfCounters {
        counter sum "evolve_ff_promotions_total" "Fast-forward promotions to template replay"
            { promotions }
        counter sum "evolve_ff_demotions_total" "Fast-forward demotions back to the full sweep"
            { demotions }
        counter sum "evolve_ff_fast_forwarded_iterations_total" "Iterations answered by template replay"
            { fast_forwarded_iterations }
    }

    /// Batching counters of the sweep planner and the serve daemon. Every
    /// scenario is either a batched lane or a scalar evaluation; the
    /// `eject_*` counters break the scalar side down by reason.
    pub struct BatchCounters {
        gauge max "evolve_batch_width" "Configured lockstep batch width"
            { batch_width }
        counter sum "evolve_batch_batches_formed_total" "Lockstep batches driven to completion"
            { batches_formed }
        counter sum "evolve_batch_lanes_batched_total" "Scenarios evaluated as lanes of a batch"
            { lanes_batched }
        counter sum "evolve_batch_lanes_scalar_total" "Scenarios evaluated on the scalar path"
            { lanes_scalar }
        counter sum "evolve_batch_lockstep_iterations_total" "Lockstep sweeps executed across all batches"
            { lockstep_iterations }
        counter sum "evolve_batch_kernel_sweeps_total" "Lockstep sweeps by fold-kernel dispatch path" {
            /// Lane stride a multiple of the SIMD chunk.
            kernel_chunked_sweeps { path = "chunked" },
            /// Per-element reference kernels, for batches below one chunk.
            kernel_scalar_sweeps { path = "scalar" },
        }
        counter sum "evolve_batch_ejections_total" "Scenarios ejected from batching to the scalar path, by reason" {
            eject_worklist { reason = "worklist" },
            eject_empty_trace { reason = "empty_trace" },
            /// A model group's leftover lane: a one-lane batch only adds
            /// overhead.
            eject_single_lane { reason = "single_lane" },
            /// The batched engine rejected the graph shape (multi-input,
            /// output acks, long size-derivation delays).
            eject_unsupported { reason = "unsupported" },
        }
    }

    /// Serving-layer counters recorded by the `evolve-serve` daemon's
    /// shard workers: request admission, batch formation, and the
    /// evaluation path each request lane took.
    pub struct ServeCounters {
        counter sum "evolve_serve_connections_total" "Client connections accepted by the serve daemon"
            { connections }
        counter sum "evolve_serve_requests_total" "Requests admitted into shard queues"
            { requests }
        counter sum "evolve_serve_rejected_total" "Requests shed with a BUSY response (queue over max_queue_depth)"
            { rejected }
        counter sum "evolve_serve_responses_total" "Successful evaluation responses written"
            { responses }
        counter sum "evolve_serve_errors_total" "Error responses written"
            { errors }
        counter sum "evolve_serve_batches_total" "Affinity batches dispatched, by trigger" {
            /// Lanes filled the batch width.
            batches_full { trigger = "full" },
            /// Dispatched at the `max_batch_delay` deadline.
            batches_deadline { trigger = "deadline" },
        }
        counter sum "evolve_serve_lanes_total" "Request lanes evaluated, by path" {
            lanes_batched { path = "batched" },
            /// Ejected or singleton lanes.
            lanes_scalar { path = "scalar" },
        }
    }

    /// Engine lifecycle event counts, derived after each drive from what
    /// the drive returned (`evolve_explore::cache` computes one set per
    /// drive).
    pub struct EventCounters {
        counter sum "evolve_events_total" "Engine lifecycle events observed, by kind" {
            /// One per drive.
            attaches { kind = "attach" },
            /// Scalar-engine input arrivals.
            offers { kind = "offer" },
            /// Scalar offers answered by fast-forward template replay.
            replayed_offers { kind = "offer_replayed" },
            /// Lockstep steps of batched drives.
            batch_sweeps { kind = "batch_sweep" },
            /// Per batched drive, the most template-replayed iterations of
            /// any lane.
            replayed_batch_sweeps { kind = "batch_sweep_replayed" },
            /// Output acknowledgments fed back into an engine.
            output_acks { kind = "output_ack" },
            promotions { kind = "ff_promoted" },
            demotions { kind = "ff_demoted" },
            /// Scenarios the batching layer sent to the scalar path.
            lane_ejections { kind = "lane_ejected" },
            /// Offers refused with a time-overflow error. The drives panic
            /// on one instead (serve admission rejects such traces), so
            /// this stays 0.
            overflows { kind = "overflow" },
            /// Drives on a reused engine (each starts with a reset).
            resets { kind = "reset" },
        }
    }
}

impl BatchCounters {
    /// Scenarios ejected from batching, every reason summed.
    pub fn ejections(&self) -> u64 {
        self.eject_worklist
            + self.eject_empty_trace
            + self.eject_single_lane
            + self.eject_unsupported
    }
}

/// Every family's declarations, in exposition order.
const FAMILIES: [&[CounterField]; 5] = [
    EngineCounters::FIELDS,
    FfCounters::FIELDS,
    BatchCounters::FIELDS,
    ServeCounters::FIELDS,
    EventCounters::FIELDS,
];

fn json_fields(fields: &[CounterField], values: &[u64]) -> Vec<(String, Json)> {
    fields
        .iter()
        .zip(values)
        .map(|(f, &v)| (f.field.to_string(), Json::U64(v)))
        .collect()
}

/// The metric-catalogue table rows (`| family | kind | meaning |`) of
/// every counter family, one per Prometheus family, in exposition order.
/// A labelled family is written `name{label=}` and lists its label
/// values. `docs/OBSERVABILITY.md` carries these rows verbatim.
pub fn catalogue_rows() -> Vec<String> {
    FAMILIES
        .iter()
        .flat_map(|fields| fields.chunk_by(|a, b| a.metric == b.metric))
        .map(|group| {
            let f = group[0];
            match f.label {
                None => format!("| `{}` | {} | {} |", f.metric, f.kind, f.help),
                Some((key, _)) => {
                    let values: Vec<String> = group
                        .iter()
                        .filter_map(|m| m.label.map(|(_, v)| format!("`{v}`")))
                        .collect();
                    format!(
                        "| `{}{{{key}=}}` | {} | {}: {} |",
                        f.metric,
                        f.kind,
                        f.help,
                        values.join(", ")
                    )
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_the_width_gauge() {
        let mut a = BatchCounters {
            batch_width: 8,
            lanes_batched: 3,
            ..BatchCounters::default()
        };
        a.merge(&BatchCounters {
            batch_width: 4,
            lanes_batched: 5,
            eject_unsupported: 1,
            ..BatchCounters::default()
        });
        assert_eq!(a.batch_width, 8);
        assert_eq!(a.lanes_batched, 8);
        assert_eq!(a.eject_unsupported, 1);
    }
}
