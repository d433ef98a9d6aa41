(** INT-style per-flow reports: every recorded packet's {!Journey.t} —
    its per-hop records (the {!Journey.hop} stamps each pipelet pass
    leaves in the packet's probe metadata) and its end-to-end totals —
    folded into a running summary for its flow. This is the "postcard"
    model, where every hop's telemetry is reported out-of-band at the
    end of the packet's walk instead of accumulating in the packet. The
    journeys themselves live in the observer's flight recorder; this
    module keeps only the per-flow aggregates.

    The flow table is bounded: aggregation stops accepting new flows at
    [max_flows] (drops are counted, never silent). *)

(** Running aggregate of every journey a flow produced. *)
type summary = {
  flow : string;
  mutable packets : int;
  mutable hops : int;  (** total pipelet passes across all packets *)
  mutable latency_ns : float;  (** summed modelled chip latency *)
  mutable max_hops : int;  (** deepest single walk (recirc fan-out) *)
  mutable recircs : int;
  mutable resubmits : int;
  mutable verdicts : (string * int) list;  (** verdict -> packets *)
}

type t

val create : ?max_flows:int -> unit -> t
(** [max_flows] defaults to 1024. *)

val push : t -> Journey.t -> unit
(** Fold one journey into its flow's summary (keyed by its [flow]
    key); [latency_ns], [recircs] and [resubmits] are the journey's own
    end-to-end totals. *)

val summaries : t -> summary list
(** Per-flow aggregates, most packets first. *)

val dropped_flows : t -> int
(** Journeys whose flow could not be aggregated because the flow table
    was full ([max_flows] reached). *)

val merge : into:t -> t -> unit
(** Fold a shard replica's summaries into the primary: summaries add
    field-wise, dropped counts sum. [src] is not modified. *)

val clear : t -> unit

val summary_to_json : summary -> string
val pp_summaries : Format.formatter -> t -> unit
