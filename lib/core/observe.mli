(** Telemetry glue for the Dejavu data plane: one registry, flight
    recorder and per-flow INT summary table per observer, chip hook
    installation, journey assembly from chip trace marks, and
    snapshots. The runtime owns an observer when the engine's telemetry
    level is on (see {!Runtime.configure}); the hot-path counters it
    bumps live in this observer's registry. At [Journeys] every packet
    becomes exactly one {!Telemetry.Journey.t} through {!record}: the
    flight recorder keeps the newest, and the INT summaries fold all of
    them per flow. *)

type t

val default_ring_capacity : int
(** 256 — what {!create} uses when [ring_capacity] is omitted. *)

val create : ?ring_capacity:int -> Telemetry.Level.t -> t
(** A fresh registry, an empty flight recorder ([ring_capacity]
    journeys, default {!default_ring_capacity}) and empty flow
    summaries. *)

val level : t -> Telemetry.Level.t
val registry : t -> Telemetry.Registry.t

val attach : t -> Asic.Chip.t -> unit
(** Enable chip-level instrumentation at the observer's level: table
    stats, per-NF label counters backed by its registry
    ([nf.<name>.applies]), and the SFC journey probe, which reads the
    (service_path_id, service_index) pair and the valid-header list off
    each pass's PHV. Per-domain observers each wire their own chip. *)

val detach : Asic.Chip.t -> unit
(** Back to [Off]: stats discarded, uninstrumented controls recompiled. *)

val error_class : string -> string
(** Coarse class of a runtime error message ([cpu_loop], [pass_limit],
    [bad_egress], [parse], [other]) — the error/drop-reason counter
    suffix. *)

val record :
  t ->
  in_port:int ->
  wall_ns:int ->
  bytes ->
  Asic.Chip.result list ->
  (Asic.Chip.verdict * float, string) result ->
  unit
(** [record t ~in_port ~wall_ns frame results outcome] records one
    packet: [frame] as it arrived, [results] its chip injections in
    order (from a [Journeys]-instrumented chip; empty on a flow-cache
    hit), and [outcome] the runtime's final verdict with its
    end-to-end modelled latency, or the error. Builds the journey —
    per-pass hops segmented from each result's marks, the verdict
    string, the flow key (canonical 5-tuple, or ["port:<n>"]), the next
    id, totals summed over [results] — then pushes it into the flight
    recorder and folds it into its flow's summary. *)

val merge : into:t -> t -> unit
(** Fold a shard replica's observer into the primary: registries merge
    (see {!Telemetry.Registry.merge}), retained journeys re-enter the
    primary ring renumbered to their position in the shard-order
    record sequence, flow summaries add, and {!recorded} sums. [src] is
    not modified. *)

val recorded : t -> int
(** Journeys ever recorded, merged shards included — one per packet
    processed at [Journeys]. *)

val journeys : t -> Telemetry.Journey.t list
(** Flight-recorder contents, oldest first. *)

val flow_summaries : t -> Telemetry.Int_report.t
(** Every recorded journey aggregated per flow. *)

val snapshot : t -> Asic.Chip.t -> Telemetry.Registry.snapshot
(** Copy live per-table hit/miss tallies into registry counters
    ([table.<pipelet>.<name>.hits/.misses]) and, once anything was
    recorded, the INT sizes ([int.postcards], [int.dropped_flows], the
    [int.flows] gauge); then snapshot the registry. *)

val table_entry_hits :
  Asic.Chip.t -> (string * (P4ir.Table.entry * int) list) list
(** Per stats-enabled table ("<pipelet>/<table>"), the installed entries
    with hit counts in insertion order. *)
