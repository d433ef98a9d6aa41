(** Minimal control plane and batch engine: NFs punt packets to the CPU
    by setting the SFC header's to-CPU flag (Fig. 4's [toCpu] default
    action); the runtime dispatches to a per-NF handler — which
    typically installs a table entry — and reinjects the packet into
    the data plane, looping until the packet is emitted or dropped.

    One door each: the whole configuration is one {!Engine.t} applied
    with {!configure}; every CPU handler is registered through
    {!on_to_cpu_state}'s [chip -> store -> handler] factory; every batch
    goes through {!process_batch}, which runs sequentially at
    [Engine.domains = 1] and shards across that many OCaml domains onto
    per-batch chip replicas otherwise; observation is read through
    {!telemetry} and {!snapshot}. *)

type action =
  | Reinject of Bytes.t  (** put (possibly rewritten) bytes back into the
                             entry pipeline's ingress *)
  | Consume  (** the control plane keeps the packet *)

type handler = Sfc_header.t option -> Bytes.t -> action
(** Receives the decoded SFC header (when present) and the raw frame. *)

(** The counter quadruple every packet path accumulates — shared by
    {!outcome} (one packet) and {!batch_stats} (a batch), merged
    component-wise. *)
module Counters : sig
  type t = {
    cpu_round_trips : int;
    recircs : int;
    resubmits : int;
    latency_ns : float;  (** modelled data-plane latency (summed) *)
  }

  val zero : t
  val add : t -> t -> t
end

(** The runtime's whole configuration as one value — replaces scattered
    per-knob mutators. Apply with {!configure}; read back with
    {!engine}. *)
module Engine : sig
  (** The exact-match flow cache fronting the pipeline. [Emc] memoizes
      each flow's whole-chain verdict after its first packet (see
      {!Flow_cache}); [Off] (the default) is the uncached pipeline,
      byte-identical to a runtime without the cache knob. *)
  type cache = Off | Emc of { capacity : int }

  (** The bounded state store behind stateful NFs' dynamic state (see
      {!State_store}): [Bounded] gives the runtime one store per shard
      — each NF's per-flow tables capacity-bounded with LRU eviction
      and TTL aging on the runtime's logical clock
      ({!advance_state_time}); [No_state] (the default) is today's
      unbounded behaviour, byte-identical to a runtime without the
      knob. *)
  type state = No_state | Bounded of { capacity : int; ttl_ns : int64 }

  type t = {
    exec_mode : Asic.Chip.exec_mode;  (** default [Fast] *)
    telemetry : Telemetry.Level.t;  (** default [Off] *)
    domains : int;
        (** shard count for {!process_batch} (1 = sequential) and the
            number of state stores; clamped to >= 1 *)
    ring_capacity : int;
        (** flight-recorder depth when telemetry is [Journeys] *)
    cache : cache;  (** default [Off] *)
    state : state;  (** default [No_state] *)
  }

  val default : t
end

type t

val create : ?engine:Engine.t -> Compiler.t -> t
(** A runtime over the compiled chip, configured per [engine]
    (default {!Engine.default}). *)

val configure : t -> Engine.t -> unit
(** Apply a full configuration: exec mode takes effect immediately;
    telemetry re-attaches (fresh registry and ring) only when the
    telemetry level or ring capacity actually changed, so flipping
    [exec_mode] or [domains] never wipes accumulated counters. The
    flow cache likewise survives unchanged [cache] knobs; any change
    detaches the old cache's recorders and starts empty, keeping the
    old tallies (on a resize, and across switching the cache off and
    on again). The state stores survive an unchanged [state]
    knob at an unchanged shard count; a [domains] change under a live
    [Bounded] knob re-homes every entry and table tally to its new
    owner shard ({!State_store.migrate}); a knob change starts fresh. *)

val engine : t -> Engine.t

val flow_cache : t -> Flow_cache.t option
(** The live flow cache when the engine's [cache] knob is [Emc] —
    for stats, clearing, and tests. *)

val state_stores : t -> State_store.t array
(** All shard stores in shard order ([||] when [No_state]), one per
    [Engine.domains]. Persistent across batches — unlike replica chips —
    so punt-installed state outlives the sharded batch that created it.
    Store 0 is the one sequential-path handlers bind. *)

val advance_state_time : t -> int64 -> int
(** Advance every shard store's logical clock by [ns] and sweep TTL
    expirations (the control plane's aging tick — e.g. the rate
    limiter's window). Returns the number of entries expired. Time
    never advances implicitly, so runs that tick at the same points
    age identically — digests stay comparable. *)

val on_to_cpu_state : t -> string -> (Asic.Chip.t -> State_store.t option -> handler) -> unit
(** Register an NF's handler factory (keyed by the [ctx_key_cpu_reason]
    context value carrying the NF's id, see {!register_nf_id}). The
    factory receives the chip the handler serves and that shard's state
    store ([None] when the engine's [state] knob is [No_state]): the
    primary chip and store 0 now, shard [d]'s replica and store [d]
    during a sharded batch, and the primary again whenever [configure]
    replaces the store array. So a handler that installs into a table
    (found via {!Asic.Chip.find_table}) always installs into the chip
    that punted the packet, and one that records per-flow state never
    holds a stale store. A handler needing neither ignores both. *)

val register_nf_id : t -> string -> int -> unit
(** Associate an NF name with the id it writes into the CPU-reason
    context slot. *)

val default_nf_id : string -> int
(** A stable id derived from the NF name (CRC-16 of the name, nonzero) —
    what the bundled NFs use. *)

val clear_cpu_mark : Bytes.t -> Bytes.t
(** Clear the to-CPU flag and the CPU-reason context slot in a frame's
    SFC header — a handler must do this before reinjecting, or the
    packet bounces straight back. Returns a fresh buffer. *)

type outcome = {
  verdict : Asic.Chip.verdict;
  counters : Counters.t;  (** aggregated over all data-plane passes *)
  mirrored : (int * Bytes.t) list;
      (** analysis-port copies across all data-plane passes *)
}

val process : t -> in_port:int -> Bytes.t -> (outcome, string) result
(** Inject a frame and resolve any to-CPU round trips. Counters
    aggregate over all data-plane passes. The handler is dispatched at
    most {!max_cpu_loops} times — exactly; a packet still punting after
    that is an error. *)

val max_cpu_loops : int
val chip : t -> Asic.Chip.t

(** {2 Control plane}

    The single front door for runtime table/register mutation: typed
    {!Ctrl} ops addressed by composed object name, applied to the
    primary chip between packet batches. Direct [Table.add_entry] on a
    compiled chip still works (NF constructors use it before traffic
    starts), but live mutation should flow through here so it is
    observable, queueable and coherent across shard replicas. *)

val apply_ops : t -> Ctrl.op list -> (int, string) result
(** Apply a batch of ops to the primary chip now, in order, stopping at
    the first failure ([Ok n] = all [n] applied). The caller must be
    between packet batches — the runtime's single-consumer contract;
    epoch bumps make every change visible to the flow cache, and the
    next sharded batch replicates the updated state to all shards. *)

val control : t -> Ctrl.queue
(** The runtime's update queue. Producers (CPU handlers, other domains,
    an operator loop) {!Ctrl.submit} op batches at any time; the
    runtime drains the queue onto the primary chip at the top of every
    {!process_batch} call, recording
    per-batch outcomes in the queue's result log ({!Ctrl.results}). *)

val sync : t -> int * (int * string) list
(** Drain and apply all pending queue batches immediately (what the
    batch entry points do): total ops applied, plus per-batch errors as
    [(batch_id, message)]. A failed batch stops at its first bad op but
    does not block later batches. *)

(** {2 Telemetry}

    Set through the engine's [telemetry] and [ring_capacity] fields
    ({!configure}). Per packet it counts only what no other tally
    keeps: per-port rx/tx, CPU punts, error classes, an ns-per-packet
    histogram ([runtime.ns_per_packet]) and — at [Journeys] — one
    journey, handed to {!Observe.record} (flight recorder and per-flow
    INT summaries). The [verdict.*], [path.*] shape and
    [batch.errors_suppressed] counters are the sum of the
    {!batch_stats} each {!process_batch} (and the outcome each
    {!process}) returned. [Off] detaches everything and restores the
    uninstrumented fast path. *)

val telemetry : t -> Observe.t option
(** The runtime's observer, when telemetry is on. Shard observers fold
    back into it after every sharded batch. *)

val snapshot : t -> Telemetry.Registry.snapshot option
(** The observability front door: sync the chip's live table tallies,
    the gauges — cache occupancy/capacity, state-store occupancy and
    capacity, pending ctrl batches ([ctrl.pending]), INT flow count —
    and the tallies other components keep ({!Flow_cache.stats} as
    [cache.*], {!State_store.totals} as [state.*], [int.postcards])
    into the registry, then snapshot it. [None] when telemetry is
    [Off]. These are written only here (never on the hot path, never
    on shard replicas), so sharded registry merges cannot double-count
    them; feed the result to {!Telemetry.Export.prometheus} /
    {!Telemetry.Export.json_lines}. *)

(** {2 Batches} *)

type batch_stats = {
  packets : int;
  emitted : int;
  dropped : int;
  to_cpu : int;  (** packets the control plane consumed or nobody handled *)
  errors : int;
  counters : Counters.t;
  digest : int64;
      (** sequential: order-sensitive CRC-32 over every packet's verdict
          tag, egress port and output frame — byte-identical runs agree
          on it. Sharded (domains >= 2): the per-shard digests chained
          in shard order (see {!process_batch}). *)
  error_log : (int * string) list;
      (** the first {!max_error_log} per-packet errors, oldest first, as
          [(in_port, message)] — previously only the count survived *)
  suppressed : int;
      (** errors beyond the log cap: [errors - List.length error_log],
          so a capped log is visible as such instead of silently
          truncating. Also accumulated into the
          [batch.errors_suppressed] counter when telemetry is on, once
          per batch, after shard logs merge. *)
}

val max_error_log : int

val process_batch :
  ?each:(int -> (outcome, string) result -> unit) ->
  t ->
  (int * Bytes.t) list ->
  batch_stats
(** Run [(in_port, frame)] packets through {!process}, aggregating
    counters. Per-packet errors are counted (and folded into the
    digest), not raised. [each] observes every packet's result with its
    position in the input list.

    At [Engine.domains = 1] packets run in order on the primary chip.
    At [domains = k >= 2] the batch is split by {!shard_of_packet} and
    every shard runs on its own OCaml domain against a private
    {!Asic.Chip.replicate} clone of the chip (share-nothing: table
    entries and register cells are deep copies; handler factories
    re-bind to the replica and to shard [d]'s store).

    Determinism contract: flow affinity gives every flow one owner
    domain processing its packets in arrival order, so per-packet
    outcomes match the sequential run whenever flows don't interact
    through shared NF state (cross-flow state — e.g. a rate-limiter
    bucket fed by several flows — is only deterministic if those flows
    hash to the same shard). Results merge in shard order: totals are
    sums, the digest chains per-shard digests, so repeated runs with the
    same [domains] agree bit-for-bit. Replicas are discarded after the
    batch — control-plane installs during a sharded batch do not
    persist on the primary chip, which is what keeps repeated runs
    identical; state-store entries do persist.

    With telemetry on, each shard gets a private observer, folded back
    in shard order afterwards by {!Observe.merge} (registry, journeys,
    flow summaries, recorded count); table tallies fold into the
    primary chip's live stats.

    In a sharded batch [each] runs on worker domains (for distinct
    packet indices, concurrently) — it must tolerate that, e.g. by
    writing to distinct array slots. *)

val shard_of_packet : domains:int -> int -> Bytes.t -> int
(** The flow-affinity shard of an [(in_port, frame)] packet: CRC-32 of
    the *canonicalized* (direction-symmetric) outer IPv4 5-tuple mod
    [domains], so both directions of a connection land on the same
    shard — a NAT/LB reply must see the bindings its forward flow
    installed. Packets with no parseable 5-tuple shard by input port.
    (Exposed so tests and tools can reproduce the partition.) *)

val process_batch_parallel :
  ?domains:int ->
  ?each:(int -> (outcome, string) result -> unit) ->
  t ->
  (int * Bytes.t) list ->
  batch_stats
(** Compatibility shim over {!process_batch}. A [domains] that differs
    from the engine's is first applied with {!configure} (re-homing the
    state stores and recording the new count), so the next batch sees
    the same shard layout. *)
