(** Per-shard exact-match flow cache (EMC) memoizing whole-chain
    verdicts.

    Keyed on the arrival port plus the frame's entire header region
    (every byte the chip's parser family can extract), so two frames
    with equal keys are indistinguishable to the match-action pipeline;
    the payload passes through opaquely and is re-appended on hits.
    Stateful NFs stay correct through a recorded side-effect plan:
    table dependencies (with mutation epochs), register dependencies
    (with reset epochs) and the ordered register read/write trace. A
    hit revalidates the plan against live state — replaying recorded
    writes over the recorded reads — before serving the memoized
    verdict and re-applying the writes; any mismatch drops the entry
    and falls back to the full pipeline.

    Uncacheable outcomes: CPU punts and round trips, recirculations,
    resubmissions, mirrored copies, to-CPU verdicts, errors, and
    emitted frames that did not preserve the input payload.

    Eviction is LRU at a fixed capacity; invalidation is lazy and
    epoch-based (a stale entry dies at its next lookup). One cache
    serves one chip: {!create} arms lookup/access recorders on every
    table and register of that chip, so per-domain shard replicas each
    need their own cache over their own replica chip. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
      (** entries dropped on a failed read-replay revalidation —
          packet-time staleness (shared register state moved) *)
  mutable invalidations : int;
      (** entries dropped on a dependency epoch mismatch — a
          control-plane mutation (table op, register reset) under the
          entry *)
  mutable uncacheable : int;  (** miss runs that could not be inserted *)
  mutable inserts : int;
  mutable evictions : int;
}

val create : capacity:int -> Asic.Chip.t -> t
(** Build a cache for [chip] and arm its recorder hooks on every table
    and register. Capacity is clamped to at least 1. *)

val detach : t -> unit
(** Disarm all recorder hooks and drop any pending recording. The cache
    must not be used afterwards. *)

val capacity : t -> int
val length : t -> int
val stats : t -> stats
val hit_rate : t -> float
(** hits / (hits + misses), 0 when idle. *)

val clear : t -> unit
(** Drop every entry (stats are kept). *)

type hit = { verdict : Asic.Chip.verdict; latency_ns : float }

val lookup : t -> in_port:int -> Bytes.t -> hit option
(** On a validated hit: LRU-touch, replay the write plan and return the
    reconstructed verdict. On a miss (or a failed revalidation, which
    also drops the entry): start recording the side-effect plan for the
    full-pipeline run the caller is about to perform, to be finished by
    {!commit} or {!abort}. *)

val commit :
  t ->
  frame:Bytes.t ->
  verdict:Asic.Chip.verdict ->
  cpu_round_trips:int ->
  recircs:int ->
  resubmits:int ->
  mirrored:bool ->
  latency_ns:float ->
  unit
(** Finish the recording opened by a {!lookup} miss: insert the entry
    when the outcome is cacheable (and its dependencies were not
    mutated mid-run, e.g. by a CPU handler), else count it
    uncacheable. [frame] is the original input frame. *)

val abort : t -> unit
(** Discard a pending recording (error outcomes). *)

val merge_stats : into:t -> stats -> unit
(** Add these tallies (another cache's {!stats}) into [into]'s. Entries
    are not moved — per-shard caches share nothing; used when replica
    caches are discarded after a parallel batch, and when a cache is
    resized or re-enabled after being switched off, so runtime-wide
    accounting survives. *)

(** {2 Introspection for tests and benches} *)

val header_len : Bytes.t -> int
(** Length of the keyed header region: a structural walk mirroring the
    deepest parser [Net_hdrs.base_parser] can build, falling back to
    the whole frame for truncated or foreign frames. *)

val key_of : in_port:int -> Bytes.t -> string
(** The cache key: 2 bytes of arrival port + the header region. *)

val keys_mru : t -> string list
(** Current keys, most recently used first. *)
