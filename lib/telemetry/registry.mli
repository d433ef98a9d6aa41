(** The metrics registry: named counters (bare [int ref]s, so the hot
    path bumps them with [incr]), gauges (absolute levels such as an
    occupancy, set rather than bumped) and log2 histograms, registered
    once and snapshotted on demand. Snapshots are plain data — diffable
    against an earlier snapshot and serializable to JSON or a
    human-readable table. *)

type t

val create : unit -> t

val counter : t -> string -> int ref
(** Find-or-create. The returned ref IS the live counter; callers keep
    it and [incr] it directly. *)

val gauge : t -> string -> int ref
(** Find-or-create. A gauge holds a level that may fall (an occupancy, a
    queue depth); callers assign it. Each [counter]/[gauge]/[histogram]
    raises [Invalid_argument] on a name registered as another kind. *)

val histogram : t -> string -> Histogram.t
(** Find-or-create. *)

val reset : t -> unit
(** Zero every counter, gauge and histogram (registrations survive). *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into]: counters are summed,
    histograms added bucket-wise (count and sum included). Names absent
    from [into] are created. Gauges are skipped: a level does not sum,
    so only the registry that owns it writes it. [src] is not modified.
    This is how per-domain registries from a parallel run collapse into
    one. *)

(** {2 Snapshots} *)

type value =
  | Vcount of int
  | Vgauge of int
  | Vhist of {
      count : int;
      sum : int;
      mean : float;
      p50 : int;
      p99 : int;
      buckets : (int * int) list;  (** (log2 bucket index, count), ascending *)
    }

type snapshot = (string * value) list
(** Registration order. *)

val snapshot : t -> snapshot

val delta : since:snapshot -> snapshot -> snapshot
(** [delta ~since now]: counters and histogram bucket counts in [now]
    minus their values in [since] (absent in [since] = 0). Quantiles and
    means are recomputed over the difference. Gauges keep their value in
    [now]. *)

val to_json : ?indent:int -> snapshot -> string
(** One JSON object: counters and gauges as numbers, histograms as
    [{"count":..,"sum":..,"mean":..,"p50":..,"p99":..,"buckets":{"lo":count,..}}]
    keyed by each bucket's lower bound. *)

val pp : Format.formatter -> snapshot -> unit
(** An aligned human-readable table. *)
