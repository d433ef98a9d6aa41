(** Registry snapshot exporters: Prometheus text exposition, stable
    JSON-lines, and a windowed snapshot ring that turns monotone
    counters into rates.

    Everything here consumes the plain {!Registry.snapshot} data — no
    live registry access, so an export never races the hot path and a
    snapshot taken on one domain can be rendered on another. *)

val mangle : string -> string
(** A registry name as a legal Prometheus metric name: dots (the
    registry's namespace separator) and any other character outside
    [[a-zA-Z0-9_:]] become ['_']; a leading digit gains a ['_']
    prefix. *)

val prometheus : ?namespace:string -> Registry.snapshot -> string
(** The snapshot in Prometheus text exposition format (version 0.0.4):
    counters as [<ns>_<name>_total] with [# TYPE ... counter], gauges
    as [<ns>_<name>] with [# TYPE ... gauge],
    histograms as cumulative [_bucket{le="..."}] series (the log2
    bucket upper bounds, closing with [le="+Inf"]) plus [_sum] and
    [_count]. [namespace] (default ["dejavu"]) prefixes every metric.
    Ends with a newline, as scrapers require. *)

type metric = {
  metric : string;  (** mangled metric name *)
  labels : (string * string) list;
  value : float;
}

val parse_prometheus : string -> (metric list, string) result
(** Parse text exposition back into samples — the round-trip check for
    {!prometheus} (and the CI smoke step's scrape validator). Accepts
    comments, blank lines and label sets; [Error] pinpoints the first
    malformed line. *)

val json_lines : ?now_ns:int64 -> Registry.snapshot -> string
(** One self-contained JSON object per line (newline-terminated):
    [{"name":..,"type":"counter","value":..}] for counters (["gauge"]
    for gauges) and
    [{"name":..,"type":"histogram","count":..,"sum":..,"mean":..,
    "p50":..,"p99":..,"buckets":{..}}] for histograms, in snapshot
    (registration) order. [now_ns] stamps every line with a ["ts_ns"]
    field when given — stable keys, one metric per line, so the output
    appends cleanly to a log shipped elsewhere. *)

(** A bounded ring of timestamped snapshots: push one per batch (or
    per scrape) and read counter deltas back as per-second rates over
    the window — how [dejavu top] turns cumulative counters into live
    throughput numbers. *)
module Window : sig
  type t

  val create : capacity:int -> t
  (** Keeps the most recent [capacity] snapshots (clamped to >= 2). *)

  val push : t -> now_ns:int64 -> Registry.snapshot -> unit
  val length : t -> int

  val span_ns : t -> int64
  (** Time between the oldest and newest retained snapshots; 0 with
      fewer than two. *)

  val rates : t -> (string * float) list
  (** Per-second rates between the oldest and newest retained
      snapshots, in the newest snapshot's order: counters rate their
      value; histograms rate their sample [count] (reported under
      [name ^ ".count"]); gauges are levels, not tallies, and get no
      rate. Empty with fewer than two snapshots or a
      zero span. Names absent from the oldest snapshot count from
      zero. *)
end
