(* The core's available throughput, probed around each timed sample.

   On a host whose hardware threads are shared with other tenants, the
   benchmark's batches run about 1.6x slower, in windows of seconds,
   while the sibling hardware thread is busy. An IPC-bound kernel slows
   down by the same factor in the same windows; a latency-bound loop
   does not. [time] runs such a kernel -- independent loads and
   multiplies over an L1-resident buffer, about 16 us -- and returns its
   wall time in ns. It is the benchmark's own code, so no change to the
   program moves it. *)

let buf = Bytes.init 16384 (fun i -> Char.chr ((i * 7) land 255))

let kernel () =
  let h = ref 0 in
  for r = 0 to 3 do
    for i = 0 to 4095 do
      h := !h + (Char.code (Bytes.unsafe_get buf ((i * 4) + r)) * (i lxor r))
    done
  done;
  !h

(* Runs the kernel once untimed first, so the timed run finds its buffer
   in cache whatever ran before it. *)
let time () =
  ignore (Sys.opaque_identity (kernel ()));
  let t0 = Spans.now () in
  ignore (Sys.opaque_identity (kernel ()));
  float_of_int (Spans.now () - t0)

(* A probe is quiet when it ran within [tolerance] of the run's 5th
   percentile probe: [limit] of all the run's probes. *)
let tolerance = 1.2

let limit probes = tolerance *. (Stats.sorted probes).(Array.length probes / 20)

(* Which samples were taken while the core was quiet: [before.(i)] and
   [after.(i)] are the probes that bracket sample [i], and both must be
   at most [limit]. When fewer than [min] samples are quiet, all of them
   count. *)
let quiet ~limit ~min ~before ~after =
  let q = Array.init (Array.length before) (fun i -> before.(i) <= limit && after.(i) <= limit) in
  if Array.fold_left (fun n b -> if b then n + 1 else n) 0 q >= min then q else Array.make (Array.length q) true

(* The samples of [a] whose [mask] entry is set, in order. *)
let pick mask a = Array.of_list (List.filteri (fun i _ -> mask.(i)) (Array.to_list a))
