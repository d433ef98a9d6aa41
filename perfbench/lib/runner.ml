(* One benchmark run: set up the workload's engines, warm them, drive
   fixed-size batches closed-loop for the requested time, check every
   output against the workload's oracle, and derive the metrics. *)

open Dejavu_core

(* --- Per-packet signatures and the correctness check --- *)

type sig_ = {
  tag : int;  (** 1 emitted, 2 dropped, 3 to CPU, 4 error *)
  port : int;
  frame : Bytes.t option;
  rounds : int;
  recircs : int;
  resubmits : int;
  latency : float;
}

let sig_of = function
  | Error e ->
      { tag = 4; port = 0; frame = Some (Bytes.of_string e); rounds = 0; recircs = 0; resubmits = 0; latency = 0.0 }
  | Ok (o : Runtime.outcome) ->
      let tag, port, frame =
        match o.Runtime.verdict with
        | Asic.Chip.Emitted { port; frame } -> (1, port, Some frame)
        | Asic.Chip.Dropped -> (2, 0, None)
        | Asic.Chip.To_cpu f -> (3, 0, Some f)
      in
      let c = o.Runtime.counters in
      {
        tag;
        port;
        frame;
        rounds = c.Runtime.Counters.cpu_round_trips;
        recircs = c.Runtime.Counters.recircs;
        resubmits = c.Runtime.Counters.resubmits;
        latency = c.Runtime.Counters.latency_ns;
      }

(* A packet fails when it errored, or when its verdict, port or frame
   differs from the oracle's -- or, unless only outputs are compared,
   its modelled CPU round trips, recirculations, resubmissions or
   latency do. *)
let packet_fails ~outputs_only ~expected got =
  got.tag = 4
  || got.tag <> expected.tag
  || got.port <> expected.port
  || (not (Option.equal Bytes.equal got.frame expected.frame))
  || (not outputs_only)
     && (got.rounds <> expected.rounds
        || got.recircs <> expected.recircs
        || got.resubmits <> expected.resubmits
        || not (Float.equal got.latency expected.latency))

(* --- Growable float columns --- *)

module Col = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push c v =
    if c.n = Array.length c.a then begin
      let b = Array.make (2 * c.n) 0.0 in
      Array.blit c.a 0 b 0 c.n;
      c.a <- b
    end;
    c.a.(c.n) <- v;
    c.n <- c.n + 1

  let to_array c = Array.sub c.a 0 c.n
end

(* --- Host --- *)

let read_first path ~prefix =
  try
    let ic = open_in path in
    let rec go () =
      match input_line ic with
      | l when prefix = "" || String.starts_with ~prefix l -> Some l
      | _ -> go ()
      | exception End_of_file -> None
    in
    let r = go () in
    close_in ic;
    r
  with Sys_error _ -> None

let host () =
  let cpu =
    match read_first "/proc/cpuinfo" ~prefix:"model name" with
    | Some l -> (
        match String.index_opt l ':' with
        | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
        | None -> l)
    | None -> "unknown"
  in
  let load =
    match read_first "/proc/loadavg" ~prefix:"" with
    | Some l -> String.concat " " (List.filteri (fun i _ -> i < 3) (String.split_on_char ' ' l))
    | None -> "unknown"
  in
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("cpu", cpu);
    ("loadavg", load);
  ]

(* --- The run --- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let batch_size = Setup.batch_size

(* Untimed batches before the clock starts, after the fig2 workloads
   have sent every flow of their population once (so no red flow's
   first-packet punt lands in the timed phase): the zipf cache fills, the
   churn store reaches capacity. *)
let warm_batches = 32

(* Flow population of the two uniform fig2 workloads: small enough that
   most red flows recur within one batch. *)
let fig2_population = 128

(* stateful_churn: ops per batch from the FIB churn trace. *)
let churn_ops_per_batch = 8

(* Batches whose allocation is counted for words_per_pkt: always the
   first [words_window w] timed batches, so the figure is a pure function
   of the seed on sequential engines. The Zipf cache's hit ratio wanders
   over thousands of batches, so its window is longest. *)
let words_window = function Setup.Fig2_zipf_emc -> 1024 | Setup.Stateful_churn -> 128 | _ -> 256

(* setup_s: the measured engine is built once more, timed, whenever this
   long has passed in the timed phase, so the builds meet the host's
   quiet and busy windows as the batches do (see Probe). *)
let setup_every_ns = 250_000_000

(* heap_peak_mb samples the measured engine after every this many timed
   batches. *)
let heap_sample_every = 64
let span_cap = 300_000

(* Headroom kept free in the span recorder before a batch is traced. *)
let span_reserve = 64 * batch_size

(* The trace.coverage gate: layer spans must account for the traced
   batches' time to within this share. *)
let coverage_tolerance = 0.05

(* Share of the traced batches' wall time that layer spans account for. *)
let coverage sp ~wall_ns = if wall_ns > 0 then float_of_int (Spans.attributed_ns sp) /. float_of_int wall_ns else 0.0

let coverage_ok c = Float.abs (c -. 1.0) <= coverage_tolerance

let now = Spans.now
let no_result : (Runtime.outcome, string) Stdlib.result = Error "not run"

type gc_mark = { words : float; minor : int; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

let run ~workload:w ~seed ~seconds ~trace ~out_dir =
  let open Setup in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let sharded = w = Fig2_sharded_d2 in
  let domains = (Setup.engine w).Runtime.Engine.domains in
  (* The measured engine, after one untimed warm-up build. *)
  ignore (Setup.build w (Setup.engine w));
  let rt, _ = Setup.build w (Setup.engine w) in
  (* The measured engine's heap: every word reachable from it, so the
     oracle, the traced engine and the inputs held beside it are left
     out. *)
  let engine_mb () = float_of_int (Obj.reachable_words (Obj.repr rt) * (Sys.word_size / 8)) /. 1048576.0 in
  let check, _ = Setup.build w (Setup.check_engine w) in
  let sp = Spans.create ~cap:(if trace then span_cap else 0) in
  let traced = if trace then Some (Shadow.build ~sp w) else None in
  (* Inputs: the fig2 flow population and, per batch, the flow of each
     packet; churn batches are generated whole. *)
  let flows =
    match w with
    | Fig2_uncached | Fig2_sharded_d2 -> Gen.fig2_flows ~seed fig2_population
    | Fig2_zipf_emc -> Gen.fig2_flows ~seed zipf_population
    | Stateful_churn -> [||]
  in
  let zipf = if w = Fig2_zipf_emc then Some (Gen.zipf_cdf ~s:1.1 zipf_population) else None in
  let batch b =
    if w = Stateful_churn then (Gen.churn_batch ~seed ~batch_size b, [||])
    else
      let ids = Gen.fig2_batch ~seed ?zipf ~n:(Array.length flows) ~batch_size b in
      (Array.map (fun f -> (0, Bytes.copy flows.(f))) ids, ids)
  in
  (* The churn trace's FIB ops; its firewall ACL toggles are dropped,
     as the churn chain deploys no firewall. *)
  let ops =
    if w = Stateful_churn then
      Nflib.Catalog.fib_churn_trace ~seed ~n:40_000 ()
      |> List.filter (function
           | Ctrl.Table (t, _) -> t = Nflib.Catalog.routes_table_name
           | Ctrl.Reg_reset _ -> false)
      |> Array.of_list
    else [||]
  in
  let ops_for b =
    let lo = b * churn_ops_per_batch in
    if lo + churn_ops_per_batch > Array.length ops then []
    else Array.to_list (Array.sub ops lo churn_ops_per_batch)
  in
  let results = Array.make batch_size no_result in
  let each i r = results.(i) <- r in
  let sigs n = Array.init n (fun i -> sig_of results.(i)) in
  let attempted = ref 0 and failed = ref 0 in
  let count_packets ~outputs_only ~expected got =
    Array.iteri
      (fun i g ->
        incr attempted;
        if packet_fails ~outputs_only ~expected:expected.(i) g then incr failed)
      got
  in
  (* Oracle outputs. Once a red flow has its LB session the fig2 paths
     hold no per-flow state, so every packet's expected outcome is its
     flow's outcome on the oracle: the first packet's (a red flow's punt)
     or any later one's. Each engine tracks which flows it has seen.
     stateful_churn's state evolves with every packet, so its oracle runs
     in lockstep instead. *)
  let oracle_pass () = Array.map (fun f -> sig_of (Runtime.process check ~in_port:0 (Bytes.copy f))) flows in
  let first_sig = oracle_pass () in
  let later_sig = oracle_pass () in
  let outputs_only = sharded in
  let expect seen ids =
    Array.map
      (fun f ->
        if seen.(f) then later_sig.(f)
        else begin
          seen.(f) <- true;
          first_sig.(f)
        end)
      ids
  in
  let seen_measured = Array.make (Array.length flows) false in
  let seen_traced = Array.make (Array.length flows) false in
  let ctrl_submitted = ref 0 and ctrl_failed = ref 0 in
  let state_checks = ref 0 and state_failed = ref 0 in
  let state_check () =
    incr state_checks;
    if
      State_store.digest (Runtime.state_stores rt) <> State_store.digest (Runtime.state_stores check)
      || Ctrl.state_digest (Runtime.chip rt) <> Ctrl.state_digest (Runtime.chip check)
    then incr state_failed
  in
  let submit_ops b =
    match ops_for b with
    | [] -> []
    | l ->
        ctrl_submitted := !ctrl_submitted + List.length l;
        ignore (Ctrl.submit (Runtime.control rt) l);
        ignore (Ctrl.submit (Runtime.control check) l);
        Option.iter (fun (s : Shadow.t) -> ignore (Ctrl.submit (Runtime.control s.Shadow.rt) l)) traced;
        l
  in
  let run_measured pkts_list =
    if sharded then Runtime.process_batch_parallel ~domains ~each rt pkts_list
    else Runtime.process_batch ~each rt pkts_list
  in
  (* The churn oracle: same batch, same ops, no cache; compared per
     packet and by batch digest. *)
  let churn_check b pkts_list got stats =
    ignore (Runtime.sync check);
    let cs = Runtime.process_batch ~each check pkts_list in
    let expected = sigs (List.length pkts_list) in
    count_packets ~outputs_only:false ~expected got;
    incr state_checks;
    if cs.Runtime.digest <> stats.Runtime.digest then incr state_failed;
    if b mod 16 = 15 then state_check ();
    expected
  in
  let traced_id = ref 0 in
  let run_traced (s : Shadow.t) b pkts =
    let first_id = !traced_id in
    traced_id := first_id + Array.length pkts;
    if sharded then begin
      Shadow.batch_sharded s ~domains ~batch_id:b ~first_id pkts each;
      None
    end
    else Some (Shadow.batch s ~batch_id:b ~first_id pkts each)
  in
  (* Warm-up: untimed, outputs checked like timed ones. *)
  let population_pass =
    List.init
      ((Array.length flows + batch_size - 1) / batch_size)
      (fun k ->
        let ids = Array.init (min batch_size (Array.length flows - (k * batch_size))) (fun i -> (k * batch_size) + i) in
        (Array.map (fun f -> (0, Bytes.copy flows.(f))) ids, ids))
  in
  let warm = population_pass @ List.init warm_batches batch in
  List.iteri (fun b (pkts, ids) ->
    let pkts_list = Array.to_list pkts in
    let submitted = submit_ops b in
    let applied, _ = Runtime.sync rt in
    ctrl_failed := !ctrl_failed + (List.length submitted - applied);
    let stats = run_measured pkts_list in
    let got = sigs (Array.length pkts) in
    let expected =
      if w = Stateful_churn then churn_check b pkts_list got stats
      else begin
        let e = expect seen_measured ids in
        count_packets ~outputs_only ~expected:e got;
        e
      end
    in
    Option.iter
      (fun s ->
        let digest = run_traced s b pkts in
        let expected = if w = Stateful_churn then expected else expect seen_traced ids in
        count_packets ~outputs_only ~expected (sigs (Array.length pkts));
        if w = Stateful_churn && digest <> Some stats.Runtime.digest then incr state_failed)
      traced)
    warm;
  Spans.reset sp;
  Gc.compact ();
  (* Per-layer baselines at the start of the timed phase. *)
  let cache_totals () =
    Option.map
      (fun c ->
        let s = Flow_cache.stats c in
        Flow_cache.(s.hits, s.misses, s.uncacheable, s.invalidations, s.evictions))
      (Runtime.flow_cache rt)
  in
  let cache0 = cache_totals () in
  let store_totals () =
    Array.fold_left
      (fun (h, m, e, occ, n) st ->
        List.fold_left
          (fun (h, m, e, occ, n) (_, o, (s : State_store.table_stats)) ->
            (h + s.hits, m + s.misses, e + s.evictions, occ + o, n + 1))
          (h, m, e, occ, n) (State_store.per_table st))
      (0, 0, 0, 0, 0) (Runtime.state_stores rt)
  in
  let store0 = store_totals () in
  let heap_peak_mb = ref (engine_mb ()) in
  (* Timed phase. *)
  let batch_ns = Col.create () and sync_ns = Col.create () in
  let probe_before = Col.create () and probe_after = Col.create () in
  let build_ns = Col.create () and build_before = Col.create () and build_after = Col.create () in
  let last_build = ref 0 in
  let sync_nonempty_ns = Col.create () in
  let ops_applied = ref 0 in
  let words = ref 0.0 and words_pkts = ref 0 in
  let minor = ref 0 and major = ref 0 in
  let round_trips = ref 0 and recircs = ref 0 in
  let traced_wall = ref 0 and traced_base = ref 0 and traced_batches = ref 0 in
  let shard_overhead = Col.create () in
  let packets = ref 0 in
  let deadline = now () + (seconds * 1_000_000_000) in
  let b = ref warm_batches in
  let timed = ref 0 in
  while now () < deadline || !timed < words_window w do
    let bi = !b in
    let pkts, ids = batch bi in
    let pkts_list = Array.to_list pkts in
    let submitted = submit_ops bi in
    Col.push probe_before (Probe.time ());
    let t0 = now () in
    let applied, _ = Runtime.sync rt in
    let sync_end = now () in
    let g0 = gc_mark () in
    let t1 = now () in
    let stats = run_measured pkts_list in
    let t2 = now () in
    let g1 = gc_mark () in
    Col.push probe_after (Probe.time ());
    (* A timed set-up, dropped at once. *)
    if now () - !last_build >= setup_every_ns then begin
      Col.push build_before (Probe.time ());
      let t0 = now () in
      ignore (Sys.opaque_identity (Setup.build w (Setup.engine w)));
      Col.push build_ns (float_of_int (now () - t0));
      Col.push build_after (Probe.time ());
      last_build := now ()
    end;
    let got = sigs (Array.length pkts) in
    Col.push batch_ns (float_of_int (t2 - t1));
    Col.push sync_ns (float_of_int (sync_end - t0));
    if submitted <> [] then Col.push sync_nonempty_ns (float_of_int (sync_end - t0));
    ops_applied := !ops_applied + applied;
    ctrl_failed := !ctrl_failed + (List.length submitted - applied);
    if !timed < words_window w then begin
      words := !words +. (g1.words -. g0.words);
      words_pkts := !words_pkts + Array.length pkts
    end;
    minor := !minor + (g1.minor - g0.minor);
    major := !major + (g1.major - g0.major);
    round_trips := !round_trips + stats.Runtime.counters.Runtime.Counters.cpu_round_trips;
    recircs := !recircs + stats.Runtime.counters.Runtime.Counters.recircs;
    packets := !packets + Array.length pkts;
    let expected =
      if w = Stateful_churn then churn_check bi pkts_list got stats
      else begin
        let e = expect seen_measured ids in
        count_packets ~outputs_only ~expected:e got;
        e
      end
    in
    (match traced with
    | Some s when Spans.room sp >= span_reserve ->
        let s0 = now () in
        let digest = run_traced s bi pkts in
        let s1 = now () in
        let expected = if w = Stateful_churn then expected else expect seen_traced ids in
        count_packets ~outputs_only ~expected (sigs (Array.length pkts));
        if w = Stateful_churn && digest <> Some stats.Runtime.digest then incr state_failed;
        traced_wall := !traced_wall + (s1 - s0);
        traced_base := !traced_base + (t2 - t1) + (sync_end - t0);
        incr traced_batches
    | _ -> ());
    if !timed mod heap_sample_every = heap_sample_every - 1 then heap_peak_mb := Float.max !heap_peak_mb (engine_mb ());
    (* The sharded batch's cost beyond its slowest shard: the same
       shards run sequentially on the (steady) oracle engine. *)
    if trace && sharded then begin
      let slowest = ref 0 in
      for d = 0 to domains - 1 do
        let sub = List.filter (fun (p, f) -> Runtime.shard_of_packet ~domains p f = d) pkts_list in
        let t0 = now () in
        ignore (Runtime.process_batch check sub);
        slowest := max !slowest (now () - t0)
      done;
      Col.push shard_overhead (float_of_int (t2 - t1 - !slowest))
    end;
    incr b;
    incr timed
  done;
  if w = Stateful_churn then state_check ();
  let heap_peak_mb = Float.max !heap_peak_mb (engine_mb ()) in
  (* End-to-end metrics. The timing ones count only the batches taken
     while the core was quiet (see Probe); every batch is still checked. *)
  let before = Col.to_array probe_before and after = Col.to_array probe_after in
  let b_before = Col.to_array build_before and b_after = Col.to_array build_after in
  let limit = Probe.limit (Array.concat [ before; after; b_before; b_after ]) in
  let quiet = Probe.quiet ~limit ~min:(Stats.beyond + 1) ~before ~after in
  let all_batches = Array.length quiet in
  let builds = Col.to_array build_ns in
  let quiet_builds = Probe.pick (Probe.quiet ~limit ~min:1 ~before:b_before ~after:b_after) builds in
  let setup_s = Stats.median quiet_builds /. 1e9 in
  let bn = Probe.pick quiet (Col.to_array batch_ns) in
  let busy_s = (Stats.sum bn +. Stats.sum (Probe.pick quiet (Col.to_array sync_ns))) /. 1e9 in
  let pkts_per_s = float_of_int (Array.length bn * batch_size) /. busy_s in
  let p50 = Stats.median bn /. 1e3 in
  let tail_us, tail_pct, segments =
    match Stats.segmented_tail bn with
    | Some (v, p, k) -> (v /. 1e3, p, k)
    | None -> failwith "too few batches for a tail"
  in
  let words_per_pkt = !words /. float_of_int !words_pkts in
  let kpkt = float_of_int !packets /. 1000.0 in
  let fail_ratio = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let sync_total_ns = Stats.sum (Col.to_array sync_ns) in
  let ctrl_ops_per_s = if sync_total_ns > 0.0 then float_of_int !ops_applied /. (sync_total_ns /. 1e9) else 0.0 in
  let ctrl_fail_ratio = float_of_int !ctrl_failed /. float_of_int (max 1 !ctrl_submitted) in
  note "batches=%d packets=%d batch_size=%d seconds=%d seed=%d" all_batches !packets batch_size seconds seed;
  note
    "timing metrics over the %d of %d batches, and setup_s over the %d of %d builds, whose bracketing probes ran within %.1fx of the p5 probe (%.1f us)"
    (Array.length bn) all_batches (Array.length quiet_builds) (Array.length builds) Probe.tolerance
    (limit /. Probe.tolerance /. 1e3);
  note
    "batch_tail_us is p%.2f: per each of %d equal segments of the timed batches, the highest percentile with >= %d batches beyond it; median over segments"
    tail_pct segments Stats.beyond;
  note "heap_peak_mb: peak of the words reachable from the measured engine, sampled every %d timed batches"
    heap_sample_every;
  (let s = Stats.sorted bn in
   let q p = s.(min (Array.length s - 1) (int_of_float (p *. float_of_int (Array.length s)))) /. 1e3 in
   note "batch_us quantiles: p10=%.0f p25=%.0f p50=%.0f p75=%.0f p90=%.0f max=%.0f" (q 0.1) (q 0.25) (q 0.5)
     (q 0.75) (q 0.9) (q 1.0));
  note "fail_ratio=%.6g (%d of %d packets and checks)" fail_ratio !failed !attempted;
  if w = Stateful_churn then
    note "ctrl_ops_per_s=%.6g ctrl_fail_ratio=%.6g (%d of %d ops failed; %d of %d state/digest checks failed)"
      ctrl_ops_per_s ctrl_fail_ratio !ctrl_failed !ctrl_submitted !state_failed !state_checks;
  let e2e =
    [
      ("pkts_per_s", pkts_per_s, "pkts/s");
      ("batch_p50_us", p50, "us");
      ("batch_tail_us", tail_us, "us");
      ("words_per_pkt", words_per_pkt, "words");
      ("heap_peak_mb", heap_peak_mb, "MB");
      ("setup_s", setup_s, "s");
    ]
  in
  (* Per-layer metrics (traced run). *)
  let layer, trace_ok =
    match traced with
    | None -> ([], true)
    | Some s ->
        let agg = Spans.aggregate sp in
        let find n = List.assoc_opt n agg in
        let med f n = match find n with Some a -> Stats.median (f a) | None -> 0.0 in
        let calls n = match find n with Some a -> a.Spans.calls | None -> 0 in
        let total n = med (fun a -> a.Spans.total_ns) n and self n = med (fun a -> a.Spans.self_ns) n in
        let words n = med (fun a -> a.Spans.words) n in
        let coverage = coverage sp ~wall_ns:!traced_wall in
        let overhead_pct =
          if !traced_base > 0 then 100.0 *. ((float_of_int !traced_wall /. float_of_int !traced_base) -. 1.0) else 0.0
        in
        let per_proc n = float_of_int (calls n) /. float_of_int (max 1 (calls "runtime.process")) in
        (* Table lookups, probed off the timeline on a replica of the
           traced chip. Each MAU pass runs through the reference control
           interpreter with a table environment that times
           P4ir.Table.lookup on the PHV as it stands when the table is
           applied; so only tables on the packet's path are timed, with
           the keys the pipeline presents. *)
        let replicate_us = Col.create () in
        let probe_chip = ref (Runtime.chip s.Shadow.rt) in
        for _ = 1 to 5 do
          let t0 = now () in
          (match Asic.Chip.replicate (Runtime.chip s.Shadow.rt) with
          | Ok c -> probe_chip := c
          | Error e -> failwith ("Chip.replicate: " ^ e));
          Col.push replicate_us (float_of_int (now () - t0) /. 1e3)
        done;
        let table_ns : (string, Col.t) Hashtbl.t = Hashtbl.create 32 in
        let time_lookup tbl phv =
          let t0 = now () in
          ignore (Sys.opaque_identity (P4ir.Table.lookup tbl phv));
          let dt = now () - t0 in
          let name = P4ir.Table.name tbl in
          let c =
            match Hashtbl.find_opt table_ns name with
            | Some c -> c
            | None ->
                let c = Col.create () in
                Hashtbl.replace table_ns name c;
                c
          in
          Col.push c (float_of_int dt)
        in
        let probe pl phv =
          let prog = Asic.Pipelet.program pl in
          let env name =
            let t = P4ir.Program.find_table prog name in
            Option.iter (fun tbl -> time_lookup tbl phv) t;
            t
          in
          P4ir.Control.exec ~regs:(P4ir.Program.reg_env prog) env prog.P4ir.Program.control phv
        in
        (* The replica runs whole packets, CPU punts included, so the
           tables past a punt are reached; its handlers keep no state
           store, and nothing on it is traced. *)
        let untraced = { s with Shadow.sp = Spans.create ~cap:0 } in
        let handlers = Hashtbl.create 4 in
        List.iter (fun (nf, f) -> Hashtbl.replace handlers nf (f !probe_chip None)) Setup.factories;
        let tg = { Shadow.chip = !probe_chip; handlers; cache = None; probe = Some probe } in
        for k = 0 to 3 do
          Array.iteri
            (fun i (in_port, frame) -> ignore (Shadow.process untraced tg ~id:i ~in_port frame))
            (fst (batch (!b + k)))
        done;
        let tables =
          Hashtbl.fold (fun n c acc -> (n, Stats.median (Col.to_array c)) :: acc) table_ns []
          |> List.sort compare
        in
        List.iter (fun (n, v) -> note "table %s lookup_ns=%.0f" n v) tables;
        let table n = match List.assoc_opt n tables with Some v -> v | None -> 0.0 in
        let cache_m =
          match (cache_totals (), cache0) with
          | Some (h1, m1, u1, i1, e1), Some (h0, m0, u0, i0, e0) ->
              let h = h1 - h0 and m = m1 - m0 in
              let lookups = float_of_int (max 1 (h + m)) in
              [
                ("flow_cache.hit_ratio", float_of_int h /. lookups, "ratio");
                ("flow_cache.uncacheable_ratio", float_of_int (u1 - u0) /. lookups, "ratio");
                ("flow_cache.invalidations_per_kpkt", float_of_int (i1 - i0) /. kpkt, "1/kpkt");
                ("flow_cache.evictions_per_kpkt", float_of_int (e1 - e0) /. kpkt, "1/kpkt");
              ]
          | _ ->
              [
                ("flow_cache.hit_ratio", 0.0, "ratio");
                ("flow_cache.uncacheable_ratio", 0.0, "ratio");
                ("flow_cache.invalidations_per_kpkt", 0.0, "1/kpkt");
                ("flow_cache.evictions_per_kpkt", 0.0, "1/kpkt");
              ]
        in
        let h1, m1, e1, occ, ntab = store_totals () in
        let h0, m0, e0, _, _ = store0 in
        let store_cap = match (Setup.engine w).Runtime.Engine.state with Runtime.Engine.Bounded { capacity; _ } -> capacity | Runtime.Engine.No_state -> 0 in
        let imbalance =
          let per_batch =
            Array.init 32 (fun k ->
                let counts = Array.make 2 0 in
                Array.iter (fun (p, f) -> let d = Runtime.shard_of_packet ~domains:2 p f in counts.(d) <- counts.(d) + 1) (fst (batch (warm_batches + k)));
                float_of_int (max counts.(0) counts.(1)) /. (float_of_int batch_size /. 2.0))
          in
          Stats.median per_batch
        in
        let ok = (not sp.Spans.overflowed) && !traced_batches > 0 && coverage_ok coverage in
        note
          "trace: %d batches traced, %d spans, coverage=%.4f (layer self times over traced batch time; gate |coverage-1| <= %.2f), overhead=%.1f%%"
          !traced_batches (Spans.length sp) coverage coverage_tolerance overhead_pct;
        note
          "runtime.process.ns, runtime.self.ns, chip.inject.ns and chip.tm.ns time the benchmark's mirror of Runtime.process and the chip passes (shadow.ml), not the library's; trace.overhead_pct is their drift signal";
        let path = Filename.concat out_dir (Printf.sprintf "spans-%s.tsv" (name w)) in
        Spans.write sp ~path
          ~header:
            (Printf.sprintf "workload=%s seed=%d seconds=%d" (name w) seed seconds
            :: List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) (host ()));
        note "spans written to %s" path;
        ( [
            ("pipelet.parse.ns", total "pipelet.parse", "ns");
            ("pipelet.parse.words", words "pipelet.parse", "words");
            ("pipelet.mau.ns", total "pipelet.mau", "ns");
            ("pipelet.mau.words", words "pipelet.mau", "words");
            ("pipelet.deparse.ns", total "pipelet.deparse", "ns");
            ("pipelet.deparse.words", words "pipelet.deparse", "words");
            ("table.classifier.lookup.ns", table (Compose.nf_table_name ~nf:Nflib.Classifier.name Nflib.Classifier.table_name), "ns");
            ("table.routes.lookup.ns", table Nflib.Catalog.routes_table_name, "ns");
            ("table.lb_session.lookup.ns", table (Compose.nf_table_name ~nf:Nflib.Lb.name Nflib.Lb.table_name), "ns");
            ("chip.inject.ns", total "chip.inject", "ns");
            ("chip.tm.ns", self "chip.inject", "ns");
            ("chip.passes_per_pkt", per_proc "pipelet.mau", "passes/pkt");
            ("chip.recircs_per_pkt", float_of_int !recircs /. float_of_int !packets, "recircs/pkt");
            ("flow_cache.lookup.ns", total "flow_cache.lookup", "ns");
            ("flow_cache.commit.ns", total "flow_cache.commit", "ns");
          ]
          @ cache_m
          @ [
              ("runtime.process.ns", total "runtime.process", "ns");
              ("runtime.self.ns", self "runtime.process", "ns");
              ("runtime.cpu_round_trips_per_kpkt", float_of_int !round_trips /. kpkt, "1/kpkt");
              ("sfc_header.decode.ns", total "sfc_header.decode", "ns");
              ("nflib.lb.handler.ns", total "nflib.lb.handler", "ns");
              ("nflib.nat.handler.ns", total "nflib.nat.handler", "ns");
              ( "state_store.occupancy_ratio",
                (if store_cap > 0 && ntab > 0 then float_of_int occ /. float_of_int (store_cap * ntab) else 0.0),
                "ratio" );
              ( "state_store.hit_ratio",
                (let l = h1 - h0 + (m1 - m0) in if l > 0 then float_of_int (h1 - h0) /. float_of_int l else 0.0),
                "ratio" );
              ("state_store.evictions_per_kpkt", float_of_int (e1 - e0) /. kpkt, "1/kpkt");
              ("ctrl.sync.us", Stats.median (Col.to_array sync_nonempty_ns) /. 1e3, "us");
              ( "ctrl.ns_per_op",
                (if !ops_applied > 0 then sync_total_ns /. float_of_int !ops_applied else 0.0),
                "ns" );
              ("ctrl.ops_per_s", ctrl_ops_per_s, "ops/s");
              ( "shard.replicate.us",
                (if sharded then total "shard.replicate" /. 1e3 else Stats.median (Col.to_array replicate_us)),
                "us" );
              ("shard.imbalance", imbalance, "max/mean");
              ("shard.overhead.us", Stats.median (Col.to_array shard_overhead) /. 1e3, "us");
              ("gc.minor_per_kpkt", float_of_int !minor /. kpkt, "1/kpkt");
              ("gc.major_per_kpkt", float_of_int !major /. kpkt, "1/kpkt");
              ("trace.overhead_pct", overhead_pct, "%");
              ("trace.coverage", coverage, "ratio");
            ],
          ok )
  in
  let correct = !failed = 0 && !ctrl_failed = 0 && !state_failed = 0 && trace_ok in
  {
    correct;
    attempted = !attempted + !ctrl_submitted + !state_checks;
    failed = !failed + !ctrl_failed + !state_failed;
    metrics = (if trace then layer else e2e);
    notes = List.rev !notes;
  }
