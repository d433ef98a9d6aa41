type action = Reinject of Bytes.t | Consume
type handler = Sfc_header.t option -> Bytes.t -> action

(* The counter quadruple shared by per-packet outcomes and batch
   aggregates — one definition, added component-wise when batches (or
   shards) merge. *)
module Counters = struct
  type t = {
    cpu_round_trips : int;
    recircs : int;
    resubmits : int;
    latency_ns : float;
  }

  let zero =
    { cpu_round_trips = 0; recircs = 0; resubmits = 0; latency_ns = 0.0 }

  let add a b =
    {
      cpu_round_trips = a.cpu_round_trips + b.cpu_round_trips;
      recircs = a.recircs + b.recircs;
      resubmits = a.resubmits + b.resubmits;
      latency_ns = a.latency_ns +. b.latency_ns;
    }
end

(* The whole runtime configuration in one record: how packets execute
   (exec_mode), how much is observed (telemetry + ring_capacity), how
   batches parallelize (domains), and whether the exact-match flow
   cache fronts the pipeline (cache). One [configure] call replaces
   the scattered per-knob setters. *)
module Engine = struct
  type cache = Off | Emc of { capacity : int }

  (* The bounded state store behind stateful NFs' dynamic state —
     distinct constructor names from [cache] so unqualified knob
     construction stays unambiguous. *)
  type state = No_state | Bounded of { capacity : int; ttl_ns : int64 }

  type t = {
    exec_mode : Asic.Chip.exec_mode;
    telemetry : Telemetry.Level.t;
    domains : int;
    ring_capacity : int;
    cache : cache;
    state : state;
  }

  let default =
    {
      exec_mode = Asic.Chip.Fast;
      telemetry = Telemetry.Level.Off;
      domains = 1;
      ring_capacity = Observe.default_ring_capacity;
      cache = Off;
      state = No_state;
    }

  let store_config = function
    | No_state -> None
    | Bounded { capacity; ttl_ns } -> Some { State_store.capacity; ttl_ns }
end

(* Counter refs resolved once at enable time, so the per-packet cost of
   Counters mode is plain [incr]s and two clock reads. *)
type obs_state = {
  o : Observe.t;
  rx : int ref array;  (* per Ethernet port *)
  tx : int ref array;
  c_punts : int ref;  (* every to-CPU verdict, incl. resolved round trips *)
  c_ctrl_applied : int ref;
  c_ctrl_failed : int ref;
  c_gc_minor : int ref;  (* cumulative minor words allocated in batches *)
  c_gc_major : int ref;
  h_ns : Telemetry.Histogram.t;
  h_queue_depth : Telemetry.Histogram.t;  (* ctrl batches per drain *)
  h_drain_ns : Telemetry.Histogram.t;  (* submit-to-apply latency *)
  h_alloc_w : Telemetry.Histogram.t;  (* words allocated per packet *)
}

(* What one packet loop runs against: a chip, the CPU handlers bound to
   that chip and its shard's state store, and the chip's private flow
   cache and observer. The primary shard (the compiled chip) lives as
   long as the runtime; a sharded batch wraps each [Chip.replicate]
   clone in a shard of its own, dropped when the batch ends. *)
type shard = {
  chip : Asic.Chip.t;
  handlers : (string, handler) Hashtbl.t;
  cache : Flow_cache.t option;
  obs : obs_state option;
}

type t = {
  compiled : Compiler.t;
  (* Handler factories, re-applied whenever the chip or the store a
     handler serves changes: per replica, and after [configure]
     replaces the store array. *)
  factories : (string, Asic.Chip.t -> State_store.t option -> handler) Hashtbl.t;
  nf_ids : (int, string) Hashtbl.t;
  (* (path_id, service_index) -> reinjection pipeline, precomputed from
     the branching plan and the layout so per-CPU-reinject dispatch is a
     single hash probe instead of two linear scans. *)
  reinject : (int * int, int) Hashtbl.t;
  mutable engine : Engine.t;
  mutable main : shard;
  (* Bounded state stores, one per shard ([Engine.domains] of them),
     persistent across batches (unlike replica chips); [||] when the
     engine's state knob is [No_state]. Shard d binds [stores.(d)]. *)
  mutable stores : State_store.t array;
  (* Tallies of a cache switched off by [configure], folded into the
     next cache it builds so [cache.*] counters never restart. *)
  mutable retired_cache : Flow_cache.stats option;
  (* Control-plane update queue, drained onto the primary chip at batch
     boundaries. *)
  ctrl : Ctrl.queue;
}

let max_cpu_loops = 8

(* Where to reinject a CPU-handled packet so routing resumes correctly:
   prefer the ingress pipelet whose branching table knows the packet's
   (path, index) state; else the pipeline hosting the pending NF. Both
   sources are fixed once the chip is compiled, so the map is built
   here, at creation. *)
let build_reinject_map compiled =
  let reinject = Hashtbl.create 64 in
  List.iter
    (fun (c : Chain.t) ->
      List.iteri
        (fun index nf ->
          match Layout.location compiled.Compiler.layout nf with
          | Some id ->
              Hashtbl.replace reinject
                (c.Chain.path_id, index)
                id.Asic.Pipelet.pipeline
          | None -> ())
        c.Chain.nfs)
    compiled.Compiler.input.Compiler.chains;
  (* Branching entries override the chain fallback; iterate reversed so
     the plan's first entry for a (path, index) wins, as the old
     List.find_map did. *)
  List.iter
    (fun (e : Branching.entry) ->
      Hashtbl.replace reinject (e.Branching.path_id, e.Branching.index)
        e.Branching.pipeline)
    (List.rev compiled.Compiler.plan.Branching.branching);
  reinject

let chip t = t.main.chip

(* --- Control plane front door ---

   All runtime table/register mutation funnels through here: [apply_ops]
   applies a batch to the primary chip immediately (the caller
   guarantees it is between packet batches — the single-consumer
   contract), [control]/[submit] let producers on any domain queue
   batches, and [sync] — called automatically at the top of every
   packet batch — drains the queue onto the primary chip. Replica
   coherence is structural: sharded batches clone per-domain replicas
   from the primary after the drain, so a drained batch is visible to
   every shard of the next packet batch and to none of the current
   one. *)

let apply_ops t ops = Ctrl.apply_all t.main.chip ops
let control t = t.ctrl

let sync t =
  let obs = t.main.obs in
  let batches = Ctrl.drain t.ctrl in
  (* Queue-depth histogram: how many batches had piled up per drain —
     the back-pressure signal for producers. Only non-empty drains are
     observed; idle batch boundaries would drown the distribution in
     zeros. *)
  (match obs with
  | Some os when batches <> [] ->
      Telemetry.Histogram.observe os.h_queue_depth (List.length batches)
  | _ -> ());
  let applied, errs_rev =
    List.fold_left
      (fun (n, errs) (b : Ctrl.batch) ->
        (match obs with
        | None -> ()
        | Some os ->
            let waited =
              Int64.to_int
                (Int64.sub (Telemetry.Tclock.now_ns ()) b.Ctrl.submitted_ns)
            in
            Telemetry.Histogram.observe os.h_drain_ns (max 0 waited));
        match Ctrl.apply_all t.main.chip b.Ctrl.ops with
        | Ok k ->
            Ctrl.note t.ctrl b.Ctrl.id (Ok k);
            (match obs with
            | Some os -> os.c_ctrl_applied := !(os.c_ctrl_applied) + k
            | None -> ());
            (n + k, errs)
        | Error e ->
            Ctrl.note t.ctrl b.Ctrl.id (Error e);
            (match obs with
            | Some os -> incr os.c_ctrl_failed
            | None -> ());
            (n, (b.Ctrl.id, e) :: errs))
      (0, []) batches
  in
  (applied, List.rev errs_rev)

(* The engine's observer attached to [chip], its hot-path counters
   resolved; none at [Off]. *)
let observer chip (e : Engine.t) =
  match e.Engine.telemetry with
  | Telemetry.Level.Off -> None
  | level ->
      let o = Observe.create ~ring_capacity:e.Engine.ring_capacity level in
      Observe.attach o chip;
      let reg = Observe.registry o in
      let c = Telemetry.Registry.counter reg in
      let hist = Telemetry.Registry.histogram reg in
      let n_ports = Asic.Spec.n_eth_ports (Asic.Chip.spec chip) in
      (* Bound one by one so registration (= display) order is
         sensible: record fields would evaluate right-to-left. The
         names [publish] and [sync_gauges] write are registered here
         too, in their slots. *)
      let register = List.iter (fun name -> ignore (c name)) in
      register [ "verdict.emitted"; "verdict.dropped"; "verdict.to_cpu"; "verdict.error" ];
      let c_punts = c "path.cpu_punts" in
      register
        [ "path.cpu_round_trips"; "path.recircs"; "path.resubmits"; "cache.hit"; "cache.miss" ];
      let c_ctrl_applied = c "ctrl.ops_applied" in
      let c_ctrl_failed = c "ctrl.batches_failed" in
      register [ "batch.errors_suppressed" ];
      let c_gc_minor = c "gc.minor_words" in
      let c_gc_major = c "gc.major_words" in
      let h_ns = hist "runtime.ns_per_packet" in
      let h_queue_depth = hist "ctrl.queue_depth" in
      let h_drain_ns = hist "ctrl.drain_ns" in
      let h_alloc_w = hist "runtime.alloc_words_per_packet" in
      let rx = Array.init n_ports (fun p -> c (Printf.sprintf "port.%d.rx" p)) in
      let tx = Array.init n_ports (fun p -> c (Printf.sprintf "port.%d.tx" p)) in
      Some
        { o; rx; tx; c_punts; c_ctrl_applied; c_ctrl_failed; c_gc_minor;
          c_gc_major; h_ns; h_queue_depth; h_drain_ns; h_alloc_w }

(* The store serving shard [d]. *)
let store_of t d = if Array.length t.stores = 0 then None else Some t.stores.(d)

(* Every factory applied to [chip] and shard [d]'s store. *)
let bind t chip d =
  let handlers = Hashtbl.create (Hashtbl.length t.factories) in
  Hashtbl.iter (fun nf f -> Hashtbl.replace handlers nf (f chip (store_of t d))) t.factories;
  handlers

(* Re-bind the primary shard after any store-array replacement, so
   its handlers never hold a dropped store. *)
let rebind t = t.main <- { t.main with handlers = bind t t.main.chip 0 }

let configure t (e : Engine.t) =
  let e = { e with Engine.domains = max 1 e.Engine.domains } in
  let prev = t.engine in
  let chip = t.main.chip in
  t.engine <- e;
  Asic.Chip.set_exec_mode chip e.Engine.exec_mode;
  (* State-store transitions: an unchanged knob at an unchanged shard
     count keeps the stores (entries, stats, clock) alive; a shard
     count change under an unchanged knob re-homes every entry to its
     new owner shard ([State_store.migrate]); any knob change starts
     fresh, mirroring the cache's semantics. *)
  (match
     ( Engine.store_config prev.Engine.state,
       Engine.store_config e.Engine.state )
   with
  | None, None -> ()
  | Some a, Some b when a = b && Array.length t.stores = e.Engine.domains -> ()
  | _, None ->
      if Array.length t.stores > 0 then begin
        t.stores <- [||];
        rebind t
      end
  | Some a, Some b when a = b && Array.length t.stores > 0 ->
      let fresh = Array.init e.Engine.domains (fun _ -> State_store.create b) in
      State_store.migrate ~from:t.stores ~into:fresh;
      t.stores <- fresh;
      rebind t
  | _, Some b ->
      t.stores <- Array.init e.Engine.domains (fun _ -> State_store.create b);
      rebind t);
  (* Re-attach only when an observation knob changed: reconfiguring
     exec_mode or domains must not wipe accumulated counters. *)
  let { obs; cache; _ } = t.main in
  let obs =
    if
      e.Engine.telemetry = prev.Engine.telemetry
      && e.Engine.ring_capacity = prev.Engine.ring_capacity
      && (Option.is_some obs || e.Engine.telemetry = Telemetry.Level.Off)
    then obs
    else begin
      if e.Engine.telemetry = Telemetry.Level.Off then Observe.detach chip;
      observer chip e
    end
  in
  (* Cache transitions: keep an unchanged cache (and its entries and
     stats) alive; anything else detaches the old recorders before
     building the replacement, so a chip never carries two sets of
     hooks. A resized or re-enabled cache starts empty but inherits the
     old tallies (kept aside while the cache is off), so its counters
     never run backwards. *)
  let cache =
    match (prev.Engine.cache, e.Engine.cache) with
    | Engine.Off, Engine.Off -> cache
    | Engine.Emc { capacity = a }, Engine.Emc { capacity = b }
      when a = b && Option.is_some cache ->
        cache
    | _, Engine.Off ->
        Option.iter
          (fun c ->
            Flow_cache.detach c;
            t.retired_cache <- Some (Flow_cache.stats c))
          cache;
        None
    | _, Engine.Emc { capacity } ->
        Option.iter Flow_cache.detach cache;
        let fresh = Flow_cache.create ~capacity chip in
        let adopt = Flow_cache.merge_stats ~into:fresh in
        Option.iter (fun c -> adopt (Flow_cache.stats c)) cache;
        Option.iter adopt t.retired_cache;
        t.retired_cache <- None;
        Some fresh
  in
  t.main <- { t.main with obs; cache }

let create ?(engine = Engine.default) compiled =
  let t =
    {
      compiled;
      factories = Hashtbl.create 8;
      nf_ids = Hashtbl.create 8;
      reinject = build_reinject_map compiled;
      engine = Engine.default;
      main =
        { chip = compiled.Compiler.chip; handlers = Hashtbl.create 8; cache = None; obs = None };
      stores = [||];
      retired_cache = None;
      ctrl = Ctrl.queue ();
    }
  in
  configure t engine;
  t

let engine t = t.engine
let flow_cache t = t.main.cache
let state_stores t = t.stores

let advance_state_time t ns =
  Array.fold_left (fun acc s -> acc + State_store.advance s ns) 0 t.stores

let on_to_cpu_state t nf factory =
  Hashtbl.replace t.factories nf factory;
  Hashtbl.replace t.main.handlers nf (factory t.main.chip (store_of t 0))

let register_nf_id t nf id = Hashtbl.replace t.nf_ids id nf

let default_nf_id name =
  let b = Bytes.of_string name in
  let h =
    Int64.to_int (Netpkt.Bytes_util.crc16 b ~off:0 ~len:(Bytes.length b))
  in
  if h = 0 then 1 else h

let telemetry t = Option.map (fun os -> os.o) t.main.obs

type outcome = {
  verdict : Asic.Chip.verdict;
  counters : Counters.t;
  mirrored : (int * Bytes.t) list;
}

let decode_sfc frame =
  match Netpkt.Eth.decode frame ~off:0 with
  | Ok eth when eth.Netpkt.Eth.ethertype = Netpkt.Eth.ethertype_sfc ->
      Result.to_option (Sfc_header.decode frame ~off:Netpkt.Eth.size)
  | Ok _ | Error _ -> None

let clear_cpu_mark frame =
  let frame = Bytes.copy frame in
  match decode_sfc frame with
  | None -> frame
  | Some hdr ->
      let context =
        Array.map
          (fun (k, v) ->
            if k = Sfc_header.ctx_key_cpu_reason then (0, 0) else (k, v))
          hdr.Sfc_header.context
      in
      let hdr = { hdr with Sfc_header.to_cpu = false; context } in
      Bytes.blit (Sfc_header.encode hdr) 0 frame Netpkt.Eth.size
        Sfc_header.byte_size;
      frame

let reinject_pipeline t frame =
  let default = t.compiled.Compiler.input.Compiler.entry_pipeline in
  match decode_sfc frame with
  | None -> default
  | Some hdr -> (
      let key =
        (hdr.Sfc_header.service_path_id, hdr.Sfc_header.service_index)
      in
      match Hashtbl.find_opt t.reinject key with
      | Some p -> p
      | None -> default)

let find_handler t sh sfc =
  match sfc with
  | None -> None
  | Some hdr -> (
      match Sfc_header.find_context hdr Sfc_header.ctx_key_cpu_reason with
      | None -> None
      | Some nf_id -> (
          match Hashtbl.find_opt t.nf_ids nf_id with
          | None -> None
          | Some nf -> Hashtbl.find_opt sh.handlers nf))

(* One packet through shard [sh]: the runtime's single packet loop. *)
let run_packet t sh ~in_port frame =
  (* [mirrored_rev] accumulates reversed (rev_append per pass, one final
     [List.rev]) so an N-round flow costs O(total) instead of the
     quadratic [acc @ round] append. [rounds] counts completed CPU
     round trips; the handler runs at most [max_cpu_loops] times — the
     bound is exact, checked before each dispatch. *)
  let jr =
    match sh.obs with
    | Some os when Telemetry.Level.journeys_on (Observe.level os.o) ->
        Some (ref [])
    | _ -> None
  in
  let t0 =
    match sh.obs with
    | None -> 0L
    | Some os ->
        if in_port >= 0 && in_port < Array.length os.rx then incr os.rx.(in_port);
        Telemetry.Tclock.now_ns ()
  in
  let rec loop frame rounds recircs resubmits latency mirrored_rev first =
    let injected =
      if first then Asic.Chip.inject sh.chip ~in_port frame
      else
        Asic.Chip.inject_cpu sh.chip
          ~pipeline:(reinject_pipeline t frame)
          frame
    in
    match injected with
    | Error e -> Error e
    | Ok r -> (
        (match jr with Some l -> l := r :: !l | None -> ());
        let recircs = recircs + r.Asic.Chip.recircs in
        let resubmits = resubmits + r.Asic.Chip.resubmits in
        let latency = latency +. r.Asic.Chip.latency_ns in
        let mirrored_rev = List.rev_append r.Asic.Chip.mirrored mirrored_rev in
        let finish () =
          Ok
            {
              verdict = r.Asic.Chip.verdict;
              counters =
                {
                  Counters.cpu_round_trips = rounds;
                  recircs;
                  resubmits;
                  latency_ns = latency;
                };
              mirrored = List.rev mirrored_rev;
            }
        in
        match r.Asic.Chip.verdict with
        | Asic.Chip.To_cpu bytes -> (
            (match sh.obs with Some os -> incr os.c_punts | None -> ());
            let sfc = decode_sfc bytes in
            match find_handler t sh sfc with
            | None -> finish ()
            | Some _ when rounds >= max_cpu_loops ->
                Error
                  (Printf.sprintf "Runtime.process: exceeded %d CPU loops"
                     max_cpu_loops)
            | Some handler -> (
                match handler sfc bytes with
                | Consume -> finish ()
                | Reinject bytes ->
                    loop bytes (rounds + 1) recircs resubmits latency
                      mirrored_rev false))
        | Asic.Chip.Emitted _ | Asic.Chip.Dropped -> finish ())
  in
  let res =
    match sh.cache with
    | None -> loop frame 0 0 0 0.0 [] true
    | Some c -> (
        match Flow_cache.lookup c ~in_port frame with
        | Some h ->
            (* Validated hit: the memoized verdict stands in for the
               whole pipeline run. Cacheable outcomes have zero path
               counters and no mirrors by construction, so this outcome
               equals what the re-run would have produced. *)
            Ok
              {
                verdict = h.Flow_cache.verdict;
                counters =
                  {
                    Counters.zero with
                    Counters.latency_ns = h.Flow_cache.latency_ns;
                  };
                mirrored = [];
              }
        | None ->
            let res = loop frame 0 0 0 0.0 [] true in
            (match res with
            | Ok o ->
                Flow_cache.commit c ~frame ~verdict:o.verdict
                  ~cpu_round_trips:o.counters.Counters.cpu_round_trips
                  ~recircs:o.counters.Counters.recircs
                  ~resubmits:o.counters.Counters.resubmits
                  ~mirrored:(o.mirrored <> [])
                  ~latency_ns:o.counters.Counters.latency_ns
            | Error _ -> Flow_cache.abort c);
            res)
  in
  (match sh.obs with
  | None -> ()
  | Some os -> (
      let wall = Int64.to_int (Int64.sub (Telemetry.Tclock.now_ns ()) t0) in
      Telemetry.Histogram.observe os.h_ns wall;
      (* Only what no other tally counts: verdicts and path shape reach
         the registry through [publish], cache hits from the cache. *)
      (match res with
      | Error e ->
          incr
            (Telemetry.Registry.counter (Observe.registry os.o)
               ("error." ^ Observe.error_class e))
      | Ok { verdict = Asic.Chip.Emitted { port; _ }; _ } ->
          if port >= 0 && port < Array.length os.tx then incr os.tx.(port)
      | Ok _ -> ());
      match jr with
      | None -> ()
      | Some l ->
          Observe.record os.o ~in_port ~wall_ns:wall frame (List.rev !l)
            (Result.map
               (fun o -> (o.verdict, o.counters.Counters.latency_ns))
               res)));
  res

type batch_stats = {
  packets : int;
  emitted : int;
  dropped : int;
  to_cpu : int;
  errors : int;
  counters : Counters.t;
  digest : int64;
  error_log : (int * string) list;
  suppressed : int;
}

let max_error_log = 8

let empty_stats =
  {
    packets = 0;
    emitted = 0;
    dropped = 0;
    to_cpu = 0;
    errors = 0;
    counters = Counters.zero;
    digest = 0L;
    error_log = [];
    suppressed = 0;
  }

(* The digest folds a verdict tag, the egress port and the full output
   frame of every packet — in batch order — through CRC-32, so two runs
   agree on the digest iff they produced byte-identical outputs in the
   same order. *)
let fold_digest acc tag port frame =
  let head = Bytes.create 5 in
  Bytes.set_uint8 head 0 tag;
  Bytes.set_int32_be head 1 (Int32.of_int port);
  let acc = Netpkt.Bytes_util.crc32 ~init:acc head ~off:0 ~len:5 in
  match frame with
  | None -> acc
  | Some b -> Netpkt.Bytes_util.crc32 ~init:acc b ~off:0 ~len:(Bytes.length b)

(* Minor and direct-major words allocated so far ([Gc.major_words]
   includes promotions, which [minor_words] already counted — subtract
   them so the pair sums to total words allocated). *)
let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words -. s.Gc.promoted_words)

(* One packet's result folded into a shard's running stats. The error
   log keeps the first [max_error_log] messages with their in_port,
   newest first, instead of swallowing them into a bare count: a batch
   that "just" reports errors=3 is undebuggable. *)
let tally s in_port (res : (outcome, string) result) =
  let packets = s.packets + 1 in
  match res with
  | Error e ->
      let error_log =
        if s.errors < max_error_log then (in_port, e) :: s.error_log
        else s.error_log
      in
      {
        s with
        packets;
        errors = s.errors + 1;
        digest = fold_digest s.digest 4 0 (Some (Bytes.of_string e));
        error_log;
      }
  | Ok o -> (
      let counters = Counters.add s.counters o.counters in
      match o.verdict with
      | Asic.Chip.Emitted { port; frame } ->
          {
            s with
            packets;
            counters;
            emitted = s.emitted + 1;
            digest = fold_digest s.digest 1 port (Some frame);
          }
      | Asic.Chip.Dropped ->
          {
            s with
            packets;
            counters;
            dropped = s.dropped + 1;
            digest = fold_digest s.digest 2 0 None;
          }
      | Asic.Chip.To_cpu frame ->
          {
            s with
            packets;
            counters;
            to_cpu = s.to_cpu + 1;
            digest = fold_digest s.digest 3 0 (Some frame);
          })

(* The one writer of the verdict and path counters: a finished call's
   stats added into the registry — once per [process_batch] from the
   merged stats, once per [process] from its one-packet tally. Shard
   replicas never count these facts, so the registry is the sum of the
   stats it was shown by construction. *)
let publish os s =
  let add name n =
    let c = Telemetry.Registry.counter (Observe.registry os.o) name in
    c := !c + n
  in
  add "verdict.emitted" s.emitted;
  add "verdict.dropped" s.dropped;
  add "verdict.to_cpu" s.to_cpu;
  add "verdict.error" s.errors;
  add "path.cpu_round_trips" s.counters.Counters.cpu_round_trips;
  add "path.recircs" s.counters.Counters.recircs;
  add "path.resubmits" s.counters.Counters.resubmits;
  add "batch.errors_suppressed" s.suppressed

let process t ~in_port frame =
  let res = run_packet t t.main ~in_port frame in
  (match t.main.obs with
  | Some os -> publish os (tally empty_stats in_port res)
  | None -> ());
  res

(* Run one shard's packets in order. [feed] calls its argument on every
   [(index, in_port, frame)], the index being the packet's position in
   the caller's batch — what [each] sees. The error log comes back
   oldest first. *)
let run_shard t sh each feed =
  let stats = ref empty_stats in
  feed (fun i in_port frame ->
      let res = run_packet t sh ~in_port frame in
      (match each with Some f -> f i res | None -> ());
      stats := tally !stats in_port res);
  { !stats with error_log = List.rev !stats.error_log }

(* Flow-affinity shard assignment: the CRC-32 of the *canonicalized*
   outer 5-tuple, mod the domain count — every packet of a connection,
   in either direction, lands on the same domain, in arrival order.
   The symmetry matters for NAT/LB: the reply flow (B -> A) must see
   the bindings the forward flow (A -> B) installed, so both must share
   a shard; hashing the directed tuple (the old behaviour) split them.
   Frames with no parseable IPv4 5-tuple shard by input port, which at
   least keeps a port's unparseable traffic ordered. *)
let shard_of_packet ~domains in_port frame =
  if domains <= 1 then 0
  else
    match Netpkt.Pkt.decode frame with
    | Error _ -> (in_port land max_int) mod domains
    | Ok layers -> (
        match Netpkt.Pkt.five_tuple_of layers with
        | Some ft ->
            Int64.to_int
              (Int64.rem
                 (Netpkt.Flow.hash_five_tuple_symmetric ft)
                 (Int64.of_int domains))
        | None -> (in_port land max_int) mod domains)

(* Shard [d] of a sharded batch: a share-nothing replica of the primary
   chip, handlers bound to it and to shard d's persistent store, and —
   per the engine — a private cache and observer armed on the replica,
   so no two domains ever touch the same recorder or entry. *)
let replica t d =
  match Asic.Chip.replicate t.main.chip with
  | Error e -> failwith ("Runtime.process_batch: " ^ e)
  | Ok chip ->
      let handlers = bind t chip d in
      let obs = observer chip t.engine in
      let cache =
        match t.engine.Engine.cache with
        | Engine.Off -> None
        | Engine.Emc { capacity } -> Some (Flow_cache.create ~capacity chip)
      in
      { chip; handlers; cache; obs }

(* Fold a finished replica's observations into the primary: table
   tallies into the primary chip's live stats (so a later snapshot's
   table sync sees them) and the observer — registry, journeys, flow
   summaries — through [Observe.merge]. Cache entries die with the
   replica; its tallies fold back so [flow_cache] keeps runtime-wide
   hit/miss accounting. *)
let fold_back t sh =
  (match (t.main.obs, sh.obs) with
  | Some os, Some ros ->
      Asic.Chip.merge_stats ~into:t.main.chip sh.chip;
      Observe.merge ~into:os.o ros.o
  | _ -> ());
  match (t.main.cache, sh.cache) with
  | Some root, Some rc -> Flow_cache.merge_stats ~into:root (Flow_cache.stats rc)
  | _ -> ()

(* Shard-major merge. The combined digest chains the per-shard digests
   in shard order through CRC-32: deterministic for a fixed [domains]
   (shard assignment and intra-shard order are both deterministic), and
   different from the sequential digest by construction — cross-count
   equivalence is checked on totals and per-packet outcomes instead.
   The error logs concatenate in shard order, capped again. *)
let merge_shards per_shard =
  List.fold_left
    (fun acc s ->
      let b = Bytes.create 8 in
      Bytes.set_int64_be b 0 s.digest;
      {
        acc with
        packets = acc.packets + s.packets;
        emitted = acc.emitted + s.emitted;
        dropped = acc.dropped + s.dropped;
        to_cpu = acc.to_cpu + s.to_cpu;
        errors = acc.errors + s.errors;
        counters = Counters.add acc.counters s.counters;
        digest = Netpkt.Bytes_util.crc32 ~init:acc.digest b ~off:0 ~len:8;
        error_log =
          List.filteri (fun i _ -> i < max_error_log) (acc.error_log @ s.error_log);
      })
    empty_stats per_shard

(* The packets bucketed by [shard_of_packet], each shard run on its own
   domain against its own replica, the replicas folded back in shard
   order and then dropped. *)
let run_sharded t ~domains each pkts =
  let buckets = Array.make domains [] in
  List.iteri
    (fun i (in_port, frame) ->
      let d = shard_of_packet ~domains in_port frame in
      buckets.(d) <- (i, in_port, frame) :: buckets.(d))
    pkts;
  let shards = Array.init domains (replica t) in
  let per_shard =
    Dpool.run ~domains
      (List.init domains (fun d () ->
           let own = List.rev buckets.(d) in
           run_shard t shards.(d) each (fun f ->
               List.iter (fun (i, in_port, frame) -> f i in_port frame) own)))
  in
  Array.iter (fold_back t) shards;
  merge_shards per_shard

let process_batch ?each t pkts =
  (* Batch boundary: drain queued control-plane batches onto the primary
     chip before any packet of this batch runs — and before any replica
     is cloned, so every shard sees the same post-update state. Outcomes
     land in the queue's result log. *)
  ignore (sync t);
  (* Allocation accounting brackets the packet work (after the ctrl
     drain, so control-plane work is not billed to packets). The
     per-packet figure includes whatever observation itself allocates —
     that is the point: it is the number the zero-alloc work must
     drive down at [Off], and the overhead it pays above it. *)
  let gc0 = match t.main.obs with None -> (0.0, 0.0) | Some _ -> gc_words () in
  let s =
    match t.engine.Engine.domains with
    | 1 ->
        run_shard t t.main each (fun f ->
            List.iteri (fun i (in_port, frame) -> f i in_port frame) pkts)
    | domains -> run_sharded t ~domains each pkts
  in
  (* Suppressed = every error the surviving log does not show. *)
  let s = { s with suppressed = s.errors - List.length s.error_log } in
  (match t.main.obs with
  | None -> ()
  | Some os ->
      let minor0, major0 = gc0 in
      let minor1, major1 = gc_words () in
      let minor_d = minor1 -. minor0 and major_d = major1 -. major0 in
      os.c_gc_minor := !(os.c_gc_minor) + max 0 (int_of_float minor_d);
      os.c_gc_major := !(os.c_gc_major) + max 0 (int_of_float major_d);
      if s.packets > 0 then
        Telemetry.Histogram.observe os.h_alloc_w
          (max 0
             (int_of_float ((minor_d +. major_d) /. float_of_int s.packets)));
      publish os s);
  s

let process_batch_parallel ?domains ?each t pkts =
  (match domains with
  | Some d when max 1 d <> t.engine.Engine.domains ->
      configure t { t.engine with Engine.domains = d }
  | _ -> ());
  process_batch ?each t pkts

(* --- Snapshot front door --- *)

(* Absolute values — the gauges (cache and store occupancy and
   capacity, queue depth) and the tallies other components keep (cache
   and store counts) — are read into the registry only here, at
   snapshot time: never on the hot path and never on a shard replica,
   so [Registry.merge] (which sums counters) cannot double-count them
   when sharded batches fold replica registries back. *)
let sync_gauges t =
  match t.main.obs with
  | None -> ()
  | Some os ->
      let reg = Observe.registry os.o in
      let set name v = Telemetry.Registry.counter reg name := v in
      let level name v = Telemetry.Registry.gauge reg name := v in
      (match t.main.cache with
      | None -> ()
      | Some c ->
          let s = Flow_cache.stats c in
          level "cache.occupancy" (Flow_cache.length c);
          level "cache.capacity" (Flow_cache.capacity c);
          set "cache.hit" s.Flow_cache.hits;
          set "cache.miss" s.Flow_cache.misses;
          set "cache.inserts" s.Flow_cache.inserts;
          set "cache.evictions" s.Flow_cache.evictions;
          set "cache.stale" s.Flow_cache.stale;
          set "cache.invalidations" s.Flow_cache.invalidations;
          set "cache.uncacheable" s.Flow_cache.uncacheable);
      if Array.length t.stores > 0 then begin
        level "state.stores" (Array.length t.stores);
        level "state.capacity"
          (State_store.config t.stores.(0)).State_store.capacity;
        List.iter
          (fun (name, occupancy, (s : State_store.table_stats)) ->
            let key metric = Printf.sprintf "state.%s.%s" name metric in
            level (key "occupancy") occupancy;
            set (key "hits") s.State_store.hits;
            set (key "misses") s.State_store.misses;
            set (key "inserts") s.State_store.inserts;
            set (key "evictions") s.State_store.evictions;
            set (key "expirations") s.State_store.expirations)
          (State_store.totals t.stores)
      end;
      level "ctrl.pending" (Ctrl.pending t.ctrl)

let snapshot t =
  match t.main.obs with
  | None -> None
  | Some os ->
      sync_gauges t;
      Some (Observe.snapshot os.o t.main.chip)
