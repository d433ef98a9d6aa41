(* The traced engine: [Runtime.process] and [Asic.Chip.inject] re-composed
   from the layers' public calls, with a span around every call that
   crosses a layer boundary.

   Spans have to be recorded from the benchmark's own code, and the
   runtime and chip compose their layers internally, so this module
   mirrors their glue -- the CPU-punt loop, flow-cache front, traffic
   manager walk -- line for line (see [Runtime.process] and
   [Chip.ingress_pass]/[egress_pass]) and calls the real
   [Pipelet.parse]/[process]/[deparse_fast], [Flow_cache.lookup]/
   [commit], [Sfc_header.decode], handlers and [Runtime.sync] in
   between. Every traced packet's outcome is checked against the
   workload's oracle like the untraced engine's, so the mirror cannot
   drift from the library without the benchmark failing.

   That check covers semantics, not speed: the spans around the glue
   itself -- [runtime.process], [chip.inject] and the self times derived
   from them (runtime.self.ns, chip.tm.ns) -- time this mirror, not the
   library's [Runtime.process] and chip passes. A change to those moves
   the end-to-end metrics but not these four; trace.overhead_pct, traced
   against untraced time on the same batches, is where drift shows. *)

open Dejavu_core

let s_batch = Spans.intern "batch"
let s_process = Spans.intern "runtime.process"
let s_inject = Spans.intern "chip.inject"
let s_parse = Spans.intern "pipelet.parse"
let s_mau = Spans.intern "pipelet.mau"
let s_deparse = Spans.intern "pipelet.deparse"
let s_lookup = Spans.intern "flow_cache.lookup"
let s_commit = Spans.intern "flow_cache.commit"
let s_decode = Spans.intern "sfc_header.decode"
let s_sync = Spans.intern "ctrl.sync"
let s_replicate = Spans.intern "shard.replicate"
let s_digest = Spans.intern "runtime.digest"
let handler_span nf = Spans.intern (Printf.sprintf "nflib.%s.handler" nf)

(* --- Chip walk (mirrors Asic.Chip, Fast mode, telemetry Off) --- *)

let get_drop = P4ir.Phv.fast_get_int Asic.Stdmeta.drop_flag
let get_to_cpu = P4ir.Phv.fast_get_int Asic.Stdmeta.to_cpu_flag
let get_resubmit = P4ir.Phv.fast_get_int Asic.Stdmeta.resubmit_flag
let get_mirror = P4ir.Phv.fast_get_int Asic.Stdmeta.mirror_flag
let get_egress_spec = P4ir.Phv.fast_get_int Asic.Stdmeta.egress_spec
let set_ingress_port = P4ir.Phv.fast_set_int Asic.Stdmeta.ingress_port
let set_egress_port = P4ir.Phv.fast_set_int Asic.Stdmeta.egress_port
let set_resubmit = P4ir.Phv.fast_set_int Asic.Stdmeta.resubmit_flag

type walk = {
  chip : Asic.Chip.t;
  mirror_port : int option;
  sp : Spans.t;
  id : int;
  probe : (Asic.Pipelet.t -> P4ir.Phv.t -> unit) option;
      (** runs the MAU pass in place of [Pipelet.process], untraced *)
  mutable resubmits : int;
  mutable recircs : int;
  mutable visits : Asic.Pipelet.id list;
  mutable passes : int;
  mutable latency : float;
  trace : P4ir.Control.trace_event list ref;
  mutable mirrored : (int * Bytes.t) list;
}

let finish st verdict =
  Ok
    {
      Asic.Chip.verdict;
      resubmits = st.resubmits;
      recircs = st.recircs;
      visits = List.rev st.visits;
      latency_ns = st.latency;
      trace = List.rev !(st.trace);
      mirrored = List.rev st.mirrored;
      marks = [];
    }

let parse st pl frame = Spans.span st.sp ~name:s_parse ~id:st.id (fun () -> Asic.Pipelet.parse pl frame)
let mau st pl phv =
  match st.probe with
  | Some run -> run pl phv
  | None -> Spans.span st.sp ~name:s_mau ~id:st.id (fun () -> Asic.Pipelet.process ~trace:st.trace pl phv)

let deparse st pl phv ~payload =
  Spans.span st.sp ~name:s_deparse ~id:st.id (fun () -> Asic.Pipelet.deparse_fast pl phv ~payload)

let pass_limit_error () =
  Error (Printf.sprintf "Chip.inject: pass limit %d exceeded (routing loop?)" Asic.Chip.pass_limit)

let rec ingress_pass st ~pipeline ~entry_port frame =
  if st.passes >= Asic.Chip.pass_limit then pass_limit_error ()
  else begin
    st.passes <- st.passes + 1;
    let spec = Asic.Chip.spec st.chip in
    let pl = Asic.Chip.pipelet st.chip { Asic.Pipelet.pipeline; kind = Asic.Pipelet.Ingress } in
    st.visits <- Asic.Pipelet.id pl :: st.visits;
    st.latency <- st.latency +. Asic.Latency.pipe_pass_ns spec;
    match parse st pl frame with
    | Error e -> Error e
    | Ok (phv, payload) ->
        set_ingress_port phv entry_port;
        mau st pl phv;
        if get_drop phv = 1 then finish st Asic.Chip.Dropped
        else if get_to_cpu phv = 1 then finish st (Asic.Chip.To_cpu (deparse st pl phv ~payload))
        else if get_resubmit phv = 1 then begin
          st.resubmits <- st.resubmits + 1;
          set_resubmit phv 0;
          let frame' = deparse st pl phv ~payload in
          ingress_pass st ~pipeline ~entry_port frame'
        end
        else
          let out_port = get_egress_spec phv in
          if not (Asic.Spec.valid_port spec out_port) then
            Error
              (Printf.sprintf "Chip.inject: invalid egress port %d after ingress %d" out_port
                 pipeline)
          else if out_port = Asic.Spec.cpu_port then
            finish st (Asic.Chip.To_cpu (deparse st pl phv ~payload))
          else
            let frame' = deparse st pl phv ~payload in
            let egress_pipe = Option.get (Asic.Spec.pipeline_of_any_port spec out_port) in
            st.latency <- st.latency +. spec.Asic.Spec.lat.Asic.Spec.tm_ns;
            egress_pass st ~pipeline:egress_pipe ~out_port frame'
  end

and egress_pass st ~pipeline ~out_port frame =
  if st.passes >= Asic.Chip.pass_limit then pass_limit_error ()
  else begin
    st.passes <- st.passes + 1;
    let spec = Asic.Chip.spec st.chip in
    let pl = Asic.Chip.pipelet st.chip { Asic.Pipelet.pipeline; kind = Asic.Pipelet.Egress } in
    st.visits <- Asic.Pipelet.id pl :: st.visits;
    st.latency <- st.latency +. Asic.Latency.pipe_pass_ns spec;
    match parse st pl frame with
    | Error e -> Error e
    | Ok (phv, payload) ->
        set_egress_port phv out_port;
        mau st pl phv;
        if get_drop phv = 1 then finish st Asic.Chip.Dropped
        else if get_to_cpu phv = 1 then finish st (Asic.Chip.To_cpu (deparse st pl phv ~payload))
        else
          let frame' = deparse st pl phv ~payload in
          (match (st.mirror_port, get_mirror phv = 1) with
          | Some mp, true -> st.mirrored <- (mp, Bytes.copy frame') :: st.mirrored
          | _ -> ());
          let loops_back =
            Asic.Spec.is_recirc_port out_port || Asic.Port.is_loopback (Asic.Chip.ports st.chip) out_port
          in
          if loops_back then begin
            st.recircs <- st.recircs + 1;
            st.latency <- st.latency +. Asic.Latency.recirc_on_chip_ns spec;
            ingress_pass st ~pipeline ~entry_port:out_port frame'
          end
          else finish st (Asic.Chip.Emitted { port = out_port; frame = frame' })
  end

let walk ?probe ~sp ~id ~mirror_port chip latency =
  {
    chip;
    mirror_port;
    sp;
    id;
    probe;
    resubmits = 0;
    recircs = 0;
    visits = [];
    passes = 0;
    latency;
    trace = ref [];
    mirrored = [];
  }

let inject ?probe ~sp ~id ~mirror_port chip ~in_port frame =
  let spec = Asic.Chip.spec chip in
  if in_port < 0 || in_port >= Asic.Spec.n_eth_ports spec then
    Error (Printf.sprintf "Chip.inject: %d is not an Ethernet port" in_port)
  else if Asic.Port.is_loopback (Asic.Chip.ports chip) in_port then
    Error
      (Printf.sprintf "Chip.inject: port %d is in loopback mode and takes no external traffic"
         in_port)
  else
    let st =
      walk ?probe ~sp ~id ~mirror_port chip (2.0 *. spec.Asic.Spec.lat.Asic.Spec.mac_serdes_ns)
    in
    ingress_pass st ~pipeline:(Asic.Spec.port_pipeline spec in_port) ~entry_port:in_port frame

let inject_cpu ?probe ~sp ~id ~mirror_port chip ~pipeline frame =
  let spec = Asic.Chip.spec chip in
  if pipeline < 0 || pipeline >= spec.Asic.Spec.n_pipelines then
    Error (Printf.sprintf "Chip.inject_cpu: bad pipeline %d" pipeline)
  else
    let st = walk ?probe ~sp ~id ~mirror_port chip spec.Asic.Spec.lat.Asic.Spec.mac_serdes_ns in
    ingress_pass st ~pipeline ~entry_port:Asic.Spec.cpu_port frame

(* --- Runtime loop (mirrors Runtime.process, telemetry Off) --- *)

type t = {
  rt : Runtime.t;
  compiled : Compiler.t;
  sp : Spans.t;
  reinject : (int * int, int) Hashtbl.t;
  nf_of_id : (int, string) Hashtbl.t;
  primary : (string, Runtime.handler) Hashtbl.t;
      (** the handlers the runtime bound on its own chip *)
}

(* A chip to run packets on, with the handlers and cache serving it, and
   the MAU probe its passes run with, if any. *)
type target = {
  chip : Asic.Chip.t;
  handlers : (string, Runtime.handler) Hashtbl.t;
  cache : Flow_cache.t option;
  probe : (Asic.Pipelet.t -> P4ir.Phv.t -> unit) option;
}

let timed sp nf (h : Runtime.handler) : Runtime.handler =
  let name = handler_span nf in
  (* id -1: the span inherits the punting packet's id *)
  fun sfc frame -> Spans.span sp ~name ~id:(-1) (fun () -> h sfc frame)

(* Build the workload's engine with span-wrapped handlers. *)
let build ~sp w =
  let primary = Hashtbl.create 4 in
  let wrap nf h =
    let h = timed sp nf h in
    Hashtbl.replace primary nf h;
    h
  in
  let rt, compiled = Setup.build ~attach:(Setup.Wrapped wrap) w (Setup.engine w) in
  let reinject = Hashtbl.create 64 in
  List.iter
    (fun (c : Chain.t) ->
      List.iteri
        (fun index nf ->
          match Layout.location compiled.Compiler.layout nf with
          | Some id -> Hashtbl.replace reinject (c.Chain.path_id, index) id.Asic.Pipelet.pipeline
          | None -> ())
        c.Chain.nfs)
    compiled.Compiler.input.Compiler.chains;
  List.iter
    (fun (e : Branching.entry) ->
      Hashtbl.replace reinject (e.Branching.path_id, e.Branching.index) e.Branching.pipeline)
    (List.rev compiled.Compiler.plan.Branching.branching);
  let nf_of_id = Hashtbl.create 4 in
  List.iter (fun (nf, id) -> Hashtbl.replace nf_of_id id nf) Setup.nf_ids;
  { rt; compiled; sp; reinject; nf_of_id; primary }

let primary t = { chip = Runtime.chip t.rt; handlers = t.primary; cache = Runtime.flow_cache t.rt; probe = None }

let mirror_port t = t.compiled.Compiler.input.Compiler.mirror_port

let decode_sfc t ~id frame =
  Spans.span t.sp ~name:s_decode ~id (fun () ->
      match Netpkt.Eth.decode frame ~off:0 with
      | Ok eth when eth.Netpkt.Eth.ethertype = Netpkt.Eth.ethertype_sfc ->
          Result.to_option (Sfc_header.decode frame ~off:Netpkt.Eth.size)
      | Ok _ | Error _ -> None)

let reinject_pipeline t ~id frame =
  let default = t.compiled.Compiler.input.Compiler.entry_pipeline in
  match decode_sfc t ~id frame with
  | None -> default
  | Some hdr -> (
      match Hashtbl.find_opt t.reinject (hdr.Sfc_header.service_path_id, hdr.Sfc_header.service_index) with
      | Some p -> p
      | None -> default)

let find_handler t tg sfc =
  match sfc with
  | None -> None
  | Some hdr -> (
      match Sfc_header.find_context hdr Sfc_header.ctx_key_cpu_reason with
      | None -> None
      | Some nf_id -> (
          match Hashtbl.find_opt t.nf_of_id nf_id with
          | None -> None
          | Some nf -> Hashtbl.find_opt tg.handlers nf))

let process t tg ~id ~in_port frame : (Runtime.outcome, string) result =
  let sp = t.sp and mirror_port = mirror_port t in
  let rec loop frame rounds recircs resubmits latency mirrored_rev first =
    let injected =
      if first then Spans.span sp ~name:s_inject ~id (fun () -> inject ?probe:tg.probe ~sp ~id ~mirror_port tg.chip ~in_port frame)
      else
        let pipeline = reinject_pipeline t ~id frame in
        Spans.span sp ~name:s_inject ~id (fun () -> inject_cpu ?probe:tg.probe ~sp ~id ~mirror_port tg.chip ~pipeline frame)
    in
    match injected with
    | Error e -> Error e
    | Ok r -> (
        let recircs = recircs + r.Asic.Chip.recircs in
        let resubmits = resubmits + r.Asic.Chip.resubmits in
        let latency = latency +. r.Asic.Chip.latency_ns in
        let mirrored_rev = List.rev_append r.Asic.Chip.mirrored mirrored_rev in
        let finish () =
          Ok
            {
              Runtime.verdict = r.Asic.Chip.verdict;
              counters = { Runtime.Counters.cpu_round_trips = rounds; recircs; resubmits; latency_ns = latency };
              mirrored = List.rev mirrored_rev;
            }
        in
        match r.Asic.Chip.verdict with
        | Asic.Chip.To_cpu bytes -> (
            let sfc = decode_sfc t ~id bytes in
            match find_handler t tg sfc with
            | None -> finish ()
            | Some _ when rounds >= Runtime.max_cpu_loops ->
                Error (Printf.sprintf "Runtime.process: exceeded %d CPU loops" Runtime.max_cpu_loops)
            | Some handler -> (
                match handler sfc bytes with
                | Runtime.Consume -> finish ()
                | Runtime.Reinject bytes -> loop bytes (rounds + 1) recircs resubmits latency mirrored_rev false))
        | Asic.Chip.Emitted _ | Asic.Chip.Dropped -> finish ())
  in
  Spans.span sp ~name:s_process ~id (fun () ->
      match tg.cache with
      | None -> loop frame 0 0 0 0.0 [] true
      | Some c -> (
          match Spans.span sp ~name:s_lookup ~id (fun () -> Flow_cache.lookup c ~in_port frame) with
          | Some h ->
              Ok
                {
                  Runtime.verdict = h.Flow_cache.verdict;
                  counters = { Runtime.Counters.zero with latency_ns = h.Flow_cache.latency_ns };
                  mirrored = [];
                }
          | None ->
              let res = loop frame 0 0 0 0.0 [] true in
              (match res with
              | Ok o ->
                  Spans.span sp ~name:s_commit ~id (fun () ->
                      Flow_cache.commit c ~frame ~verdict:o.Runtime.verdict
                        ~cpu_round_trips:o.Runtime.counters.Runtime.Counters.cpu_round_trips
                        ~recircs:o.Runtime.counters.Runtime.Counters.recircs
                        ~resubmits:o.Runtime.counters.Runtime.Counters.resubmits
                        ~mirrored:(o.Runtime.mirrored <> [])
                        ~latency_ns:o.Runtime.counters.Runtime.Counters.latency_ns)
              | Error _ -> Flow_cache.abort c);
              res))

(* [Runtime.process_batch]'s order-sensitive output digest. *)
let fold_digest acc tag port frame =
  let head = Bytes.create 5 in
  Bytes.set_uint8 head 0 tag;
  Bytes.set_int32_be head 1 (Int32.of_int port);
  let acc = Netpkt.Bytes_util.crc32 ~init:acc head ~off:0 ~len:5 in
  match frame with
  | None -> acc
  | Some b -> Netpkt.Bytes_util.crc32 ~init:acc b ~off:0 ~len:(Bytes.length b)

let digest_step acc = function
  | Error e -> fold_digest acc 4 0 (Some (Bytes.of_string e))
  | Ok o -> (
      match o.Runtime.verdict with
      | Asic.Chip.Emitted { port; frame } -> fold_digest acc 1 port (Some frame)
      | Asic.Chip.Dropped -> fold_digest acc 2 0 None
      | Asic.Chip.To_cpu frame -> fold_digest acc 3 0 (Some frame))

(* One sequential batch, as [Runtime.process_batch] runs it: drain
   queued control ops, then every packet in order, and the output digest
   it returns, folded over the outcomes in packet order once they are
   all in. [each] gets the packet's index in [pkts]. *)
let batch t ~batch_id ~first_id pkts each =
  Spans.span t.sp ~name:s_batch ~id:batch_id (fun () ->
      ignore (Spans.span t.sp ~name:s_sync ~id:batch_id (fun () -> Runtime.sync t.rt));
      let tg = primary t in
      let results =
        Array.mapi
          (fun i (in_port, frame) ->
            let res = process t tg ~id:(first_id + i) ~in_port frame in
            each i res;
            res)
          pkts
      in
      Spans.span t.sp ~name:s_digest ~id:batch_id (fun () -> Array.fold_left digest_step 0L results))

(* One sharded batch with [Runtime.process_batch_parallel]'s semantics,
   run shard after shard: every shard gets a fresh [Chip.replicate] of
   the primary chip with handlers re-bound to it, and the replica (with
   whatever its handlers installed) is dropped afterwards. *)
let batch_sharded t ~domains ~batch_id ~first_id pkts each =
  Spans.span t.sp ~name:s_batch ~id:batch_id (fun () ->
      ignore (Spans.span t.sp ~name:s_sync ~id:batch_id (fun () -> Runtime.sync t.rt));
      let shard = Array.map (fun (in_port, frame) -> Runtime.shard_of_packet ~domains in_port frame) pkts in
      let stores = Runtime.state_stores t.rt in
      for d = 0 to domains - 1 do
        let chip =
          match Spans.span t.sp ~name:s_replicate ~id:batch_id (fun () -> Asic.Chip.replicate (Runtime.chip t.rt)) with
          | Ok c -> c
          | Error e -> failwith ("Chip.replicate: " ^ e)
        in
        let store = if Array.length stores = 0 then None else Some stores.(d mod Array.length stores) in
        let handlers = Hashtbl.create 4 in
        List.iter (fun (nf, f) -> Hashtbl.replace handlers nf (timed t.sp nf (f chip store))) Setup.factories;
        let tg = { chip; handlers; cache = None; probe = None } in
        Array.iteri
          (fun i (in_port, frame) ->
            if shard.(i) = d then each i (process t tg ~id:(first_id + i) ~in_port frame))
          pkts
      done)
