(* Per-flow aggregation of journeys: a capped table of running
   summaries. Everything is plain data — each observer owns one and
   shard observers merge theirs after a parallel batch, so no locking
   here. *)

type summary = {
  flow : string;
  mutable packets : int;
  mutable hops : int;
  mutable latency_ns : float;
  mutable max_hops : int;
  mutable recircs : int;
  mutable resubmits : int;
  mutable verdicts : (string * int) list;
}

type t = {
  table : (string, summary) Hashtbl.t;
  max_flows : int;
  mutable dropped : int;
}

let default_max_flows = 1024

let create ?(max_flows = default_max_flows) () =
  { table = Hashtbl.create 64; max_flows = max 1 max_flows; dropped = 0 }

(* [flow]'s summary, created empty on first sight — or [None] when the
   flow is new and the table is full. *)
let summary_for t flow =
  match Hashtbl.find_opt t.table flow with
  | Some s -> Some s
  | None when Hashtbl.length t.table >= t.max_flows -> None
  | None ->
      let s =
        {
          flow;
          packets = 0;
          hops = 0;
          latency_ns = 0.0;
          max_hops = 0;
          recircs = 0;
          resubmits = 0;
          verdicts = [];
        }
      in
      Hashtbl.replace t.table flow s;
      Some s

let add_verdict s v n =
  let rec go = function
    | [] -> [ (v, n) ]
    | (k, m) :: rest when k = v -> (k, m + n) :: rest
    | kv :: rest -> kv :: go rest
  in
  s.verdicts <- go s.verdicts

let push t (j : Journey.t) =
  match summary_for t j.Journey.flow with
  | None -> t.dropped <- t.dropped + 1
  | Some s ->
      let nhops = List.length j.Journey.hops in
      s.packets <- s.packets + 1;
      s.hops <- s.hops + nhops;
      s.latency_ns <- s.latency_ns +. j.Journey.latency_ns;
      s.max_hops <- max s.max_hops nhops;
      s.recircs <- s.recircs + j.Journey.recircs;
      s.resubmits <- s.resubmits + j.Journey.resubmits;
      add_verdict s j.Journey.verdict 1

let summaries t =
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) t.table [] in
  List.sort
    (fun a b ->
      match compare b.packets a.packets with
      | 0 -> compare a.flow b.flow
      | c -> c)
    all

let dropped_flows t = t.dropped

let merge ~into src =
  Hashtbl.iter
    (fun flow (s : summary) ->
      match summary_for into flow with
      | None -> into.dropped <- into.dropped + s.packets
      | Some d ->
          d.packets <- d.packets + s.packets;
          d.hops <- d.hops + s.hops;
          d.latency_ns <- d.latency_ns +. s.latency_ns;
          d.max_hops <- max d.max_hops s.max_hops;
          d.recircs <- d.recircs + s.recircs;
          d.resubmits <- d.resubmits + s.resubmits;
          List.iter (fun (v, n) -> add_verdict d v n) s.verdicts)
    src.table;
  into.dropped <- into.dropped + src.dropped

let clear t =
  Hashtbl.reset t.table;
  t.dropped <- 0

let summary_to_json s =
  let verdicts =
    String.concat ", "
      (List.map (fun (v, n) -> Printf.sprintf "%s: %d" (Json.str v) n) s.verdicts)
  in
  Printf.sprintf
    "{ \"flow\": %s, \"packets\": %d, \"hops\": %d, \"max_hops\": %d, \
     \"latency_ns\": %.1f, \"recircs\": %d, \"resubmits\": %d, \
     \"verdicts\": {%s} }"
    (Json.str s.flow) s.packets s.hops s.max_hops s.latency_ns s.recircs
    s.resubmits verdicts

let pp_summaries ppf t =
  let ss = summaries t in
  let packets = List.fold_left (fun acc s -> acc + s.packets) 0 ss in
  Format.fprintf ppf "@[<v>%d flows, %d packets (%d dropped: flow table full)@,"
    (List.length ss) (packets + t.dropped) t.dropped;
  List.iter
    (fun s ->
      let mean_lat =
        if s.packets = 0 then 0.0
        else s.latency_ns /. float_of_int s.packets
      in
      Format.fprintf ppf
        "%-40s pkts=%-6d hops=%-5d max=%d recircs=%d lat/pkt=%.0fns %s@,"
        s.flow s.packets s.hops s.max_hops s.recircs mean_lat
        (String.concat " "
           (List.map (fun (v, n) -> Printf.sprintf "%s:%d" v n) s.verdicts)))
    ss;
  Format.fprintf ppf "@]"
