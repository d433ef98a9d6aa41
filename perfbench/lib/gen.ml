(* Seeded traffic. Every frame the benchmark hands the runtime is built
   here from the run's seed, so one seed always gives the same packets
   and the program under test sees nothing but the generated frames. *)

let src_mac = Netpkt.Mac.of_string_exn "02:00:00:00:00:01"
let dst_mac = Netpkt.Mac.of_string_exn "02:00:00:00:00:02"

let ip_of_int a = Netpkt.Ip4.of_int64 (Int64.of_int a)

let frame ~src ~dst ~src_port ~dst_port =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow ~src_mac ~dst_mac
       {
         Netpkt.Flow.src;
         dst;
         proto = Netpkt.Ipv4.proto_tcp;
         src_port;
         dst_port;
       })

(* --- Zipf sampler ---

   Truncated Zipf over ranks [0, n): rank r has mass proportional to
   (r+1)^-s. [zipf_cdf] is the normalized cumulative mass (last entry
   exactly 1.0); [zipf_draw] inverts it by binary search. *)

let zipf_cdf ~s n =
  if n < 1 then invalid_arg "Gen.zipf_cdf: empty population";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  Array.iteri (fun i c -> cdf.(i) <- c /. total) cdf;
  cdf.(n - 1) <- 1.0;
  cdf

let zipf_draw cdf rng =
  let u = Random.State.float rng 1.0 in
  (* smallest i with cdf.(i) > u *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* --- Fig. 2 traffic ---

   The deployment's three service paths in the paper's proportions:
   red (classifier-fw-vgw-lb-router, to the load-balanced VIP) 50%,
   orange (classifier-vgw-router, tenant 2) 30%, green
   (classifier-router, tenant 3) 20%. The path of flow [k] is fixed by
   [k mod 10], so every seed has the same mix at every Zipf rank; the
   seed picks addresses and ports. Sources come from 100.64.0.0/10,
   clear of the firewall's blocked subnet, and no flow targets the
   denied telnet port, so every packet is forwarded. *)

type path = Red | Orange | Green

let fig2_path k = match k mod 10 with 0 | 2 | 4 | 6 | 8 -> Red | 1 | 5 | 9 -> Orange | _ -> Green

(* The frames of a population of [n] flows. *)
let fig2_flows ~seed n =
  let rng = Random.State.make [| seed; 0xf162 |] in
  Array.init n (fun k ->
      let src = ip_of_int ((100 lsl 24) lor (64 lsl 16) lor Random.State.int rng (1 lsl 22)) in
      let src_port = 1024 + Random.State.int rng 64000 in
      let host = 1 + Random.State.int rng 254 in
      let dst, dst_port =
        match fig2_path k with
        | Red -> (Nflib.Catalog.tenant1_vip, 80)
        | Orange -> (ip_of_int ((10 lsl 24) lor (2 lsl 8) lor host), 443)
        | Green -> (ip_of_int ((10 lsl 24) lor (3 lsl 8) lor host), 8080)
      in
      frame ~src ~dst ~src_port ~dst_port)

(* Batch [b] of a Fig. 2 stream over [n] flows: the flow of each packet,
   drawn uniformly or (with [zipf]) by Zipf rank. A pure function of
   (seed, b), so streams never repeat and never need storing. *)
let fig2_batch ~seed ?zipf ~n ~batch_size b =
  let rng = Random.State.make [| seed; 0xf163; b |] in
  match zipf with
  | None -> Array.init batch_size (fun _ -> Random.State.int rng n)
  | Some cdf -> Array.init batch_size (fun _ -> zipf_draw cdf rng)

(* --- New-flow churn ---

   Three packets in four open a new flow: flow [f] has a distinct source
   address in 10.64.0.0/10 (22 bits from a seed-chosen offset) and goes
   to the load-balanced VIP, so both the LB session ledger (by 5-tuple)
   and the NAT binding ledger (by source) grow one entry per new flow.
   Every fourth packet repeats a flow opened earlier in this batch or
   in the previous four; repeats run the pipeline on the entries the punt installed,
   so the flow cache inserts, hits, and loses entries to evictions and
   FIB updates. Batch [b] is a pure function of (seed, b). *)

let churn_new_per_batch batch_size = batch_size - (batch_size / 4)

let churn_batch ~seed ~batch_size b =
  let rng = Random.State.make [| seed; 0xc4e2; b |] in
  let offset = Random.State.int (Random.State.make [| seed; 0xc4e2 |]) (1 lsl 22) in
  let per = churn_new_per_batch batch_size in
  let flow_frame f =
    let src = ip_of_int ((10 lsl 24) lor (64 lsl 16) lor ((offset + f) land ((1 lsl 22) - 1))) in
    let src_port = 1024 + (Hashtbl.hash (seed, f) mod 64000) in
    frame ~src ~dst:Nflib.Catalog.tenant1_vip ~src_port ~dst_port:80
  in
  let next = ref (b * per) in
  let recent = max 0 ((b - 4) * per) in
  Array.init batch_size (fun i ->
      if i mod 4 = 3 then (0, flow_frame (recent + Random.State.int rng (!next - recent)))
      else begin
        let f = !next in
        incr next;
        (0, flow_frame f)
      end)
