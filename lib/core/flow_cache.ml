(* The exact-match flow cache (EMC) in front of the compiled chain —
   the software analogue of OVS's first-level cache. After a flow's
   first packet walks the full pipeline, its whole-chain verdict is
   memoized: the rewritten header bytes (as an output prefix the
   payload is re-appended to), the egress port, the modeled latency,
   and a side-effect plan of every table and register the verdict
   depended on. Later packets of the flow skip parsing, match-action
   and deparsing entirely.

   Correctness rests on three pillars:

   - The key covers every input the pipeline can read: the arrival
     port plus the frame's entire header region (every byte the chip's
     parser family can extract — computed by a structural walk that
     mirrors the deepest parser Net_hdrs builds, over-approximating
     when in doubt). Payload bytes are opaque to the match-action
     pipeline and pass through unchanged, so they stay out of the key
     and are re-appended on hits.

   - The side-effect plan makes stateful NFs honest. At miss time the
     armed Table/Register recorders capture which tables were
     consulted (with their mutation epochs) and every register read
     and write (with masked index and value, in order). A hit first
     revalidates: all table epochs unchanged, all register epochs
     unchanged, and every recorded read still returns the recorded
     value under a replay of the recorded writes. Only then is the
     memoized verdict served and the write plan re-applied. Any
     mismatch — a rate-limiter budget tick, a sketch update, a NAT
     binding change — drops the entry and falls back to the full
     pipeline, which re-records.

   - Anything the memoized fast path cannot reproduce is uncacheable:
     CPU punts (and resolved round trips), recirculations, resubmits,
     mirrored copies, to-CPU verdicts and errors.

   Invalidation is epoch-based (v1): every successful table mutation
   or register reset bumps the owner's epoch, and entries die lazily
   at their next lookup when a recorded epoch mismatches. Eviction is
   LRU at a fixed capacity. *)

type rop =
  | R_read of P4ir.Register.t * int * int64
  | R_write of P4ir.Register.t * int * int64

type tdep = { dtbl : P4ir.Table.t; tepoch : int }
type rdep = { dreg : P4ir.Register.t; repoch : int }

type cverdict = V_emit of { port : int; prefix : Bytes.t } | V_drop

type entry = {
  verdict : cverdict;
  latency_ns : float;
  tdeps : tdep array;
  rdeps : rdep array;
  ops : rop array;  (* register reads and writes, recorded order *)
}

(* Intrusive LRU list node; [head] is most recent. *)
type node = {
  nkey : string;
  entry : entry;
  mutable prev : node option;
  mutable next : node option;
}

type recording = {
  mutable r_tdeps : tdep list;  (* reversed *)
  mutable r_rdeps : rdep list;
  mutable r_ops : rop list;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable invalidations : int;
  mutable uncacheable : int;
  mutable inserts : int;
  mutable evictions : int;
}

type t = {
  capacity : int;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable len : int;
  (* Armed between a miss and its commit/abort; the table/register
     hook closures route into it. [None] makes every hook a no-op. *)
  mutable recording : recording option;
  mutable pending_key : string option;
  stats : stats;
  tables : P4ir.Table.t list;
  registers : P4ir.Register.t list;
}

let stats t = t.stats
let capacity t = t.capacity
let length t = t.len

let hit_rate t =
  let total = t.stats.hits + t.stats.misses in
  if total = 0 then 0.0 else float_of_int t.stats.hits /. float_of_int total

(* --- The header walk ---

   Mirrors the deepest parser [Net_hdrs.base_parser] can build (VLAN,
   L4 and the VXLAN overlay all enabled): any chip parser in this tree
   extracts a prefix of what this walk covers, so keying on the walked
   region can only over-approximate — costing hit rate on flows that
   differ in early payload bytes, never correctness. Truncated or
   foreign frames fall back to the whole frame as key. *)

let ethertype_sfc = Netpkt.Eth.ethertype_sfc
let ethertype_ipv4 = Netpkt.Eth.ethertype_ipv4
let ethertype_vlan = Netpkt.Eth.ethertype_vlan
let udp_port_vxlan = 4789

let header_len frame =
  let n = Bytes.length frame in
  let u8 = Netpkt.Bytes_util.get_uint8 in
  let u16 = Netpkt.Bytes_util.get_uint16 in
  (* IPv4 at [off]; [overlay] opens the VXLAN branch under UDP. *)
  let rec l3 ~overlay off =
    if off + 20 > n then n
    else
      let proto = u8 frame (off + 9) in
      let l4 = off + 20 in
      if proto = Netpkt.Ipv4.proto_tcp then if l4 + 20 > n then n else l4 + 20
      else if proto = Netpkt.Ipv4.proto_udp then
        if l4 + 8 > n then n
        else if overlay && u16 frame (l4 + 2) = udp_port_vxlan then begin
          (* vxlan(8) + inner_eth(14), then the inner stack. *)
          let ie = l4 + 8 + 8 in
          if ie + 14 > n then n
          else if u16 frame (ie + 12) = ethertype_ipv4 then
            l3 ~overlay:false (ie + 14)
          else ie + 14
        end
        else l4 + 8
      else l4
  in
  let vlan off =
    if off + 4 > n then n
    else if u16 frame (off + 2) = ethertype_ipv4 then l3 ~overlay:true (off + 4)
    else off + 4
  in
  if n < 14 then n
  else
    let et = u16 frame 12 in
    if et = ethertype_sfc then begin
      let sfc_end = 14 + Sfc_header.byte_size in
      if sfc_end > n then n
      else
        (* next_protocol is the SFC header's last byte. *)
        let np = u8 frame (sfc_end - 1) in
        if np = Sfc_header.next_proto_ipv4 then l3 ~overlay:true sfc_end
        else if np = 2 then vlan sfc_end
        else sfc_end
    end
    else if et = ethertype_ipv4 then l3 ~overlay:true 14
    else if et = ethertype_vlan then vlan 14
    else 14

let key_of ~in_port frame =
  let hl = header_len frame in
  let b = Bytes.create (2 + hl) in
  Netpkt.Bytes_util.set_uint16 b 0 (in_port land 0xFFFF);
  Bytes.blit frame 0 b 2 hl;
  Bytes.unsafe_to_string b

(* --- Recorder hooks --- *)

let arm t =
  List.iter
    (fun tbl ->
      P4ir.Table.set_on_lookup tbl
        (Some
           (fun () ->
             match t.recording with
             | None -> ()
             | Some r ->
                 if not (List.exists (fun d -> d.dtbl == tbl) r.r_tdeps) then
                   r.r_tdeps <-
                     { dtbl = tbl; tepoch = P4ir.Table.epoch tbl } :: r.r_tdeps)))
    t.tables;
  List.iter
    (fun reg ->
      let dep r =
        if not (List.exists (fun d -> d.dreg == reg) r.r_rdeps) then
          r.r_rdeps <-
            { dreg = reg; repoch = P4ir.Register.epoch reg } :: r.r_rdeps
      in
      P4ir.Register.set_on_read reg
        (Some
           (fun idx v ->
             match t.recording with
             | None -> ()
             | Some r ->
                 dep r;
                 r.r_ops <- R_read (reg, idx, v) :: r.r_ops));
      P4ir.Register.set_on_write reg
        (Some
           (fun idx v ->
             match t.recording with
             | None -> ()
             | Some r ->
                 dep r;
                 r.r_ops <- R_write (reg, idx, v) :: r.r_ops)))
    t.registers

let detach t =
  t.recording <- None;
  t.pending_key <- None;
  List.iter (fun tbl -> P4ir.Table.set_on_lookup tbl None) t.tables;
  List.iter
    (fun reg ->
      P4ir.Register.set_on_read reg None;
      P4ir.Register.set_on_write reg None)
    t.registers

let create ~capacity chip =
  let pipelets = Asic.Chip.pipelets chip in
  let tables = List.concat_map Asic.Pipelet.tables pipelets in
  let registers =
    List.concat_map
      (fun pl -> (Asic.Pipelet.program pl).P4ir.Program.registers)
      pipelets
  in
  let t =
    {
      capacity = max 1 capacity;
      tbl = Hashtbl.create (min 65536 (max 16 capacity));
      head = None;
      tail = None;
      len = 0;
      recording = None;
      pending_key = None;
      stats =
        {
          hits = 0;
          misses = 0;
          stale = 0;
          invalidations = 0;
          uncacheable = 0;
          inserts = 0;
          evictions = 0;
        };
      tables;
      registers;
    }
  in
  arm t;
  t

(* --- LRU plumbing --- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let remove t n =
  unlink t n;
  Hashtbl.remove t.tbl n.nkey;
  t.len <- t.len - 1

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  t.len <- 0

(* Keys most-recent-first — the LRU order, for tests. *)
let keys_mru t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.nkey :: acc) n.next
  in
  go [] t.head

(* --- Validation and replay --- *)

(* A read is valid when it would see the recorded value again: checked
   against live register state under an overlay of the recorded writes
   applied so far, in recorded order — so read-after-own-write chains
   validate against what the replay will produce, not the pre-state.
   The two failure modes are distinguished for accounting: an epoch
   mismatch is a control-plane invalidation (someone mutated a
   dependency), a read mismatch is packet-time staleness (another flow
   moved shared register state). *)
type validity = Valid | Epoch_changed | Read_mismatch

let validate e =
  let ok = ref true in
  let n = Array.length e.tdeps in
  let i = ref 0 in
  while !ok && !i < n do
    let d = e.tdeps.(!i) in
    if P4ir.Table.epoch d.dtbl <> d.tepoch then ok := false;
    incr i
  done;
  let n = Array.length e.rdeps in
  let i = ref 0 in
  while !ok && !i < n do
    let d = e.rdeps.(!i) in
    if P4ir.Register.epoch d.dreg <> d.repoch then ok := false;
    incr i
  done;
  if not !ok then Epoch_changed
  else if Array.length e.ops > 0 then begin
    let overlay = ref [] in
    let find reg idx =
      List.find_opt (fun (r, i, _) -> r == reg && i = idx) !overlay
    in
    let n = Array.length e.ops in
    let i = ref 0 in
    while !ok && !i < n do
      (match e.ops.(!i) with
      | R_read (reg, idx, v) ->
          let live =
            match find reg idx with
            | Some (_, _, ov) -> ov
            | None -> P4ir.Register.read_raw reg idx
          in
          if not (Int64.equal live v) then ok := false
      | R_write (reg, idx, v) ->
          overlay :=
            (reg, idx, v) :: List.filter (fun (r, i, _) -> not (r == reg && i = idx)) !overlay);
      incr i
    done;
    if !ok then Valid else Read_mismatch
  end
  else Valid

let replay_writes e =
  Array.iter
    (function
      | R_read _ -> ()
      | R_write (reg, idx, v) ->
          P4ir.Register.write reg idx
            (P4ir.Bitval.make ~width:(P4ir.Register.width reg) v))
    e.ops

(* --- Lookup / commit / abort --- *)

type hit = { verdict : Asic.Chip.verdict; latency_ns : float }

let lookup t ~in_port frame =
  let key = key_of ~in_port frame in
  let served =
    match Hashtbl.find_opt t.tbl key with
    | None -> None
    | Some node -> (
        match validate node.entry with
        | Valid ->
            replay_writes node.entry;
            touch t node;
            Some node.entry
        | Epoch_changed ->
            (* A control-plane mutation bumped a dependency's epoch. *)
            remove t node;
            t.stats.invalidations <- t.stats.invalidations + 1;
            None
        | Read_mismatch ->
            (* Packet-time staleness: shared register state moved. *)
            remove t node;
            t.stats.stale <- t.stats.stale + 1;
            None)
  in
  match served with
  | Some e ->
      t.stats.hits <- t.stats.hits + 1;
      let verdict =
        match e.verdict with
        | V_drop -> Asic.Chip.Dropped
        | V_emit { port; prefix } ->
            let hlen = String.length key - 2 in
            let plen = Bytes.length frame - hlen in
            let pxlen = Bytes.length prefix in
            let out = Bytes.create (pxlen + plen) in
            Bytes.blit prefix 0 out 0 pxlen;
            Bytes.blit frame hlen out pxlen plen;
            Asic.Chip.Emitted { port; frame = out }
      in
      Some { verdict; latency_ns = e.latency_ns }
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      (* Arm recording for the full-pipeline run that follows. *)
      t.pending_key <- Some key;
      t.recording <- Some { r_tdeps = []; r_rdeps = []; r_ops = [] };
      None

let abort t =
  t.recording <- None;
  t.pending_key <- None

(* Does [out] end with the input frame's payload (the bytes past the
   keyed header region)? Required for the prefix+payload reconstruction
   on hits; a chain that consumed or rewrote payload bytes (meaning the
   chip parsed deeper than the walk estimated) fails this and stays
   uncacheable. *)
let payload_preserved ~frame ~hlen out =
  let plen = Bytes.length frame - hlen in
  let olen = Bytes.length out in
  olen >= plen
  &&
  let rec go i =
    i >= plen || (Bytes.get out (olen - plen + i) = Bytes.get frame (hlen + i) && go (i + 1))
  in
  go 0

let insert t key entry =
  (match Hashtbl.find_opt t.tbl key with Some old -> remove t old | None -> ());
  if t.len >= t.capacity then (
    match t.tail with
    | Some lru ->
        remove t lru;
        t.stats.evictions <- t.stats.evictions + 1
    | None -> ());
  let node = { nkey = key; entry; prev = None; next = None } in
  Hashtbl.replace t.tbl key node;
  push_front t node;
  t.len <- t.len + 1;
  t.stats.inserts <- t.stats.inserts + 1

let commit t ~frame ~(verdict : Asic.Chip.verdict) ~cpu_round_trips ~recircs
    ~resubmits ~mirrored ~latency_ns =
  match (t.pending_key, t.recording) with
  | None, _ | _, None -> abort t
  | Some key, Some r ->
      abort t;
      let clean =
        cpu_round_trips = 0 && recircs = 0 && resubmits = 0 && not mirrored
      in
      let hlen = String.length key - 2 in
      let cv =
        if not clean then None
        else
          match verdict with
          | Asic.Chip.Emitted { port; frame = out }
            when payload_preserved ~frame ~hlen out ->
              let plen = Bytes.length frame - hlen in
              Some (V_emit { port; prefix = Bytes.sub out 0 (Bytes.length out - plen) })
          | Asic.Chip.Dropped -> Some V_drop
          | Asic.Chip.Emitted _ | Asic.Chip.To_cpu _ -> None
      in
      let deps_current () =
        List.for_all (fun d -> P4ir.Table.epoch d.dtbl = d.tepoch) r.r_tdeps
        && List.for_all
             (fun d -> P4ir.Register.epoch d.dreg = d.repoch)
             r.r_rdeps
      in
      (match cv with
      | Some v when deps_current () ->
          insert t key
            {
              verdict = v;
              latency_ns;
              tdeps = Array.of_list r.r_tdeps;
              rdeps = Array.of_list r.r_rdeps;
              ops = Array.of_list (List.rev r.r_ops);
            }
      | Some _ | None -> t.stats.uncacheable <- t.stats.uncacheable + 1)

(* Fold a retired cache's tallies ([stats] of a replica, or of a cache
   being replaced) into [into]'s. Entries stay where they are —
   per-shard caches share nothing — so this only keeps runtime-wide
   hit/miss accounting alive when a cache is torn down. *)
let merge_stats ~into b =
  let a = into.stats in
  a.hits <- a.hits + b.hits;
  a.misses <- a.misses + b.misses;
  a.stale <- a.stale + b.stale;
  a.invalidations <- a.invalidations + b.invalidations;
  a.uncacheable <- a.uncacheable + b.uncacheable;
  a.inserts <- a.inserts + b.inserts;
  a.evictions <- a.evictions + b.evictions
