type match_kind = Exact | Ternary | Lpm | Range
type key = { field : Fieldref.t; kind : match_kind; width : int }

type pattern =
  | M_exact of Bitval.t
  | M_ternary of { value : Bitval.t; mask : Bitval.t }
  | M_lpm of { value : Bitval.t; prefix_len : int }
  | M_range of { lo : Bitval.t; hi : Bitval.t }
  | M_any

type entry = {
  priority : int;
  patterns : pattern list;
  action : string;
  args : Bitval.t list;
}

(* A pattern lowered against the declared key width: masks (including
   LPM prefix masks) folded to raw int64 pairs, so the linear partition
   compares words instead of re-deriving masks per candidate. Only
   sound when the looked-up value carries the declared width — the
   width-mismatch fallback keeps the [Bitval.t]-level [matches]. *)
type ipat =
  | I_any
  | I_eq of int64
  | I_masked of int64 * int64  (* pre-masked value, mask *)
  | I_range of int64 * int64

let compile_pattern kw p =
  match p with
  | M_any -> I_any
  | M_exact v -> I_eq (Bitval.to_int64 v)
  | M_ternary { value; mask } ->
      let m = Bitval.to_int64 mask in
      I_masked (Int64.logand (Bitval.to_int64 value) m, m)
  | M_lpm { value; prefix_len } ->
      let m = Bitval.to_int64 (Bitval.mask_of_prefix ~width:kw prefix_len) in
      I_masked (Int64.logand (Bitval.to_int64 (Bitval.resize value kw)) m, m)
  | M_range { lo; hi } -> I_range (Bitval.to_int64 lo, Bitval.to_int64 hi)

let ipat_matches p v =
  match p with
  | I_any -> true
  | I_eq pv -> Int64.equal v pv
  | I_masked (pv, m) -> Int64.equal (Int64.logand v m) pv
  | I_range (lo, hi) ->
      Int64.unsigned_compare lo v <= 0 && Int64.unsigned_compare v hi <= 0

(* An installed entry with everything a lookup needs precomputed:
   insertion sequence (tie-break), total prefix length (tie-break),
   lowered patterns, resolved action and pre-bound action data. The
   naive path recomputed all of this per candidate per packet.

   [e]/[act]/[bound]/[crun] are mutable for {!mod_entry}: a modify
   rebinds the action data in place — the match key (priority and
   patterns, the entry's identity) never changes after install, so the
   index partitions need no maintenance beyond the epoch bump. *)
type ientry = {
  mutable e : entry;
  seq : int;
  lpm : int;
  ipats : ipat array;
  mutable act : Action.t;
  mutable bound : (string * Bitval.t) list;
  mutable crun : Action.compiled;
  (* Telemetry: hits attributed to this entry while stats are enabled.
     Lives on the installed entry so the hot path bumps a field it
     already holds — no side lookup. *)
  mutable ehits : int;
}

(* Finalizer for index hashes: the splitmix64 mixer with its constants
   truncated to OCaml's 63-bit int (still odd, so each multiply stays a
   bijection). [Hashtbl] takes the bucket from the low bits, and masked
   keys (a /24 has 8 zero low bits, a port-aligned key more) carry their
   entropy high up; a multiply alone only moves entropy further up, so
   each xorshift folds the high bits back down into the low ones. *)
let mix h =
  let h = (h lxor (h lsr 31)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  (h lxor (h lsr 31)) land max_int

(* Top-level loops rather than local [let rec go] closures over their
   arguments: a closure is allocated per call, and these run per lookup
   (per chain link, for [equal]). *)
let rec words_equal a b i =
  i < 0 || (Int64.equal a.(i) b.(i) && words_equal a b (i - 1))

module H64 = Hashtbl.Make (struct
  type t = int64 array

  let equal a b =
    Array.length a = Array.length b && words_equal a b (Array.length a - 1)

  (* Direct word mixing — the polymorphic hash walks the boxed array.
     Each word is folded in under a full-width odd multiplier so two
     keys differing in a low word cannot cancel against a high one. *)
  let hash a =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor Int64.to_int a.(i)) * 0x1e3779b97f4a7c15
    done;
    mix !h
end)

module HI64 = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash x = mix (Int64.to_int x)
end)

(* One prefix length of the single-key LPM index. [gmask] is the prefix
   mask over the declared key width; buckets key on the masked value.
   [top] bounds the priority of every entry in the group: raised on
   insert, never lowered (a group is dropped when it empties), so after
   a delete it may be too high, which only gives up a skip. *)
type lpm_group = {
  plen : int;
  gmask : int64;
  mutable top : int;
  buckets : ientry list ref HI64.t;
}

(* Staged index, maintained incrementally on insert AND delete:
   - [exact1]: single-key [M_exact] entries hashed on the bare value —
     the common case (FIB next-hop, session, flag tables) skips the
     key-array allocation entirely.
   - [exact]: multi-key all-[M_exact] entries, hashed on the
     concatenated key values (numeric, like [Bitval.equal_value]).
   - [lpm]: single-key [M_lpm] entries bucketed by prefix length,
     probed longest-first, skipping groups that cannot beat the best
     hit so far (see [probe_lpm]).
   - [linear]: everything else (ternary, range, wildcards, mixed
     multi-key prefixes) — scanned with precomputed entry data.
   Deletion unlinks one entry from its partition bucket (and drops
   emptied buckets / prefix-length groups); no bulk rebuild. *)
type index = {
  exact1 : ientry list ref HI64.t;
  exact : ientry list ref H64.t;
  mutable lpm : lpm_group list; (* sorted by plen, longest first *)
  mutable linear : ientry list;
}

type stats = { mutable hits : int; mutable misses : int }

type store = {
  (* Source of truth: every installed entry keyed by its sequence
     number. Seqs are unique for the lifetime of the store — [clear]
     and [del_entry] never reset [next_seq] — so a replica made with
     {!copy} (which reproduces seqs exactly) can always be paired back
     entry-for-entry by {!merge_stats_from}, even across churn. *)
  by_seq : (int, ientry) Hashtbl.t;
  mutable count : int;
  mutable next_seq : int;
  index : index;
  (* [None] = telemetry off: both lookup paths pay one immediate-field
     match and nothing else. Lives in the shared store so {!rename}d
     handles count into the same tallies. *)
  mutable stats : stats option;
  (* Invalidation epoch (bumped on every successful mutation) and the
     lookup recorder a memoization layer arms to learn which tables a
     packet's verdict depended on. Shared across {!rename}d handles,
     fresh in a {!copy}. *)
  mutable epoch : int;
  mutable on_lookup : (unit -> unit) option;
}

(* The index and entry store live behind [store], which {!rename}d
   handles share: entries installed through any handle are visible — and
   indexed — through all of them. *)
type t = {
  name : string;
  keys : key list;
  kfields : Fieldref.t array;
  kgets : (Phv.t -> Bitval.t) array;
  kwidths : int array;
  actions : Action.t list;
  default : string * Bitval.t list;
  default_act : Action.t;
  default_bound : (string * Bitval.t) list;
  default_crun : Action.compiled;
  max_size : int;
  store : store;
}

let fresh_index () =
  { exact1 = HI64.create 16; exact = H64.create 16; lpm = []; linear = [] }

let make ~name ~keys ~actions ~default ?(max_size = 1024) () =
  let dname, dargs = default in
  let default_act =
    match
      List.find_opt (fun (a : Action.t) -> String.equal a.Action.name dname) actions
    with
    | None ->
        invalid_arg
          (Printf.sprintf "Table.make %s: default action %s not declared" name
             dname)
    | Some a ->
        if List.length a.Action.params <> List.length dargs then
          invalid_arg
            (Printf.sprintf "Table.make %s: default action %s arity mismatch"
               name dname);
        a
  in
  {
    name;
    keys;
    kfields = Array.of_list (List.map (fun k -> k.field) keys);
    kgets = Array.of_list (List.map (fun k -> Phv.fast_get k.field) keys);
    kwidths = Array.of_list (List.map (fun k -> k.width) keys);
    actions;
    default;
    default_act;
    default_bound = Action.bind_args default_act dargs;
    default_crun = Action.compile default_act;
    max_size;
    store =
      {
        by_seq = Hashtbl.create 32;
        count = 0;
        next_seq = 0;
        index = fresh_index ();
        stats = None;
        epoch = 0;
        on_lookup = None;
      };
  }

let name t = t.name
let keys t = t.keys
let actions t = t.actions
let default t = t.default
let max_size t = t.max_size

let ientries_by_seq t =
  Hashtbl.fold (fun _ ie acc -> ie :: acc) t.store.by_seq []
  |> List.sort (fun a b -> compare a.seq b.seq)

let entries t = List.map (fun ie -> ie.e) (ientries_by_seq t)
let size t = t.store.count
let rename t name = { t with name }

let find_action t aname =
  List.find_opt (fun (a : Action.t) -> String.equal a.Action.name aname) t.actions

let pattern_kind_ok kind pattern =
  match (kind, pattern) with
  | _, M_any -> true
  | Exact, M_exact _ -> true
  | Ternary, (M_exact _ | M_ternary _) -> true
  | Lpm, (M_exact _ | M_lpm _) -> true
  | Range, (M_exact _ | M_range _) -> true
  | (Exact | Ternary | Lpm | Range), _ -> false

let lpm_len entry =
  (* Longest prefix across LPM patterns; exact = full width. *)
  List.fold_left
    (fun acc p ->
      match p with
      | M_lpm { prefix_len; _ } -> acc + prefix_len
      | M_exact v -> acc + Bitval.width v
      | M_ternary _ | M_range _ | M_any -> acc)
    0 entry.patterns

(* --- Entry identity ---

   [del_entry]/[mod_entry] name the entry to touch by its match key:
   the (priority, patterns) pair, compared by match semantics —
   numeric value equality ([Bitval.equal_value], width-insensitive),
   ternary values under their masks, LPM values under their prefix
   masks. Two patterns equal under [pattern_equal] match exactly the
   same key values, so the identity is the one a switch RPC (P4Runtime
   MODIFY/DELETE) would use. *)

let pattern_equal a b =
  match (a, b) with
  | M_any, M_any -> true
  | M_exact x, M_exact y -> Bitval.equal_value x y
  | M_ternary { value = v1; mask = m1 }, M_ternary { value = v2; mask = m2 } ->
      Bitval.equal_value m1 m2
      && Bitval.equal_value (Bitval.logand v1 m1) (Bitval.logand v2 m2)
  | M_lpm { value = v1; prefix_len = p1 }, M_lpm { value = v2; prefix_len = p2 }
    ->
      p1 = p2
      &&
      let w = max (Bitval.width v1) (Bitval.width v2) in
      let m = Bitval.mask_of_prefix ~width:w p1 in
      Bitval.equal_value
        (Bitval.logand (Bitval.resize v1 w) m)
        (Bitval.logand (Bitval.resize v2 w) m)
  | M_range { lo = l1; hi = h1 }, M_range { lo = l2; hi = h2 } ->
      Bitval.equal_value l1 l2 && Bitval.equal_value h1 h2
  | (M_exact _ | M_ternary _ | M_lpm _ | M_range _ | M_any), _ -> false

let entry_key_equal a b =
  a.priority = b.priority
  && List.length a.patterns = List.length b.patterns
  && List.for_all2 pattern_equal a.patterns b.patterns

(* --- Index partition routing ---

   One classifier shared by insert, delete and the del/mod probe, so an
   entry is always unlinked from (or found in) exactly the bucket that
   indexed it. The bucket keys are numeric ([Bitval.to_int64], masked
   values) — width-insensitive like [pattern_equal]. *)

type slot =
  | S_exact1 of int64
  | S_exact of int64 array
  | S_lpm of int * int64 * int64  (* plen, gmask, masked value *)
  | S_linear

let slot_of t patterns =
  let all_exact =
    List.for_all (function M_exact _ -> true | _ -> false) patterns
  in
  if all_exact then
    match patterns with
    | [ M_exact v ] -> S_exact1 (Bitval.to_int64 v)
    | _ ->
        S_exact
          (Array.of_list
             (List.map
                (function M_exact v -> Bitval.to_int64 v | _ -> assert false)
                patterns))
  else
    match (patterns, t.kwidths) with
    | [ M_lpm { value; prefix_len } ], [| w |] when prefix_len <= w ->
        let gmask = Bitval.to_int64 (Bitval.mask_of_prefix ~width:w prefix_len) in
        let masked =
          Int64.logand (Bitval.to_int64 (Bitval.resize value w)) gmask
        in
        S_lpm (prefix_len, gmask, masked)
    | _ -> S_linear

let bucket_push tbl find add key ie =
  match find tbl key with
  | Some l -> l := ie :: !l
  | None -> add tbl key (ref [ ie ])

(* Drop [ie] (by physical identity) from its bucket; remove the binding
   when the bucket empties so stale keys don't accumulate under churn. *)
let bucket_drop tbl find remove key ie =
  match find tbl key with
  | None -> ()
  | Some l ->
      l := List.filter (fun x -> not (x == ie)) !l;
      if !l = [] then remove tbl key

(* Route one installed entry into its index partition. *)
let index_entry t ie =
  let idx = t.store.index in
  match slot_of t ie.e.patterns with
  | S_exact1 k -> bucket_push idx.exact1 HI64.find_opt HI64.add k ie
  | S_exact k -> bucket_push idx.exact H64.find_opt H64.add k ie
  | S_lpm (plen, gmask, masked) ->
      let prio = ie.e.priority in
      let group =
        match List.find_opt (fun g -> g.plen = plen) idx.lpm with
        | Some g ->
            if prio > g.top then g.top <- prio;
            g
        | None ->
            let g = { plen; gmask; top = prio; buckets = HI64.create 16 } in
            idx.lpm <-
              List.sort (fun a b -> compare b.plen a.plen) (g :: idx.lpm);
            g
      in
      bucket_push group.buckets HI64.find_opt HI64.add masked ie
  | S_linear -> idx.linear <- ie :: idx.linear

(* Unlink one installed entry from its partition — the incremental
   inverse of [index_entry]: one bucket probe, no rebuild of anything
   else. An emptied LPM prefix-length group is dropped so the probe
   loop's group list stays proportional to the live prefix lengths. *)
let unindex_entry t ie =
  let idx = t.store.index in
  match slot_of t ie.e.patterns with
  | S_exact1 k -> bucket_drop idx.exact1 HI64.find_opt HI64.remove k ie
  | S_exact k -> bucket_drop idx.exact H64.find_opt H64.remove k ie
  | S_lpm (plen, _, masked) -> (
      match List.find_opt (fun g -> g.plen = plen) idx.lpm with
      | None -> ()
      | Some g ->
          bucket_drop g.buckets HI64.find_opt HI64.remove masked ie;
          if HI64.length g.buckets = 0 then
            idx.lpm <- List.filter (fun g' -> not (g' == g)) idx.lpm)
  | S_linear -> idx.linear <- List.filter (fun x -> not (x == ie)) idx.linear

(* Find the installed entry whose match key equals [entry]'s, through
   the same partition routing an install would take: a hash-bucket
   probe for exact/LPM shapes, a scan only for the linear partition. *)
let find_ientry t entry =
  let pick l = List.find_opt (fun ie -> entry_key_equal ie.e entry) l in
  let idx = t.store.index in
  match slot_of t entry.patterns with
  | S_exact1 k -> (
      match HI64.find_opt idx.exact1 k with Some l -> pick !l | None -> None)
  | S_exact k -> (
      match H64.find_opt idx.exact k with Some l -> pick !l | None -> None)
  | S_lpm (plen, _, masked) -> (
      match List.find_opt (fun g -> g.plen = plen) idx.lpm with
      | None -> None
      | Some g -> (
          match HI64.find_opt g.buckets masked with
          | Some l -> pick !l
          | None -> None))
  | S_linear -> pick idx.linear

let validate_shape t entry =
  if List.length entry.patterns <> List.length t.keys then
    Error
      (Printf.sprintf "table %s: %d patterns for %d keys" t.name
         (List.length entry.patterns) (List.length t.keys))
  else if
    not (List.for_all2 (fun k p -> pattern_kind_ok k.kind p) t.keys entry.patterns)
  then Error (Printf.sprintf "table %s: pattern kind mismatch" t.name)
  else Ok ()

let validate_action t entry =
  match find_action t entry.action with
  | None ->
      Error (Printf.sprintf "table %s: unknown action %s" t.name entry.action)
  | Some a ->
      if List.length a.Action.params <> List.length entry.args then
        Error
          (Printf.sprintf "table %s: action %s expects %d args, got %d" t.name
             entry.action
             (List.length a.Action.params)
             (List.length entry.args))
      else Ok a

(* Install a validated entry under an explicit sequence number —
   [add_entry] passes [next_seq]; [copy] replays the source's seqs. *)
let install t entry ~seq (a : Action.t) =
  let ie =
    {
      e = entry;
      seq;
      lpm = lpm_len entry;
      ipats =
        Array.of_list
          (List.map2 (fun k p -> compile_pattern k.width p) t.keys entry.patterns);
      act = a;
      bound = Action.bind_args a entry.args;
      crun = Action.compile a;
      ehits = 0;
    }
  in
  Hashtbl.replace t.store.by_seq seq ie;
  t.store.count <- t.store.count + 1;
  if seq >= t.store.next_seq then t.store.next_seq <- seq + 1;
  t.store.epoch <- t.store.epoch + 1;
  index_entry t ie

let add_entry t entry =
  if size t >= t.max_size then
    Error (Printf.sprintf "table %s: capacity %d exceeded" t.name t.max_size)
  else
    match validate_shape t entry with
    | Error _ as e -> e
    | Ok () -> (
        match validate_action t entry with
        | Error e -> Error e
        | Ok a ->
            install t entry ~seq:t.store.next_seq a;
            Ok ())

let add_entries t entries =
  List.fold_left
    (fun acc e -> Result.bind acc (fun () -> add_entry t e))
    (Ok ()) entries

let del_entry t entry =
  match validate_shape t entry with
  | Error _ as e -> e
  | Ok () -> (
      match find_ientry t entry with
      | None ->
          Error
            (Printf.sprintf
               "table %s: no entry with priority %d and these patterns" t.name
               entry.priority)
      | Some ie ->
          unindex_entry t ie;
          Hashtbl.remove t.store.by_seq ie.seq;
          t.store.count <- t.store.count - 1;
          t.store.epoch <- t.store.epoch + 1;
          Ok ())

let mod_entry t entry =
  match validate_shape t entry with
  | Error _ as e -> e
  | Ok () -> (
      match validate_action t entry with
      | Error e -> Error e
      | Ok a -> (
          match find_ientry t entry with
          | None ->
              Error
                (Printf.sprintf
                   "table %s: no entry with priority %d and these patterns"
                   t.name entry.priority)
          | Some ie ->
              (* The stored match key stays canonical (as first
                 installed); only the action binding changes. Seq and
                 the per-entry hit tally carry over — it is the same
                 logical entry. *)
              ie.e <- { ie.e with action = entry.action; args = entry.args };
              ie.act <- a;
              ie.bound <- Action.bind_args a entry.args;
              ie.crun <- Action.compile a;
              t.store.epoch <- t.store.epoch + 1;
              Ok ()))

(* A deep copy installs the source's entries into a fresh store with
   their sequence numbers — and [next_seq] — reproduced exactly, so the
   copy resolves every lookup tie-break the way the original does AND
   stays pairable by seq ({!merge_stats_from}) even after the original
   or the copy churns. Re-resolving actions cannot fail: the entries
   already passed this table definition's validation once, and the
   resolved [Action.t] is carried over directly. *)
let copy t =
  let c =
    make ~name:t.name ~keys:t.keys ~actions:t.actions ~default:t.default
      ~max_size:t.max_size ()
  in
  List.iter (fun ie -> install c ie.e ~seq:ie.seq ie.act) (ientries_by_seq t);
  c.store.next_seq <- t.store.next_seq;
  c.store.epoch <- 0;
  c

(* [next_seq] is deliberately NOT reset: seqs must stay unique for the
   store's lifetime so stats merged by seq never pair an old entry's
   tally with an unrelated later entry. *)
let clear t =
  Hashtbl.reset t.store.by_seq;
  t.store.count <- 0;
  t.store.epoch <- t.store.epoch + 1;
  let idx = t.store.index in
  HI64.reset idx.exact1;
  H64.reset idx.exact;
  idx.lpm <- [];
  idx.linear <- []

let epoch t = t.store.epoch
let set_on_lookup t f = t.store.on_lookup <- f

let pattern_matches pattern value =
  match pattern with
  | M_any -> true
  | M_exact v -> Bitval.equal_value v value
  | M_ternary { value = v; mask } ->
      Bitval.equal_value (Bitval.logand value mask) (Bitval.logand v mask)
  | M_lpm { value = v; prefix_len } ->
      let mask = Bitval.mask_of_prefix ~width:(Bitval.width value) prefix_len in
      Bitval.equal_value (Bitval.logand value mask) (Bitval.logand (Bitval.resize v (Bitval.width value)) mask)
  | M_range { lo; hi } -> Bitval.le lo value && Bitval.le value hi

let matches entry values =
  List.for_all2 pattern_matches entry.patterns values

(* --- Reference lookup: the pre-index linear scan, kept verbatim as the
   oracle the indexed path is QCheck-equivalence-tested against. The
   scan order differs (hash-table fold) but [better] is a strict total
   order — sequence numbers are distinct — so the winner is
   order-independent. --- *)

(* Stats hooks shared by both lookup paths: one immediate-field match
   when telemetry is off. The reference path attributes per-entry hits
   through the seq store — the interpretive oracle still shares no
   lookup code with the staged index. *)
let stat_hit_seq t seq =
  match t.store.stats with
  | None -> ()
  | Some s -> (
      s.hits <- s.hits + 1;
      match Hashtbl.find_opt t.store.by_seq seq with
      | Some ie -> ie.ehits <- ie.ehits + 1
      | None -> ())

let stat_miss t =
  match t.store.stats with
  | None -> ()
  | Some s -> s.misses <- s.misses + 1

let lookup_reference_values t values =
  (match t.store.on_lookup with Some f -> f () | None -> ());
  let candidates =
    Hashtbl.fold
      (fun seq ie acc -> if matches ie.e values then (ie.e, seq) :: acc else acc)
      t.store.by_seq []
  in
  let better (e1, s1) (e2, s2) =
    if e1.priority <> e2.priority then e1.priority > e2.priority
    else if lpm_len e1 <> lpm_len e2 then lpm_len e1 > lpm_len e2
    else s1 < s2
  in
  match candidates with
  | [] ->
      stat_miss t;
      `Miss
  | first :: rest ->
      let best = List.fold_left (fun b c -> if better c b then c else b) first rest in
      stat_hit_seq t (snd best);
      `Hit (fst best)

let lookup_reference t phv =
  lookup_reference_values t (List.map (fun k -> Phv.get phv k.field) t.keys)

(* --- Indexed lookup --- *)

let ibetter a b =
  if a.e.priority <> b.e.priority then a.e.priority > b.e.priority
  else if a.lpm <> b.lpm then a.lpm > b.lpm
  else a.seq < b.seq

let fold_best best l =
  List.fold_left
    (fun best ie ->
      match best with
      | None -> Some ie
      | Some b -> if ibetter ie b then Some ie else best)
    best l

(* The LPM masks were precomputed over the declared key widths; a PHV
   whose fields carry different widths (never the case for composed
   programs, whose keys mirror the header declarations) falls back to a
   [Bitval.t]-level scan over every installed entry. *)
let rec widths_from t vals i =
  i >= Array.length vals
  || (Bitval.width vals.(i) = t.kwidths.(i) && widths_from t vals (i + 1))

let widths_match t vals = widths_from t vals 0

let fold_matching_all t values =
  Hashtbl.fold
    (fun _ ie best ->
      if matches ie.e values then
        match best with
        | None -> Some ie
        | Some b -> if ibetter ie b then Some ie else best
      else best)
    t.store.by_seq None

let imatch1 ie v = ipat_matches ie.ipats.(0) v

let rec imatch_from ie raw i =
  i >= Array.length ie.ipats
  || (ipat_matches ie.ipats.(i) raw.(i) && imatch_from ie raw (i + 1))

let imatch ie raw = imatch_from ie raw 0

let fold_imatch1 best v l =
  List.fold_left
    (fun best ie ->
      if imatch1 ie v then
        match best with
        | None -> Some ie
        | Some b -> if ibetter ie b then Some ie else best
      else best)
    best l

let fold_imatch best raw l =
  List.fold_left
    (fun best ie ->
      if imatch ie raw then
        match best with
        | None -> Some ie
        | Some b -> if ibetter ie b then Some ie else best
      else best)
    best l

(* Groups are probed longest-first, but priority ranks above length, so
   a shorter group can still win. A group is skipped when the best hit
   so far outranks every entry it could hold: a higher priority than
   its [top], or the same priority and a strictly longer prefix (an
   equal length falls through to the seq tie-break, so it is probed).
   With uniform priorities, as in a FIB, the first hit skips the rest. *)
let probe_lpm idx best v0 =
  List.fold_left
    (fun best g ->
      match best with
      | Some b
        when b.e.priority > g.top || (b.e.priority = g.top && b.lpm > g.plen)
        ->
          best
      | _ -> (
          match HI64.find_opt g.buckets (Int64.logand v0 g.gmask) with
          | Some l -> fold_best best !l
          | None -> best))
    best idx.lpm

let lookup_ientry_raw t phv =
  let n = Array.length t.kgets in
  let idx = t.store.index in
  if n = 1 then begin
    (* Scalar path: no key arrays, value hashed directly. *)
    let v = t.kgets.(0) phv in
    if Bitval.width v <> t.kwidths.(0) then fold_matching_all t [ v ]
    else begin
      let v0 = Bitval.to_int64 v in
      let best =
        match HI64.find_opt idx.exact1 v0 with
        | Some l -> fold_best None !l
        | None -> None
      in
      let best = if idx.lpm == [] then best else probe_lpm idx best v0 in
      if idx.linear == [] then best else fold_imatch1 best v0 idx.linear
    end
  end
  else begin
    let vals = Array.init n (fun i -> t.kgets.(i) phv) in
    if not (widths_match t vals) then fold_matching_all t (Array.to_list vals)
    else begin
      let raw = Array.map Bitval.to_int64 vals in
      let best =
        match H64.find_opt idx.exact raw with
        | Some l -> fold_best None !l
        | None -> None
      in
      let best =
        if idx.lpm == [] then best else probe_lpm idx best raw.(0)
      in
      if idx.linear == [] then best else fold_imatch best raw idx.linear
    end
  end

let lookup_ientry t phv =
  (match t.store.on_lookup with Some f -> f () | None -> ());
  match lookup_ientry_raw t phv with
  | Some ie as r ->
      (match t.store.stats with
      | None -> ()
      | Some s ->
          s.hits <- s.hits + 1;
          ie.ehits <- ie.ehits + 1);
      r
  | None as r ->
      stat_miss t;
      r

let lookup t phv =
  match lookup_ientry t phv with None -> `Miss | Some ie -> `Hit ie.e

let apply ?(regs = Action.no_regs) t phv =
  match lookup_ientry t phv with
  | Some ie ->
      ie.crun regs ie.bound phv;
      (ie.e.action, true)
  | None ->
      t.default_crun regs t.default_bound phv;
      (fst t.default, false)

(* The pre-index apply: linear candidate scan, action resolved by name
   and argument list re-validated on every invocation. The reference
   interpreter runs on this so the oracle shares no code with the staged
   index or the pre-bound action data. *)
let apply_reference ?(regs = Action.no_regs) t phv =
  match lookup_reference t phv with
  | `Hit e ->
      let act =
        match find_action t e.action with
        | Some a -> a
        | None ->
            invalid_arg
              (Printf.sprintf "Table.apply %s: unknown action %s" t.name
                 e.action)
      in
      Action.run ~regs act ~args:e.args phv;
      (e.action, true)
  | `Miss ->
      let dname, dargs = t.default in
      Action.run ~regs t.default_act ~args:dargs phv;
      (dname, false)

(* --- Telemetry --- *)

let iter_ientries t f = Hashtbl.iter (fun _ ie -> f ie) t.store.by_seq

let set_stats_enabled t on =
  if on then begin
    (* (Re)enabling starts a fresh tally. *)
    iter_ientries t (fun ie -> ie.ehits <- 0);
    t.store.stats <- Some { hits = 0; misses = 0 }
  end
  else t.store.stats <- None

let stats t = t.store.stats

let reset_stats t =
  match t.store.stats with
  | None -> ()
  | Some s ->
      s.hits <- 0;
      s.misses <- 0;
      iter_ientries t (fun ie -> ie.ehits <- 0)

let entry_hits t = List.map (fun ie -> (ie.e, ie.ehits)) (ientries_by_seq t)

(* Fold a replica's tallies into this table's (both must have stats
   enabled, else no-op). Per-entry hits are matched by sequence number —
   a replica made with {!copy} reproduces them, and seqs are never
   reused within a store — so entries present only on one side (deleted
   here, or installed on the replica after the copy) are skipped rather
   than misattributed. *)
let merge_stats_from t ~src =
  match (t.store.stats, src.store.stats) with
  | Some d, Some s ->
      d.hits <- d.hits + s.hits;
      d.misses <- d.misses + s.misses;
      iter_ientries src (fun sie ->
          match Hashtbl.find_opt t.store.by_seq sie.seq with
          | Some ie -> ie.ehits <- ie.ehits + sie.ehits
          | None -> ())
  | None, _ | _, None -> ()

let index_stats t =
  let idx = t.store.index in
  ("exact1", HI64.stats idx.exact1)
  :: ("exact", H64.stats idx.exact)
  :: List.map
       (fun g -> (Printf.sprintf "lpm/%d" g.plen, HI64.stats g.buckets))
       idx.lpm

let key_bits t = List.fold_left (fun acc k -> acc + k.width) 0 t.keys

let pp ppf t =
  let kind_str = function
    | Exact -> "exact"
    | Ternary -> "ternary"
    | Lpm -> "lpm"
    | Range -> "range"
  in
  Format.fprintf ppf "@[<v 2>table %s {@,keys = {" t.name;
  List.iter
    (fun k -> Format.fprintf ppf " %a:%s;" Fieldref.pp k.field (kind_str k.kind))
    t.keys;
  Format.fprintf ppf " }@,actions = {%s}@,default = %s@,size = %d/%d@]@,}"
    (String.concat "; " (List.map (fun (a : Action.t) -> a.Action.name) t.actions))
    (fst t.default) (size t) t.max_size
