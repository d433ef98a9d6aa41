(* Tests for headers, PHVs, expressions, actions, tables, controls,
   dependency analysis and resource estimation. *)

open P4ir

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* The result-API install for tests: a failed install is a test bug. *)
let must_add t e =
  match Table.add_entry t e with Ok () -> () | Error m -> Alcotest.fail m

let meta = Hdr.decl "m" [ ("a", 8); ("b", 16); ("c", 32) ]
let fr h f = Fieldref.v h f
let bv w v = Bitval.of_int ~width:w v

let fresh_phv () =
  let phv = Phv.create [ meta ] in
  Phv.set_valid phv "m";
  phv

(* --- Hdr / Phv --- *)

let test_decl_validation () =
  Alcotest.check_raises "duplicate fields"
    (Invalid_argument "Hdr.decl x: duplicate field a") (fun () ->
      ignore (Hdr.decl "x" [ ("a", 8); ("a", 4) ]));
  Alcotest.check_raises "bad width"
    (Invalid_argument "Hdr.decl x: field f width 65 not in 1..64") (fun () ->
      ignore (Hdr.decl "x" [ ("f", 65) ]))

let test_hdr_extract_emit_roundtrip () =
  let d = Hdr.decl "h" [ ("x", 4); ("y", 12); ("z", 16) ] in
  let i = Hdr.inst d in
  let b = Bytes.of_string "\xAB\xCD\xEF\x01" in
  Hdr.extract i b ~bit_off:0;
  check Alcotest.int "x" 0xA (Bitval.to_int (Hdr.get i "x"));
  check Alcotest.int "y" 0xBCD (Bitval.to_int (Hdr.get i "y"));
  check Alcotest.int "z" 0xEF01 (Bitval.to_int (Hdr.get i "z"));
  let out = Bytes.make 4 '\000' in
  Hdr.emit i out ~bit_off:0;
  check Alcotest.bytes "emit inverts extract" b out

let test_hdr_set_resizes () =
  let d = Hdr.decl "h" [ ("x", 4) ] in
  let i = Hdr.inst d in
  Hdr.set i "x" (bv 32 0xFFF);
  check Alcotest.int "truncated to field width" 0xF (Bitval.to_int (Hdr.get i "x"))

let test_phv_validity () =
  let phv = Phv.create [ meta ] in
  check Alcotest.bool "starts invalid" false (Phv.is_valid phv "m");
  Phv.set_valid phv "m";
  check Alcotest.bool "set_valid" true (Phv.is_valid phv "m");
  check Alcotest.bool "absent header invalid" false (Phv.is_valid phv "nope")

let test_phv_copy_isolated () =
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 7;
  let copy = Phv.copy phv in
  Phv.set_int copy (fr "m" "a") 9;
  check Alcotest.int "original unchanged" 7 (Phv.get_int phv (fr "m" "a"));
  check Alcotest.int "copy changed" 9 (Phv.get_int copy (fr "m" "a"))

let test_phv_conflicting_decl () =
  let phv = Phv.create [ meta ] in
  Alcotest.check_raises "conflicting decl"
    (Invalid_argument "Phv.add_decl: conflicting declaration for m") (fun () ->
      Phv.add_decl phv (Hdr.decl "m" [ ("other", 8) ]))

(* --- Expr --- *)

let eval phv e = Expr.eval { Expr.phv; params = [] } e

let test_expr_arith () =
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 200;
  let e = Expr.(Field (fr "m" "a") + const ~width:8 100) in
  check Alcotest.int "8-bit wraparound" 44 (Bitval.to_int (eval phv e))

let test_expr_comparisons () =
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "b") 1000;
  let t e = Bitval.to_bool (eval phv e) in
  check Alcotest.bool "eq" true Expr.(t (Field (fr "m" "b") = const ~width:16 1000));
  check Alcotest.bool "lt" true Expr.(t (Field (fr "m" "b") < const ~width:16 2000));
  check Alcotest.bool "land" true
    Expr.(
      t
        (Bin
           ( LAnd,
             Field (fr "m" "b") = const ~width:16 1000,
             Un (LNot, Field (fr "m" "b") < const ~width:16 5) )))

let test_expr_valid_bit () =
  let phv = Phv.create [ meta ] in
  check Alcotest.bool "invalid header" false
    (Bitval.to_bool (eval phv (Expr.Valid "m")));
  Phv.set_valid phv "m";
  check Alcotest.bool "valid header" true
    (Bitval.to_bool (eval phv (Expr.Valid "m")))

let test_expr_hash_matches_crc32 () =
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "c") 0x31323334;
  let e = Expr.Hash (Expr.Crc32, 32, [ Expr.Field (fr "m" "c") ]) in
  let expected = Netpkt.Bytes_util.crc32 (Bytes.of_string "1234") ~off:0 ~len:4 in
  check Alcotest.int64 "hash = crc32 of serialized fields" expected
    (Bitval.to_int64 (eval phv e))

let test_expr_unbound_param () =
  let phv = fresh_phv () in
  Alcotest.check_raises "unbound param"
    (Invalid_argument "Expr.eval: unbound param nope") (fun () ->
      ignore (eval phv (Expr.Param "nope")))

let test_expr_reads () =
  let e =
    Expr.(Bin (Add, Field (fr "m" "a"), Bin (Mul, Field (fr "m" "b"), Valid "m")))
  in
  let reads = Expr.reads e in
  check Alcotest.int "three reads" 3 (Fieldref.Set.cardinal reads);
  check Alcotest.bool "validity pseudo-field" true
    (Fieldref.Set.mem (fr "m" "$valid") reads)

(* --- Action --- *)

let test_action_params () =
  let a =
    Action.make "set_a" ~params:[ ("v", 8) ]
      [ Action.Assign (fr "m" "a", Expr.Param "v") ]
  in
  let phv = fresh_phv () in
  Action.run a ~args:[ bv 8 42 ] phv;
  check Alcotest.int "param applied" 42 (Phv.get_int phv (fr "m" "a"));
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Action.run set_a: expected 1 args, got 0") (fun () ->
      Action.run a ~args:[] phv)

let test_action_read_write_sets () =
  let a =
    Action.make "mix"
      [
        Action.Assign (fr "m" "a", Expr.Field (fr "m" "b"));
        Action.Set_invalid "m";
      ]
  in
  check Alcotest.bool "reads b" true (Fieldref.Set.mem (fr "m" "b") (Action.reads a));
  check Alcotest.bool "writes a" true (Fieldref.Set.mem (fr "m" "a") (Action.writes a));
  check Alcotest.bool "writes validity" true
    (Fieldref.Set.mem (fr "m" "$valid") (Action.writes a))

(* --- Table --- *)

let mk_table ?(keys = [ { Table.field = fr "m" "a"; kind = Table.Exact; width = 8 } ])
    ?(max_size = 16) () =
  let set_b =
    Action.make "set_b" ~params:[ ("v", 16) ]
      [ Action.Assign (fr "m" "b", Expr.Param "v") ]
  in
  Table.make ~name:"t" ~keys
    ~actions:[ set_b; Action.no_op ]
    ~default:("NoAction", []) ~max_size ()

let test_table_exact_hit_miss () =
  let t = mk_table () in
  must_add t
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 5) ];
      action = "set_b"; args = [ bv 16 77 ] };
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 5;
  let action, hit = Table.apply t phv in
  check Alcotest.string "hit action" "set_b" action;
  check Alcotest.bool "hit" true hit;
  check Alcotest.int "action effect" 77 (Phv.get_int phv (fr "m" "b"));
  Phv.set_int phv (fr "m" "a") 6;
  let action, hit = Table.apply t phv in
  check Alcotest.string "miss action" "NoAction" action;
  check Alcotest.bool "miss" false hit

let test_table_priority () =
  let t =
    mk_table ~keys:[ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ] ()
  in
  must_add t
    { Table.priority = 1; patterns = [ Table.M_any ]; action = "set_b"; args = [ bv 16 1 ] };
  must_add t
    {
      Table.priority = 5;
      patterns = [ Table.M_ternary { value = bv 8 0xF0; mask = bv 8 0xF0 } ];
      action = "set_b";
      args = [ bv 16 2 ];
    };
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 0xF3;
  ignore (Table.apply t phv);
  check Alcotest.int "high priority wins" 2 (Phv.get_int phv (fr "m" "b"));
  Phv.set_int phv (fr "m" "a") 0x03;
  ignore (Table.apply t phv);
  check Alcotest.int "fallback entry" 1 (Phv.get_int phv (fr "m" "b"))

let test_table_lpm_longest_prefix () =
  let t =
    mk_table ~keys:[ { Table.field = fr "m" "c"; kind = Table.Lpm; width = 32 } ] ()
  in
  must_add t
    {
      Table.priority = 0;
      patterns = [ Table.M_lpm { value = bv 32 0x0A000000; prefix_len = 8 } ];
      action = "set_b";
      args = [ bv 16 8 ];
    };
  must_add t
    {
      Table.priority = 0;
      patterns = [ Table.M_lpm { value = bv 32 0x0A010000; prefix_len = 16 } ];
      action = "set_b";
      args = [ bv 16 16 ];
    };
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "c") 0x0A0102FF;
  ignore (Table.apply t phv);
  check Alcotest.int "longest prefix wins" 16 (Phv.get_int phv (fr "m" "b"));
  Phv.set_int phv (fr "m" "c") 0x0AFF0000;
  ignore (Table.apply t phv);
  check Alcotest.int "short prefix fallback" 8 (Phv.get_int phv (fr "m" "b"))

(* The LPM probe skips a prefix-length group only when the best hit so
   far outranks every entry the group could hold. Priority still ranks
   above length, equal length still falls through to insertion order,
   and a group's priority bound may be stale after a delete. *)
let test_table_lpm_skip_tiebreaks () =
  let t =
    mk_table ~max_size:32
      ~keys:[ { Table.field = fr "m" "c"; kind = Table.Lpm; width = 32 } ] ()
  in
  let lpm ?(prio = 0) value plen arg =
    { Table.priority = prio;
      patterns = [ Table.M_lpm { value = bv 32 value; prefix_len = plen } ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  let winner probe =
    let phv = fresh_phv () in
    Phv.set_int phv (fr "m" "c") probe;
    ignore (Table.apply t phv);
    (match (Table.lookup t phv, Table.lookup_reference t phv) with
    | `Hit e1, `Hit e2 when e1 == e2 -> ()
    | `Miss, `Miss -> ()
    | _ -> Alcotest.failf "indexed and reference lookups disagree on %x" probe);
    Phv.get_int phv (fr "m" "b")
  in
  must_add t (lpm 0x0A010200 24 24);
  must_add t (lpm 0x0A010000 16 16);
  check Alcotest.int "uniform priority: longest prefix" 24 (winner 0x0A010203);
  (* A shorter group holding a higher priority must still be probed. *)
  must_add t (lpm ~prio:2 0x0A000000 8 8);
  check Alcotest.int "priority beats length" 8 (winner 0x0A010203);
  (* Equal priority and equal length: the exact entry (full width, so
     the same rank as a /32) loses to the earlier /32 by sequence. *)
  must_add t (lpm ~prio:2 0x0A0102FF 32 32);
  must_add t
    { Table.priority = 2; patterns = [ Table.M_exact (bv 32 0x0A0102FF) ];
      action = "set_b"; args = [ bv 16 99 ] };
  check Alcotest.int "equal rank: earlier entry" 32 (winner 0x0A0102FF);
  (* Delete the /8 group's top entry: its bound stays 2 (stale), the
     lower entry left behind must not outrank the /24. *)
  must_add t (lpm ~prio:1 0x0A000000 8 80);
  check Alcotest.bool "del the group's top" true
    (Result.is_ok (Table.del_entry t (lpm ~prio:2 0x0A000000 8 0)));
  check Alcotest.int "stale bound, priority 1 wins" 80 (winner 0x0A010203);
  must_add t (lpm ~prio:1 0x0A010200 24 124);
  check Alcotest.int "stale bound, longer prefix wins" 124 (winner 0x0A010203)

(* Hash quality, measured by structure rather than time: keys that are
   aligned (masked prefixes, port-aligned values, 5-tuples varying only
   in aligned words) must still spread over the index buckets. *)
let test_index_hash_quality () =
  let n = 4096 in
  let load label keys pats =
    let t =
      Table.make ~name:label ~keys ~actions:[ Action.no_op ]
        ~default:("NoAction", []) ~max_size:n ()
    in
    for i = 0 to n - 1 do
      must_add t
        { Table.priority = 0; patterns = pats i; action = "NoAction"; args = [] }
    done;
    let loaded =
      List.filter
        (fun (_, (s : Hashtbl.statistics)) -> s.Hashtbl.num_bindings > 0)
        (Table.index_stats t)
    in
    check Alcotest.int (label ^ ": every key indexed") n
      (List.fold_left
         (fun acc (_, (s : Hashtbl.statistics)) -> acc + s.Hashtbl.num_bindings)
         0 loaded);
    List.iter
      (fun (part, (s : Hashtbl.statistics)) ->
        if s.Hashtbl.max_bucket_length > 16 then
          Alcotest.failf "%s (%s): longest bucket %d over %d buckets" label
            part s.Hashtbl.max_bucket_length s.Hashtbl.num_buckets)
      loaded
  in
  let lpm_key = [ { Table.field = fr "m" "c"; kind = Table.Lpm; width = 32 } ] in
  let prefix plen v =
    [ Table.M_lpm { value = bv 32 v; prefix_len = plen } ]
  in
  load "/24s" lpm_key (fun i -> prefix 24 ((10 lsl 24) lor (i lsl 8)));
  load "/20s" lpm_key (fun i -> prefix 20 ((10 lsl 24) lor (i lsl 12)));
  load "port-aligned exact"
    [ { Table.field = fr "m" "c"; kind = Table.Exact; width = 32 } ]
    (fun i -> [ Table.M_exact (bv 32 (i lsl 8)) ]);
  let five =
    List.map
      (fun (f, w) -> { Table.field = fr "f" f; kind = Table.Exact; width = w })
      [ ("src", 32); ("dst", 32); ("proto", 8); ("sport", 16); ("dport", 16) ]
  in
  load "5-tuples" five (fun i ->
      List.map
        (fun (w, v) -> Table.M_exact (bv w v))
        [ (32, (10 lsl 24) lor ((i lsr 6) lsl 8)); (32, 0xC0A80001); (8, 6);
          (16, (i land 63) lsl 8); (16, 443) ])

let test_table_range () =
  let t =
    mk_table ~keys:[ { Table.field = fr "m" "b"; kind = Table.Range; width = 16 } ] ()
  in
  must_add t
    {
      Table.priority = 0;
      patterns = [ Table.M_range { lo = bv 16 100; hi = bv 16 200 } ];
      action = "set_b";
      args = [ bv 16 1 ];
    };
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "b") 150;
  check Alcotest.bool "in range" true (snd (Table.apply t phv));
  Phv.set_int phv (fr "m" "b") 201;
  check Alcotest.bool "out of range" false (snd (Table.apply t phv))

let test_table_capacity () =
  let t = mk_table ~max_size:1 () in
  must_add t
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 1) ];
      action = "set_b"; args = [ bv 16 1 ] };
  check Alcotest.bool "over capacity rejected" true
    (Result.is_error
       (Table.add_entry t
          { Table.priority = 0; patterns = [ Table.M_exact (bv 8 2) ];
            action = "set_b"; args = [ bv 16 1 ] }))

let test_table_entry_validation () =
  let t = mk_table () in
  check Alcotest.bool "wrong arity rejected" true
    (Result.is_error
       (Table.add_entry t
          { Table.priority = 0; patterns = [ Table.M_exact (bv 8 1) ];
            action = "set_b"; args = [] }));
  check Alcotest.bool "unknown action rejected" true
    (Result.is_error
       (Table.add_entry t
          { Table.priority = 0; patterns = [ Table.M_exact (bv 8 1) ];
            action = "nope"; args = [] }));
  check Alcotest.bool "pattern kind mismatch rejected" true
    (Result.is_error
       (Table.add_entry t
          { Table.priority = 0;
            patterns = [ Table.M_lpm { value = bv 8 1; prefix_len = 4 } ];
            action = "set_b"; args = [ bv 16 1 ] }))

let test_keyless_table_runs_default () =
  let t = mk_table ~keys:[] () in
  let phv = fresh_phv () in
  let action, hit = Table.apply t phv in
  check Alcotest.string "default runs" "NoAction" action;
  check Alcotest.bool "counts as miss" false hit

(* Differential property: table lookup equals a naive linear-scan model. *)
let prop_ternary_lookup_model =
  QCheck.Test.make ~name:"ternary lookup = linear model" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 8) (triple small_nat small_nat small_nat))
        small_nat)
    (fun (raw_entries, probe) ->
      let t =
        mk_table
          ~keys:[ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ]
          ~max_size:64 ()
      in
      let entries =
        List.map (fun (v, m, p) -> (v land 0xff, m land 0xff, p land 7)) raw_entries
      in
      List.iter
        (fun (v, m, p) ->
          must_add t
            {
              Table.priority = p;
              patterns = [ Table.M_ternary { value = bv 8 v; mask = bv 8 m } ];
              action = "NoAction";
              args = [];
            })
        entries;
      let probe = probe land 0xff in
      let phv = fresh_phv () in
      Phv.set_int phv (fr "m" "a") probe;
      let model =
        List.fold_left
          (fun acc (v, m, p) ->
            if probe land m = v land m then
              match acc with Some bp when bp >= p -> acc | _ -> Some p
            else acc)
          None entries
      in
      match (Table.lookup t phv, model) with
      | `Miss, None -> true
      | `Hit e, Some p -> e.Table.priority = p
      | `Hit _, None | `Miss, Some _ -> false)

(* Differential property: the staged index (single-key exact hash,
   multi-key exact hash, LPM prefix-length buckets, precompiled linear
   remainder) must agree with the untouched linear-scan reference on
   every table shape — same hit entry (physically the same record), so
   priority, LPM longest-prefix and insertion-order tie-breaks all
   match. *)
let lookup_key_configs =
  [|
    [ { Table.field = fr "m" "a"; kind = Table.Exact; width = 8 } ];
    [
      { Table.field = fr "m" "a"; kind = Table.Exact; width = 8 };
      { Table.field = fr "m" "b"; kind = Table.Exact; width = 16 };
    ];
    [ { Table.field = fr "m" "c"; kind = Table.Lpm; width = 32 } ];
    [ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ];
    [
      { Table.field = fr "m" "b"; kind = Table.Lpm; width = 16 };
      { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 };
    ];
    [ { Table.field = fr "m" "b"; kind = Table.Range; width = 16 } ];
  |]

let lookup_pattern_for (k : Table.key) ~v ~m =
  let w = k.Table.width in
  let maxv = (1 lsl w) - 1 in
  match k.Table.kind with
  | Table.Exact -> Table.M_exact (bv w (v land maxv))
  | Table.Lpm ->
      let plen = m mod (w + 1) in
      let pmask = if plen = 0 then 0 else ((1 lsl plen) - 1) lsl (w - plen) in
      (* A full-width LPM key may also hold an exact value: it ranks as
         a /w, so it ties with the /w group on length. *)
      if plen = w && (m / (w + 1)) land 1 = 1 then Table.M_exact (bv w (v land maxv))
      else Table.M_lpm { value = bv w (v land pmask); prefix_len = plen }
  | Table.Ternary ->
      if m mod 5 = 0 then Table.M_any
      else Table.M_ternary { value = bv w (v land maxv); mask = bv w (m land maxv) }
  | Table.Range ->
      let lo = v land maxv in
      Table.M_range { lo = bv w lo; hi = bv w (min maxv (lo + (m land 0xff))) }

(* Probe the key values an installed entry was drawn from: it matches
   that entry, and with it every nested prefix and wildcard entry, so
   several LPM groups (of mixed priorities) compete for the hit. *)
let set_probe_from keys phv (_, v1, v2, _) =
  List.iteri
    (fun i (k : Table.key) ->
      Phv.set_int phv k.Table.field
        ((if i = 0 then v1 else v2) land ((1 lsl k.Table.width) - 1)))
    keys

let prop_indexed_lookup_matches_reference =
  QCheck.Test.make ~name:"indexed lookup = reference scan" ~count:500
    QCheck.(
      pair
        (pair (int_bound 5)
           (list_of_size Gen.(int_bound 24)
              (quad small_nat small_nat small_nat (int_bound 0xffffff))))
        (quad small_nat small_nat small_nat bool))
    (fun ((cfg, raw_entries), (pa, pb, pc, from_entry)) ->
      let keys = lookup_key_configs.(cfg) in
      let t =
        Table.make ~name:"t" ~keys ~actions:[ Action.no_op ]
          ~default:("NoAction", []) ~max_size:64 ()
      in
      List.iter
        (fun (p, v1, v2, m) ->
          let patterns =
            List.mapi
              (fun i k ->
                lookup_pattern_for k
                  ~v:(if i = 0 then v1 else v2)
                  ~m:(m lsr (i * 7)))
              keys
          in
          must_add t
            { Table.priority = p land 3; patterns; action = "NoAction"; args = [] })
        raw_entries;
      let phv = fresh_phv () in
      Phv.set_int phv (fr "m" "a") (pa land 0xff);
      Phv.set_int phv (fr "m" "b") (pb land 0xffff);
      Phv.set_int phv (fr "m" "c") pc;
      if from_entry && raw_entries <> [] then
        set_probe_from keys phv
          (List.nth raw_entries (pc mod List.length raw_entries));
      match (Table.lookup t phv, Table.lookup_reference t phv) with
      | `Miss, `Miss -> true
      | `Hit e1, `Hit e2 -> e1 == e2
      | `Hit _, `Miss | `Miss, `Hit _ -> false)

(* --- del_entry / mod_entry --- *)

let test_table_del_entry () =
  let t = mk_table () in
  let e v arg =
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 v) ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  must_add t (e 1 10);
  must_add t (e 2 20);
  let epoch0 = Table.epoch t in
  (* Deletion names the entry by match key; action/args are ignored. *)
  check Alcotest.bool "del by key" true (Result.is_ok (Table.del_entry t (e 1 99)));
  check Alcotest.int "one left" 1 (Table.size t);
  check Alcotest.bool "epoch bumped" true (Table.epoch t > epoch0);
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 1;
  check Alcotest.bool "deleted key misses" false (snd (Table.apply t phv));
  Phv.set_int phv (fr "m" "a") 2;
  check Alcotest.bool "survivor still hits" true (snd (Table.apply t phv));
  check Alcotest.bool "missing key errors" true
    (Result.is_error (Table.del_entry t (e 1 0)))

let test_table_mod_entry () =
  let t = mk_table () in
  let e arg =
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 7) ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  must_add t (e 11);
  Table.set_stats_enabled t true;
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 7;
  ignore (Table.apply t phv);
  check Alcotest.int "pre-mod action ran" 11 (Phv.get_int phv (fr "m" "b"));
  check Alcotest.bool "mod rebinds" true (Result.is_ok (Table.mod_entry t (e 22)));
  ignore (Table.apply t phv);
  check Alcotest.int "post-mod action ran" 22 (Phv.get_int phv (fr "m" "b"));
  (* The entry kept its identity: same size, hit tally carried over. *)
  check Alcotest.int "size unchanged" 1 (Table.size t);
  (match Table.entry_hits t with
  | [ (entry, hits) ] ->
      check Alcotest.int "hits preserved across mod" 2 hits;
      check Alcotest.int "new args stored" 22
        (Bitval.to_int (List.hd entry.Table.args))
  | _ -> Alcotest.fail "expected one entry");
  check Alcotest.bool "unknown action rejected" true
    (Result.is_error
       (Table.mod_entry t
          { (e 0) with Table.action = "nope"; args = [] }));
  check Alcotest.bool "missing key rejected" true
    (Result.is_error
       (Table.mod_entry t
          { (e 0) with Table.patterns = [ Table.M_exact (bv 8 9) ] }))

let test_table_mod_keeps_tiebreak () =
  (* Two same-priority ternary entries: the first installed wins the
     tie. A mod of the first must not surrender its seniority. *)
  let t =
    mk_table
      ~keys:[ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ]
      ()
  in
  let entry v m arg =
    { Table.priority = 1;
      patterns = [ Table.M_ternary { value = bv 8 v; mask = bv 8 m } ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  (* Distinct keys, both matching probe 0xF5; equal priority, so the
     first-installed entry wins. *)
  must_add t (entry 0x05 0x0F 1);
  must_add t (entry 0xF0 0xF0 2);
  check Alcotest.bool "mod the senior entry" true
    (Result.is_ok (Table.mod_entry t (entry 0x05 0x0F 3)));
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 0xF5;
  ignore (Table.apply t phv);
  check Alcotest.int "senior entry still wins the tie" 3
    (Phv.get_int phv (fr "m" "b"))

let test_stats_merge_after_churn () =
  (* The sharding telemetry fold: per-entry hits merge by sequence
     number from a replica. Entries deleted (or cleared) on the primary
     while the replica ran must drop their tallies instead of
     misattributing them, and post-clear entries must never reuse a
     dead seq. *)
  let t = mk_table () in
  let e v arg =
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 v) ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  must_add t (e 1 10);
  must_add t (e 2 20);
  Table.set_stats_enabled t true;
  let replica = Table.copy t in
  Table.set_stats_enabled replica true;
  (* Primary churns while the replica serves traffic. *)
  check Alcotest.bool "del on primary" true (Result.is_ok (Table.del_entry t (e 1 0)));
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 1;
  ignore (Table.apply replica phv);
  Phv.set_int phv (fr "m" "a") 2;
  ignore (Table.apply replica phv);
  Table.merge_stats_from t ~src:replica;
  (match Table.entry_hits t with
  | [ (entry, hits) ] ->
      check Alcotest.int "survivor's tally merged" 1 hits;
      check Alcotest.int "and it is the survivor" 2
        (Bitval.to_int (match entry.Table.patterns with
                        | [ Table.M_exact v ] -> v
                        | _ -> Alcotest.fail "unexpected pattern"))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length l)));
  (* Clear, refill: fresh seqs, so a second merge from the stale
     replica pairs nothing. *)
  Table.clear t;
  must_add t (e 3 30);
  Table.merge_stats_from t ~src:replica;
  match Table.entry_hits t with
  | [ (_, hits) ] -> check Alcotest.int "no cross-generation pairing" 0 hits
  | _ -> Alcotest.fail "expected 1 entry"

(* Differential property: a random add/del/mod trace maintained
   incrementally must keep the staged index equivalent to the linear
   reference scan after every op — same physical hit entry, so
   priority, longest-prefix and insertion-order tie-breaks survive
   deletions and in-place rebinds. One op kind deletes the
   highest-priority entry of a prefix length, leaving that LPM group's
   priority bound stale. *)
let prop_op_trace_matches_reference =
  QCheck.Test.make ~name:"add/del/mod trace: indexed lookup = reference scan"
    ~count:400
    QCheck.(
      pair
        (pair (int_bound 5)
           (list_of_size Gen.(int_bound 30)
              (quad small_nat small_nat small_nat (int_bound 0xffffff))))
        (triple small_nat small_nat small_nat))
    (fun ((cfg, raw_ops), (pa, pb, pc)) ->
      let keys = lookup_key_configs.(cfg) in
      let t =
        Table.make ~name:"t" ~keys ~actions:[ Action.no_op ]
          ~default:("NoAction", []) ~max_size:64 ()
      in
      let agree () =
        let phv = fresh_phv () in
        Phv.set_int phv (fr "m" "a") (pa land 0xff);
        Phv.set_int phv (fr "m" "b") (pb land 0xffff);
        Phv.set_int phv (fr "m" "c") pc;
        (match (Table.lookup t phv, Table.lookup_reference t phv) with
        | `Miss, `Miss -> true
        | `Hit e1, `Hit e2 -> e1 == e2
        | `Hit _, `Miss | `Miss, `Hit _ -> false)
        && Table.size t = List.length (Table.entries t)
      in
      List.for_all
        (fun (op, v1, v2, m) ->
          let patterns =
            List.mapi
              (fun i k ->
                lookup_pattern_for k
                  ~v:(if i = 0 then v1 else v2)
                  ~m:(m lsr (i * 7)))
              keys
          in
          let entry =
            { Table.priority = (m lsr 20) land 3; patterns;
              action = "NoAction"; args = [] }
          in
          (* Dels and mods of absent keys legitimately error; the index
             must stay coherent either way. *)
          (match op mod 5 with
          | 0 | 1 -> ignore (Table.add_entry t entry)
          | 2 -> ignore (Table.del_entry t entry)
          | 3 -> ignore (Table.mod_entry t entry)
          | _ -> (
              let plen (e : Table.entry) =
                match e.Table.patterns with
                | Table.M_lpm { prefix_len; _ } :: _ -> prefix_len
                | _ -> -1
              in
              let by_priority =
                List.stable_sort
                  (fun (a : Table.entry) (b : Table.entry) ->
                    compare b.Table.priority a.Table.priority)
                  (List.filter (fun e -> plen e = plen entry) (Table.entries t))
              in
              match by_priority with
              | top :: _ -> ignore (Table.del_entry t top)
              | [] -> ignore (Table.add_entry t entry)));
          agree ())
        raw_ops)

(* --- Control --- *)

let mk_env tables name = List.find_opt (fun t -> Table.name t = name) tables

let test_control_apply_switch () =
  let t = mk_table () in
  must_add t
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 1) ];
      action = "set_b"; args = [ bv 16 7 ] };
  let control =
    Control.make "c"
      [
        Control.Apply_switch
          ( "t",
            [
              ( "set_b",
                [ Control.Run [ Action.Assign (fr "m" "c", Expr.const ~width:32 111) ] ]
              );
            ],
            [ Control.Run [ Action.Assign (fr "m" "c", Expr.const ~width:32 222) ] ]
          );
      ]
  in
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 1;
  Control.exec (mk_env [ t ]) control phv;
  check Alcotest.int "switch branch" 111 (Phv.get_int phv (fr "m" "c"));
  Phv.set_int phv (fr "m" "a") 0;
  Control.exec (mk_env [ t ]) control phv;
  check Alcotest.int "default branch" 222 (Phv.get_int phv (fr "m" "c"))

let test_control_apply_hit () =
  let t = mk_table () in
  must_add t
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 9) ];
      action = "NoAction"; args = [] };
  let control =
    Control.make "c"
      [
        Control.Apply_hit
          ( "t",
            [ Control.Run [ Action.Assign (fr "m" "b", Expr.const ~width:16 1) ] ],
            [ Control.Run [ Action.Assign (fr "m" "b", Expr.const ~width:16 2) ] ] );
      ]
  in
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 9;
  Control.exec (mk_env [ t ]) control phv;
  check Alcotest.int "hit branch" 1 (Phv.get_int phv (fr "m" "b"));
  Phv.set_int phv (fr "m" "a") 8;
  Control.exec (mk_env [ t ]) control phv;
  check Alcotest.int "miss branch" 2 (Phv.get_int phv (fr "m" "b"))

let test_control_trace_and_rename () =
  let t = mk_table () in
  let control = Control.make "c" [ Control.Label ("nf1", [ Control.Apply "t" ]) ] in
  let renamed = Control.map_tables (fun n -> "x__" ^ n) control in
  check Alcotest.(list string) "tables renamed" [ "x__t" ]
    (Control.tables_used renamed);
  let trace = ref [] in
  Control.exec ~trace (mk_env [ t ]) control (fresh_phv ());
  check Alcotest.int "trace has label + table" 2 (List.length !trace)

let test_control_validate () =
  let control = Control.make "c" [ Control.Apply "missing" ] in
  check Alcotest.bool "unknown table rejected" true
    (Result.is_error (Control.validate (mk_env []) control));
  let t = mk_table () in
  let bad_switch =
    Control.make "c" [ Control.Apply_switch ("t", [ ("ghost", []) ], []) ]
  in
  check Alcotest.bool "unknown switch action rejected" true
    (Result.is_error (Control.validate (mk_env [ t ]) bad_switch))

let test_gateway_count () =
  let control =
    Control.make "c"
      [
        Control.If
          (Expr.const ~width:1 1, [ Control.If (Expr.const ~width:1 0, [], []) ], []);
      ]
  in
  check Alcotest.int "nested ifs counted" 2 (Control.gateway_count control)

(* Differential property: a precompiled control must have the same
   observable behavior as the statement-tree interpreter — identical
   PHV effects and identical trace events (including rendered gateway
   condition strings) on random programs and random packet state. *)
let control_stmt_of_code code =
  let set f w v = Control.Run [ Action.Assign (fr "m" f, Expr.const ~width:w v) ] in
  match code mod 6 with
  | 0 -> Control.Apply "t"
  | 1 ->
      Control.Run
        [
          Action.Assign
            ( fr "m" "c",
              Expr.(Field (fr "m" "c") + const ~width:32 (code land 0xff)) );
        ]
  | 2 ->
      Control.If
        ( Expr.(Field (fr "m" "a") < const ~width:8 ((code lsr 3) land 0xff)),
          [ Control.Apply "t" ],
          [ set "b" 16 (code land 0xffff) ] )
  | 3 -> Control.Apply_hit ("t", [ set "c" 32 1 ], [ set "c" 32 2 ])
  | 4 ->
      Control.Apply_switch
        ("t", [ ("set_b", [ set "c" 32 (code land 0xff) ]) ], [ set "c" 32 99 ])
  | _ -> Control.Label ("nf", [ Control.Apply "t" ])

let prop_compiled_control_matches_exec =
  QCheck.Test.make ~name:"compiled control = interpreter" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 12) (int_bound 0xffff))
        (pair small_nat small_nat))
    (fun (codes, (pa, pb)) ->
      let t = mk_table () in
      List.iter
        (fun v ->
          must_add t
            { Table.priority = 0; patterns = [ Table.M_exact (bv 8 v) ];
              action = "set_b"; args = [ bv 16 (100 + v) ] })
        [ 1; 2; 3 ];
      let env = mk_env [ t ] in
      let control = Control.make "c" (List.map control_stmt_of_code codes) in
      let phv1 = fresh_phv () in
      Phv.set_int phv1 (fr "m" "a") (pa land 0xff);
      Phv.set_int phv1 (fr "m" "b") (pb land 0xffff);
      let phv2 = Phv.copy phv1 in
      let tr1 = ref [] and tr2 = ref [] in
      Control.exec ~trace:tr1 env control phv1;
      Control.run_compiled ~trace:tr2 (Control.compile env control) phv2;
      Phv.equal phv1 phv2 && !tr1 = !tr2)

(* --- Deps / Resources --- *)

let two_table_program ~dependent =
  (* t1 writes m.a; t2 matches m.a (dependent) or m.b (independent). *)
  let t1 =
    Table.make ~name:"t1"
      ~keys:[ { Table.field = fr "m" "c"; kind = Table.Exact; width = 32 } ]
      ~actions:
        [ Action.make "w" [ Action.Assign (fr "m" "a", Expr.const ~width:8 1) ] ]
      ~default:("w", []) ()
  in
  let key = if dependent then fr "m" "a" else fr "m" "b" in
  let t2 =
    Table.make ~name:"t2"
      ~keys:[ { Table.field = key; kind = Table.Exact; width = 8 } ]
      ~actions:[ Action.no_op ] ~default:("NoAction", []) ()
  in
  let control = Control.make "c" [ Control.Apply "t1"; Control.Apply "t2" ] in
  (mk_env [ t1; t2 ], control)

let test_match_dependency_forces_stage () =
  let env, control = two_table_program ~dependent:true in
  let stages, total = Deps.min_stages env control in
  check Alcotest.int "t1 at stage 0" 0 (List.assoc "t1" stages);
  check Alcotest.int "t2 pushed to stage 1" 1 (List.assoc "t2" stages);
  check Alcotest.int "two stages total" 2 total

let test_independent_tables_share_stage () =
  let env, control = two_table_program ~dependent:false in
  let stages, total = Deps.min_stages env control in
  check Alcotest.int "t2 stays at stage 0" 0 (List.assoc "t2" stages);
  check Alcotest.int "one stage total" 1 total

let test_gateway_reads_create_dependency () =
  let t1 =
    Table.make ~name:"t1" ~keys:[]
      ~actions:
        [ Action.make "w" [ Action.Assign (fr "m" "a", Expr.const ~width:8 1) ] ]
      ~default:("w", []) ()
  in
  let t2 =
    Table.make ~name:"t2"
      ~keys:[ { Table.field = fr "m" "b"; kind = Table.Exact; width = 16 } ]
      ~actions:[ Action.no_op ] ~default:("NoAction", []) ()
  in
  let control =
    Control.make "c"
      [
        Control.Apply "t1";
        Control.If
          (Expr.(Field (fr "m" "a") = const ~width:8 1), [ Control.Apply "t2" ], []);
      ]
  in
  let stages, _ = Deps.min_stages (mk_env [ t1; t2 ]) control in
  check Alcotest.int "guarded table depends on writer" 1 (List.assoc "t2" stages)

let test_resources_exact_vs_ternary () =
  let exact = mk_table () in
  let tern =
    mk_table ~keys:[ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ] ()
  in
  let re = Resources.of_table exact and rt = Resources.of_table tern in
  check Alcotest.bool "exact uses sram" true (re.Resources.srams > 0);
  check Alcotest.int "exact uses no tcam" 0 re.Resources.tcams;
  check Alcotest.bool "ternary uses tcam" true (rt.Resources.tcams > 0)

let test_resources_fits () =
  let caps =
    Resources.scale 2
      {
        Resources.stages = 1;
        table_ids = 4;
        srams = 10;
        tcams = 2;
        crossbar_bytes = 16;
        vliws = 8;
        gateways = 4;
        hash_bits = 64;
      }
  in
  let demand = Resources.{ zero with stages = 1; table_ids = 3 } in
  check Alcotest.bool "fits" true (Resources.fits demand ~cap:caps);
  check Alcotest.bool "too many stages" false
    (Resources.fits Resources.{ demand with stages = 3 } ~cap:caps)

let test_resources_max_merge () =
  let a = Resources.{ zero with stages = 3; srams = 2 } in
  let b = Resources.{ zero with stages = 1; srams = 5 } in
  let m = Resources.max_merge a b in
  check Alcotest.int "stages take max" 3 m.Resources.stages;
  check Alcotest.int "memories add" 7 m.Resources.srams

let () =
  Alcotest.run "p4ir"
    [
      ( "hdr_phv",
        [
          Alcotest.test_case "decl validation" `Quick test_decl_validation;
          Alcotest.test_case "extract/emit roundtrip" `Quick
            test_hdr_extract_emit_roundtrip;
          Alcotest.test_case "set resizes" `Quick test_hdr_set_resizes;
          Alcotest.test_case "phv validity" `Quick test_phv_validity;
          Alcotest.test_case "phv copy isolation" `Quick test_phv_copy_isolated;
          Alcotest.test_case "phv decl conflict" `Quick test_phv_conflicting_decl;
        ] );
      ( "expr",
        [
          Alcotest.test_case "modular arith" `Quick test_expr_arith;
          Alcotest.test_case "comparisons" `Quick test_expr_comparisons;
          Alcotest.test_case "validity bit" `Quick test_expr_valid_bit;
          Alcotest.test_case "crc32 hash" `Quick test_expr_hash_matches_crc32;
          Alcotest.test_case "unbound param" `Quick test_expr_unbound_param;
          Alcotest.test_case "read sets" `Quick test_expr_reads;
        ] );
      ( "action",
        [
          Alcotest.test_case "params" `Quick test_action_params;
          Alcotest.test_case "read/write sets" `Quick test_action_read_write_sets;
        ] );
      ( "table",
        [
          Alcotest.test_case "exact hit/miss" `Quick test_table_exact_hit_miss;
          Alcotest.test_case "priority" `Quick test_table_priority;
          Alcotest.test_case "lpm longest prefix" `Quick test_table_lpm_longest_prefix;
          Alcotest.test_case "lpm skip tie-breaks" `Quick
            test_table_lpm_skip_tiebreaks;
          Alcotest.test_case "index hash quality" `Quick test_index_hash_quality;
          Alcotest.test_case "range" `Quick test_table_range;
          Alcotest.test_case "capacity" `Quick test_table_capacity;
          Alcotest.test_case "entry validation" `Quick test_table_entry_validation;
          Alcotest.test_case "keyless default" `Quick test_keyless_table_runs_default;
          Alcotest.test_case "del_entry" `Quick test_table_del_entry;
          Alcotest.test_case "mod_entry" `Quick test_table_mod_entry;
          Alcotest.test_case "mod keeps tie-break" `Quick
            test_table_mod_keeps_tiebreak;
          Alcotest.test_case "stats merge after churn" `Quick
            test_stats_merge_after_churn;
          qtest prop_ternary_lookup_model;
          qtest prop_indexed_lookup_matches_reference;
          qtest prop_op_trace_matches_reference;
        ] );
      ( "control",
        [
          Alcotest.test_case "apply_switch" `Quick test_control_apply_switch;
          Alcotest.test_case "apply_hit" `Quick test_control_apply_hit;
          Alcotest.test_case "trace and rename" `Quick test_control_trace_and_rename;
          Alcotest.test_case "validate" `Quick test_control_validate;
          Alcotest.test_case "gateway count" `Quick test_gateway_count;
          qtest prop_compiled_control_matches_exec;
        ] );
      ( "deps_resources",
        [
          Alcotest.test_case "match dep forces stage" `Quick
            test_match_dependency_forces_stage;
          Alcotest.test_case "independent share stage" `Quick
            test_independent_tables_share_stage;
          Alcotest.test_case "gateway dependency" `Quick
            test_gateway_reads_create_dependency;
          Alcotest.test_case "exact vs ternary memories" `Quick
            test_resources_exact_vs_ternary;
          Alcotest.test_case "fits" `Quick test_resources_fits;
          Alcotest.test_case "max_merge" `Quick test_resources_max_merge;
        ] );
    ]
