(* The benchmark's own pieces: Zipf sampler, tail-percentile selection,
   span self-time arithmetic and seed determinism of the workloads. *)

open Perfbench

let close ~eps a b = Float.abs (a -. b) <= eps

let test_zipf_cdf () =
  let s = 1.1 and n = 1000 in
  let cdf = Gen.zipf_cdf ~s n in
  Alcotest.(check (float 0.0)) "last entry is exactly 1" 1.0 cdf.(n - 1);
  for i = 1 to n - 1 do
    if not (cdf.(i) > cdf.(i - 1)) then Alcotest.failf "cdf not increasing at %d" i
  done;
  let h = ref 0.0 in
  for i = 1 to n do
    h := !h +. (1.0 /. (float_of_int i ** s))
  done;
  Alcotest.(check bool) "rank 0 mass is 1/H(n,s)" true (close ~eps:1e-12 cdf.(0) (1.0 /. !h));
  Alcotest.(check bool)
    "rank 1 mass is 2^-s/H(n,s)" true
    (close ~eps:1e-12 (cdf.(1) -. cdf.(0)) ((2.0 ** -.s) /. !h))

let test_zipf_draw () =
  let n = 64 and draws = 200_000 in
  let cdf = Gen.zipf_cdf ~s:1.1 n in
  let rng = Random.State.make [| 42 |] in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Gen.zipf_draw cdf rng in
    counts.(r) <- counts.(r) + 1
  done;
  (* Each of the first ranks lands within 5 standard deviations of its
     expected count. *)
  for r = 0 to 7 do
    let p = if r = 0 then cdf.(0) else cdf.(r) -. cdf.(r - 1) in
    let mean = p *. float_of_int draws in
    let sd = sqrt (mean *. (1.0 -. p)) in
    if Float.abs (float_of_int counts.(r) -. mean) > 5.0 *. sd then
      Alcotest.failf "rank %d drawn %d times, expected %.0f" r counts.(r) mean
  done;
  Alcotest.(check int) "every draw in range" draws (Array.fold_left ( + ) 0 counts)

let beyond a v = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 a

let test_tail_distinct () =
  let a = Array.init 100 (fun i -> float_of_int ((i * 37) mod 100)) in
  match Stats.tail a with
  | None -> Alcotest.fail "expected a tail"
  | Some (v, pct) ->
      Alcotest.(check (float 0.0)) "11th largest" 89.0 v;
      Alcotest.(check int) "exactly 10 beyond" 10 (beyond a v);
      Alcotest.(check (float 1e-9)) "percentile" 90.0 pct

let test_tail_ties () =
  (* The 12 largest samples tie: the tail must drop below all of them. *)
  let a = Array.init 50 (fun i -> if i >= 38 then 100.0 else float_of_int i) in
  (match Stats.tail a with
  | None -> Alcotest.fail "expected a tail"
  | Some (v, _) ->
      Alcotest.(check (float 0.0)) "below the tie" 37.0 v;
      Alcotest.(check bool) ">= 10 beyond" true (beyond a v >= 10));
  Alcotest.(check bool) "all equal: no tail" true (Stats.tail (Array.make 40 1.0) = None)

let test_tail_too_few () =
  Alcotest.(check bool) "10 samples: no tail" true (Stats.tail (Array.init 10 float_of_int) = None);
  match Stats.tail (Array.init 11 float_of_int) with
  | Some (v, _) -> Alcotest.(check (float 0.0)) "11 samples: the minimum" 0.0 v
  | None -> Alcotest.fail "11 samples have a tail"

let test_segmented_tail () =
  (* 1000 samples in 5 segments of 200; one segment has a burst of 50
     slow samples, which sets only that segment's tail. *)
  let a = Array.init 1000 (fun i -> if i >= 400 && i < 450 then 1000.0 else float_of_int (i mod 200)) in
  match Stats.segmented_tail a with
  | None -> Alcotest.fail "expected a tail"
  | Some (v, pct, k) ->
      Alcotest.(check int) "five segments" 5 k;
      Alcotest.(check (float 0.0)) "burst ignored" 189.0 v;
      Alcotest.(check (float 1e-9)) "segment percentile" 95.0 pct

(* A sample is quiet only when the probes on both sides of it ran within
   the tolerance of the 5th-percentile probe. *)
let test_probe_quiet () =
  let n = 40 in
  let before = Array.make n 100.0 and after = Array.make n 100.0 in
  before.(3) <- 160.0;
  after.(7) <- 119.0;
  after.(9) <- 121.0;
  let limit = Probe.limit (Array.append before after) in
  Alcotest.(check (float 1e-9)) "limit from the p5 probe" 120.0 limit;
  Alcotest.(check bool) "too few quiet: all count" true
    (Array.for_all Fun.id (Probe.quiet ~limit ~min:(n - 1) ~before ~after));
  let q = Probe.quiet ~limit ~min:1 ~before ~after in
  Alcotest.(check (list int))
    "loud samples" [ 3; 9 ]
    (List.filter (fun i -> not q.(i)) (List.init n Fun.id));
  Alcotest.(check int) "picked in order" 38 (Array.length (Probe.pick q (Array.init n float_of_int)));
  Alcotest.(check (float 0.0)) "first loud one skipped" 4.0 (Probe.pick q (Array.init n float_of_int)).(3)

let test_self_time () =
  let self = Spans.self_time ~start:0 ~stop:100 in
  Alcotest.(check int) "no children" 100 (self []);
  Alcotest.(check int) "disjoint children" 70 (self [ (10, 20); (50, 70) ]);
  Alcotest.(check int) "overlapping children counted once" 50 (self [ (10, 30); (20, 50); (60, 70) ]);
  Alcotest.(check int) "nested child inside a sibling" 60 (self [ (10, 50); (20, 30) ]);
  Alcotest.(check int) "child past the parent clipped" 90 (self [ (90, 120) ]);
  Alcotest.(check int) "child before the parent ignored" 100 (self [ (-20, -5) ]);
  Alcotest.(check int) "children covering everything" 0 (self [ (-10, 60); (40, 200) ])

(* Recorded spans nest: the self times of a tree sum to its root. *)
let test_self_times_sum () =
  let sp = Spans.create ~cap:64 in
  let a = Spans.intern "a" and b = Spans.intern "b" and c = Spans.intern "c" in
  let spin () =
    let t0 = Spans.now () in
    while Spans.now () - t0 < 20_000 do
      ()
    done
  in
  Spans.span sp ~name:a ~id:1 (fun () ->
      spin ();
      Spans.span sp ~name:b ~id:(-1) (fun () ->
          spin ();
          Spans.span sp ~name:c ~id:(-1) spin);
      Spans.span sp ~name:c ~id:(-1) spin);
  Alcotest.(check int) "four spans" 4 (Spans.length sp);
  Alcotest.(check int) "children inherit the id" 1 sp.Spans.id.(3);
  let self = Spans.self_times sp in
  let root = sp.Spans.stop.(0) - sp.Spans.start.(0) in
  Alcotest.(check int) "parts sum to the whole" root (Array.fold_left ( + ) 0 self);
  Array.iter (fun s -> if s < 15_000 then Alcotest.failf "self time %d too small" s) self

(* Coverage counts only time under a layer span: a gap inside a batch
   that no layer span covers is charged to nobody, and past the
   tolerance it fails the gate. *)
let test_coverage_gate () =
  let batch ~gap =
    let sp = Spans.create ~cap:8 in
    List.iteri
      (fun i (name, parent, start, stop) ->
        sp.Spans.name.(i) <- Spans.intern name;
        sp.Spans.parent.(i) <- parent;
        sp.Spans.start.(i) <- start;
        sp.Spans.stop.(i) <- stop)
      [
        ("batch", -1, 0, 1000 + gap);
        ("runtime.process", 0, 0, 600);
        ("chip.inject", 1, 100, 500);
        ("runtime.process", 0, 600 + gap, 1000 + gap);
      ];
    sp.Spans.n <- 4;
    Runner.coverage sp ~wall_ns:(1000 + gap)
  in
  Alcotest.(check (float 1e-12)) "no gap: fully covered" 1.0 (batch ~gap:0);
  Alcotest.(check bool) "no gap: gate passes" true (Runner.coverage_ok (batch ~gap:0));
  Alcotest.(check (float 1e-12)) "gap: uncovered share missing" 0.8 (batch ~gap:250);
  Alcotest.(check bool) "gap: gate fails" false (Runner.coverage_ok (batch ~gap:250));
  Alcotest.(check bool) "time outside the batch span fails it too" false
    (Runner.coverage_ok
       (let sp = Spans.create ~cap:2 in
        sp.Spans.name.(0) <- Spans.intern "batch";
        sp.Spans.parent.(0) <- -1;
        sp.Spans.stop.(0) <- 1000;
        sp.Spans.name.(1) <- Spans.intern "runtime.process";
        sp.Spans.parent.(1) <- 0;
        sp.Spans.stop.(1) <- 1000;
        sp.Spans.n <- 2;
        Runner.coverage sp ~wall_ns:1200))

let test_overflow () =
  let sp = Spans.create ~cap:1 in
  let a = Spans.intern "a" in
  Spans.span sp ~name:a ~id:0 (fun () -> Spans.span sp ~name:a ~id:0 ignore);
  Alcotest.(check bool) "overflow flagged" true sp.Spans.overflowed;
  Alcotest.(check int) "only the first kept" 1 (Spans.length sp);
  Alcotest.(check int) "nesting intact" (-1) sp.Spans.cur

let frames batches = Array.map (Array.map (fun (p, f) -> (p, Bytes.to_string f))) batches

let test_fig2_determinism () =
  let flows seed = Array.map Bytes.to_string (Gen.fig2_flows ~seed 128) in
  Alcotest.(check bool) "same seed, same flows" true (flows 7 = flows 7);
  Alcotest.(check bool) "another seed, other flows" true (flows 7 <> flows 8);
  let cdf = Gen.zipf_cdf ~s:1.1 128 in
  let ids ?zipf seed b = Gen.fig2_batch ~seed ?zipf ~n:128 ~batch_size:64 b in
  Alcotest.(check bool) "same (seed, batch), same draws" true (ids 7 3 = ids 7 3);
  Alcotest.(check bool) "same (seed, batch), same zipf draws" true (ids ~zipf:cdf 7 3 = ids ~zipf:cdf 7 3);
  Alcotest.(check bool) "another seed, other draws" true (ids 7 3 <> ids 8 3);
  Alcotest.(check bool) "another batch, other draws" true (ids 7 3 <> ids 7 4)

(* Fig. 2's 50/30/20 path mix holds exactly over any ten consecutive
   flow indices, whatever the seed. *)
let test_fig2_mix () =
  let count p = List.length (List.filter (fun k -> Gen.fig2_path k = p) (List.init 10 (fun i -> 37 + i))) in
  Alcotest.(check (list int)) "red/orange/green" [ 5; 3; 2 ] [ count Gen.Red; count Gen.Orange; count Gen.Green ]

let test_churn_determinism () =
  let gen seed b = frames [| Gen.churn_batch ~seed ~batch_size:64 b |] in
  Alcotest.(check bool) "same (seed, batch), same frames" true (gen 3 5 = gen 3 5);
  Alcotest.(check bool) "another seed, other frames" true (gen 3 5 <> gen 4 5);
  Alcotest.(check bool) "another batch, other frames" true (gen 3 5 <> gen 3 6)

(* Repeats in a churn batch name flows opened before them, so every
   flow's first packet is its opening one. *)
let test_churn_new_flows () =
  let seen = Hashtbl.create 1024 in
  let fresh = ref 0 in
  for b = 0 to 7 do
    Array.iter
      (fun (_, f) ->
        let k = Bytes.to_string f in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          incr fresh
        end)
      (Gen.churn_batch ~seed:1 ~batch_size:64 b)
  done;
  Alcotest.(check int) "three new flows in four packets" (8 * Gen.churn_new_per_batch 64) !fresh

let () =
  Alcotest.run "perfbench"
    [
      ( "zipf",
        [
          Alcotest.test_case "cdf" `Quick test_zipf_cdf;
          Alcotest.test_case "draw frequencies" `Quick test_zipf_draw;
        ] );
      ( "tail",
        [
          Alcotest.test_case "distinct samples" `Quick test_tail_distinct;
          Alcotest.test_case "ties" `Quick test_tail_ties;
          Alcotest.test_case "too few samples" `Quick test_tail_too_few;
          Alcotest.test_case "segments" `Quick test_segmented_tail;
        ] );
      ("probe", [ Alcotest.test_case "quiet samples" `Quick test_probe_quiet ]);
      ( "spans",
        [
          Alcotest.test_case "self time arithmetic" `Quick test_self_time;
          Alcotest.test_case "self times sum to root" `Quick test_self_times_sum;
          Alcotest.test_case "coverage gate" `Quick test_coverage_gate;
          Alcotest.test_case "overflow" `Quick test_overflow;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "fig2 seed determinism" `Quick test_fig2_determinism;
          Alcotest.test_case "fig2 path mix" `Quick test_fig2_mix;
          Alcotest.test_case "churn seed determinism" `Quick test_churn_determinism;
          Alcotest.test_case "churn new flows" `Quick test_churn_new_flows;
        ] );
    ]
