(* Order statistics over one run's samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

let sum a = Array.fold_left ( +. ) 0.0 a

(* Samples a tail value must have strictly above it. *)
let beyond = 10

(* The highest sample value with at least [beyond] samples strictly
   greater than it, and its percentile rank (the share of samples at or
   below it, in %). Ties are never split: a value shared by the top
   samples is skipped until enough lie strictly above it. [None] when
   fewer than [beyond + 1] samples exist. *)
let tail a =
  let n = Array.length a in
  let s = sorted a in
  (* [s.(i)] has exactly [n - upper i] samples above it, where [upper i]
     is the first index holding a strictly larger value. *)
  let rec upper j v = if j < n && s.(j) <= v then upper (j + 1) v else j in
  let rec scan i =
    if i < 0 then None
    else
      let u = upper i s.(i) in
      if n - u >= beyond then
        Some (s.(i), 100.0 *. float_of_int u /. float_of_int n)
      else scan (i - 1)
  in
  scan (n - beyond - 1)

(* Segments of [segmented_tail]: at least [min_per_segment] samples each,
   so each segment's tail is at least its p95, and at most
   [max_segments] of them. *)
let min_per_segment = 200
let max_segments = 5

(* [tail] per contiguous segment of the samples, and the median of the
   segments' values: a burst of slow samples (a stall on a shared host)
   confined to one segment does not move the result. Returns the value,
   the median segment percentile and the segment count. *)
let segmented_tail a =
  let n = Array.length a in
  let k = max 1 (min max_segments (n / min_per_segment)) in
  let tails =
    List.init k (fun i ->
        let lo = i * n / k and hi = (i + 1) * n / k in
        tail (Array.sub a lo (hi - lo)))
  in
  if List.mem None tails then None
  else
    let tails = List.filter_map Fun.id tails in
    let col f = Array.of_list (List.map f tails) in
    Some (median (col fst), median (col snd), k)
