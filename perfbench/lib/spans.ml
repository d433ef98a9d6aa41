(* In-memory span recorder for the traced run.

   A span is one timed call across a layer boundary: its name, the
   packet or batch id it serves, its parent (the span open when it
   started), its start and end on the monotonic clock and the minor
   words allocated inside it. Spans live in preallocated columns so
   recording one costs two clock reads and no allocation; a full
   recorder drops further spans and says so ([overflowed]), keeping the
   nesting of the recorded ones intact. *)

let now () = Int64.to_int (Telemetry.Tclock.now_ns ())

(* Span names are interned once per process. *)
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let name_list = ref [||]

let intern s =
  match Hashtbl.find_opt name_ids s with
  | Some i -> i
  | None ->
      let i = Array.length !name_list in
      Hashtbl.replace name_ids s i;
      name_list := Array.append !name_list [| s |];
      i

let name_of i = !name_list.(i)

type t = {
  cap : int;
  mutable n : int;
  name : int array;
  id : int array;
  parent : int array;
  start : int array;
  stop : int array;
  words : int array;
  mutable cur : int;  (** the open span, or -1 *)
  mutable overflowed : bool;
}

let create ~cap =
  let col () = Array.make cap 0 in
  {
    cap;
    n = 0;
    name = col ();
    id = col ();
    parent = col ();
    start = col ();
    stop = col ();
    words = col ();
    cur = -1;
    overflowed = false;
  }

let length t = t.n

let reset t =
  t.n <- 0;
  t.cur <- -1;
  t.overflowed <- false

let room t = t.cap - t.n

let enter t ~name ~id =
  if t.n >= t.cap then begin
    t.overflowed <- true;
    -1
  end
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    (* a negative id inherits the enclosing span's *)
    t.id.(i) <- (if id < 0 && t.cur >= 0 then t.id.(t.cur) else id);
    t.parent.(i) <- t.cur;
    t.cur <- i;
    t.words.(i) <- int_of_float (Gc.minor_words ());
    t.start.(i) <- now ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- now ();
    t.words.(i) <- int_of_float (Gc.minor_words ()) - t.words.(i);
    t.cur <- t.parent.(i)
  end

let span t ~name ~id f =
  let s = enter t ~name ~id in
  match f () with
  | v ->
      leave t s;
      v
  | exception e ->
      leave t s;
      raise e

(* --- Self time ---

   A span's self time is its duration minus the part of its interval
   covered by its children. Children are clipped to the parent and their
   union is taken, so overlapping children (parallel work) are not
   subtracted twice and a child poking outside its parent is only
   charged for the overlap. *)

let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max s start and e = min e stop in
        if e > s then Some (s, e) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (s, e) ->
        let s = max s reach in
        if e > s then (acc + (e - s), e) else (acc, reach))
      (0, start) clipped
  in
  max 0 (stop - start - covered)

(* Self time of every recorded span, in recording order. *)
let self_times t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- (t.start.(i), t.stop.(i)) :: kids.(p)
  done;
  Array.init t.n (fun i -> self_time ~start:t.start.(i) ~stop:t.stop.(i) kids.(i))

(* Time attributed to a layer: the summed self times of every span that
   has a parent. A root span (the batch) only frames the work, so its
   self time -- whatever no layer span covers -- is left out. *)
let attributed_ns t =
  let self = self_times t in
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) >= 0 then acc := !acc + self.(i)
  done;
  !acc

type agg = {
  calls : int;
  total_ns : float array;  (** per call, inclusive *)
  self_ns : float array;  (** per call *)
  words : float array;  (** per call, inclusive *)
}

(* Per-name aggregates over every recorded span. *)
let aggregate t =
  let self = self_times t in
  let by_name = Hashtbl.create 32 in
  for i = t.n - 1 downto 0 do
    let prev = Option.value ~default:[] (Hashtbl.find_opt by_name t.name.(i)) in
    Hashtbl.replace by_name t.name.(i) (i :: prev)
  done;
  Hashtbl.fold
    (fun name idxs acc ->
      let col f = Array.of_list (List.map f idxs) in
      ( name_of name,
        {
          calls = List.length idxs;
          total_ns = col (fun i -> float_of_int (t.stop.(i) - t.start.(i)));
          self_ns = col (fun i -> float_of_int self.(i));
          words = col (fun i -> float_of_int t.words.(i));
        } )
      :: acc)
    by_name []

let write t ~path ~header =
  let oc = open_out path in
  List.iter (fun l -> Printf.fprintf oc "# %s\n" l) header;
  output_string oc "span\tname\tid\tparent\tstart_ns\tend_ns\tminor_words\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\n" i (name_of t.name.(i))
      t.id.(i) t.parent.(i) t.start.(i) t.stop.(i) t.words.(i)
  done;
  close_out oc
