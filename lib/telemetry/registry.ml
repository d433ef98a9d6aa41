type item = C of int ref | G of int ref | H of Histogram.t

type t = {
  items : (string, item) Hashtbl.t;
  mutable rev_order : string list;
}

let create () = { items = Hashtbl.create 64; rev_order = [] }

let kind = function
  | C _ -> "a counter"
  | G _ -> "a gauge"
  | H _ -> "a histogram"

(* Find-or-create [name] as the kind [make] builds; [get] unwraps it and
   refuses a name already registered as another kind. *)
let find_or_add t name ~fn ~make get =
  let item =
    match Hashtbl.find_opt t.items name with
    | Some item -> item
    | None ->
        let item = make () in
        Hashtbl.add t.items name item;
        t.rev_order <- name :: t.rev_order;
        item
  in
  match get item with
  | Some v -> v
  | None ->
      invalid_arg (Printf.sprintf "Registry.%s: %s is %s" fn name (kind item))

let counter t name =
  find_or_add t name ~fn:"counter"
    ~make:(fun () -> C (ref 0))
    (function C r -> Some r | _ -> None)

let gauge t name =
  find_or_add t name ~fn:"gauge"
    ~make:(fun () -> G (ref 0))
    (function G r -> Some r | _ -> None)

let histogram t name =
  find_or_add t name ~fn:"histogram"
    ~make:(fun () -> H (Histogram.create ()))
    (function H h -> Some h | _ -> None)

(* Fold [src] into [into]: counters add, histograms merge bucket-wise,
   gauges are left alone — an absolute level does not sum, and only the
   primary writes one. Iterating src in registration order keeps the
   merged registry's display order sensible when [into] sees a name for
   the first time. *)
let merge ~into src =
  List.iter
    (fun name ->
      match Hashtbl.find src.items name with
      | C r ->
          let d = counter into name in
          d := !d + !r
      | G _ -> ()
      | H h -> Histogram.merge_into ~dst:(histogram into name) h)
    (List.rev src.rev_order)

let reset t =
  Hashtbl.iter
    (fun _ item ->
      match item with C r | G r -> r := 0 | H h -> Histogram.reset h)
    t.items

type value =
  | Vcount of int
  | Vgauge of int
  | Vhist of {
      count : int;
      sum : int;
      mean : float;
      p50 : int;
      p99 : int;
      buckets : (int * int) list;
    }

type snapshot = (string * value) list

(* Quantile over a sparse (bucket, count) list — same contract as
   [Histogram.quantile], reused by [delta] where no live histogram
   backs the diffed buckets. *)
let sparse_quantile buckets count q =
  if count = 0 then 0
  else begin
    let target =
      let x = int_of_float (ceil (q *. float_of_int count)) in
      if x < 1 then 1 else if x > count then count else x
    in
    let rec go acc = function
      | [] -> snd (Histogram.bounds (Histogram.n_buckets - 1))
      | (b, n) :: rest ->
          let acc = acc + n in
          if acc >= target then snd (Histogram.bounds b) else go acc rest
    in
    go 0 buckets
  end

let vhist_of_buckets buckets sum =
  let count = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  Vhist
    {
      count;
      sum;
      mean = (if count = 0 then 0.0 else float_of_int sum /. float_of_int count);
      p50 = sparse_quantile buckets count 0.5;
      p99 = sparse_quantile buckets count 0.99;
      buckets;
    }

let snapshot t =
  List.rev_map
    (fun name ->
      match Hashtbl.find t.items name with
      | C r -> (name, Vcount !r)
      | G r -> (name, Vgauge !r)
      | H h -> (name, vhist_of_buckets (Histogram.nonzero h) (Histogram.sum h)))
    t.rev_order

let delta ~since now =
  List.filter_map
    (fun (name, v) ->
      match (v, List.assoc_opt name since) with
      | Vcount n, Some (Vcount o) -> Some (name, Vcount (n - o))
      | Vcount n, _ -> Some (name, Vcount n)
      | Vgauge _, _ -> Some (name, v)
      | Vhist h, Some (Vhist o) ->
          let diffed =
            List.filter_map
              (fun (b, n) ->
                let prev =
                  Option.value ~default:0 (List.assoc_opt b o.buckets)
                in
                if n - prev > 0 then Some (b, n - prev) else None)
              h.buckets
          in
          Some (name, vhist_of_buckets diffed (h.sum - o.sum))
      | Vhist h, _ ->
          Some (name, vhist_of_buckets h.buckets h.sum))
    now

let to_json ?(indent = 2) snap =
  let pad = String.make indent ' ' in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf pad;
      Buffer.add_string buf (Json.str name);
      Buffer.add_string buf ": ";
      match v with
      | Vcount n | Vgauge n -> Buffer.add_string buf (string_of_int n)
      | Vhist h ->
          Buffer.add_string buf
            (Printf.sprintf
               "{ \"count\": %d, \"sum\": %d, \"mean\": %.1f, \"p50\": %d, \
                \"p99\": %d, \"buckets\": {"
               h.count h.sum h.mean h.p50 h.p99);
          List.iteri
            (fun j (b, n) ->
              if j > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf
                (Printf.sprintf "\"%d\": %d" (max 0 (fst (Histogram.bounds b))) n))
            h.buckets;
          Buffer.add_string buf "} }")
    snap;
  Buffer.add_string buf "\n}";
  Buffer.contents buf

let pp ppf snap =
  let width =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 8 snap
  in
  List.iter
    (fun (name, v) ->
      match v with
      | Vcount n | Vgauge n -> Format.fprintf ppf "%-*s %12d@," width name n
      | Vhist h ->
          Format.fprintf ppf "%-*s %12d samples  mean=%.0f p50<=%d p99<=%d@,"
            width name h.count h.mean h.p50 h.p99;
          List.iter
            (fun (b, n) ->
              let lo, hi = Histogram.bounds b in
              Format.fprintf ppf "%-*s   [%d..%s] %d@," width ""
                (max 0 lo)
                (if hi = max_int then "inf" else string_of_int hi)
                n)
            h.buckets)
    snap
