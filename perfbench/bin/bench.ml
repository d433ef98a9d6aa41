(* One benchmark run: bench --workload <name> --seed <n> --seconds <s>
   --trace <0|1> [--out-dir <dir>]. Prints the run's notes and metrics,
   then, as its last line, one JSON object with the keys correct,
   attempted, failed and metrics. Exits 2 without a result on bad
   arguments or any failure. *)

let usage () =
  prerr_endline
    ("usage: bench --workload <"
    ^ String.concat "|" (List.map Perfbench.Setup.name Perfbench.Setup.workloads)
    ^ "> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]");
  exit 2

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "non-finite metric"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = match Perfbench.Setup.of_name (get "workload") with Some w -> w | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let out_dir = Option.value ~default:"perfbench/results" (List.assoc_opt "out-dir" opts) in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  match Perfbench.Runner.run ~workload ~seed ~seconds ~trace ~out_dir with
  | exception e ->
      Printf.eprintf "bench: %s\n" (Printexc.to_string e);
      exit 2
  | r ->
      let open Perfbench.Runner in
      Printf.printf "# workload=%s trace=%d %s\n" (Perfbench.Setup.name workload) (if trace then 1 else 0)
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) (host ())));
      List.iter (fun l -> Printf.printf "# %s\n" l) r.notes;
      List.iter (fun (n, v, u) -> Printf.printf "%-36s %16.4f %s\n" n v u) r.metrics;
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" r.correct r.attempted
        r.failed
        (String.concat ", "
           (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u) r.metrics))
