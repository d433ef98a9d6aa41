(* The four workloads' engines: what gets compiled, how the runtime is
   configured, and which engine checks its outputs. *)

open Dejavu_core

type workload = Fig2_uncached | Fig2_zipf_emc | Stateful_churn | Fig2_sharded_d2

let workloads = [ Fig2_uncached; Fig2_zipf_emc; Stateful_churn; Fig2_sharded_d2 ]

let name = function
  | Fig2_uncached -> "fig2_uncached"
  | Fig2_zipf_emc -> "fig2_zipf_emc"
  | Stateful_churn -> "stateful_churn"
  | Fig2_sharded_d2 -> "fig2_sharded_d2"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* Fixed shape of every workload: closed-loop batches of this size. *)
let batch_size = 256

(* fig2_zipf_emc: cache capacity well under the flow population. *)
let zipf_emc_capacity = 1024
let zipf_population = 4096

(* stateful_churn: store capacity well under the run's flow count (one
   new flow per packet), so the store evicts steadily. *)
let churn_store_capacity = 4096
let churn_emc_capacity = 4096

let engine w =
  let d = { Runtime.Engine.default with Runtime.Engine.exec_mode = Asic.Chip.Fast } in
  match w with
  | Fig2_uncached -> d
  | Fig2_zipf_emc -> { d with cache = Runtime.Engine.Emc { capacity = zipf_emc_capacity } }
  | Stateful_churn ->
      {
        d with
        cache = Runtime.Engine.Emc { capacity = churn_emc_capacity };
        state = Runtime.Engine.Bounded { capacity = churn_store_capacity; ttl_ns = 0L };
      }
  | Fig2_sharded_d2 -> { d with domains = 2 }

(* The oracle each workload's outputs are compared with: Reference
   execution for the uncached path, the uncached pipeline for the two
   cached workloads, sequential execution for the sharded one. *)
let check_engine w =
  let e = engine w in
  match w with
  | Fig2_uncached -> { e with Runtime.Engine.exec_mode = Asic.Chip.Reference }
  | Fig2_zipf_emc | Stateful_churn -> { e with cache = Runtime.Engine.Off }
  | Fig2_sharded_d2 -> { e with domains = 1 }

(* --- The 546-prefix FIB ---

   The deployment's 2 routes plus 512 /24s in 172.28.0.0/15 and 32 /20s
   in 172.24.0.0/15, none covering the traffic's 10.0.0.0/16
   destinations: outputs are unchanged, but the router's LPM runs at
   production table scale. The /24s sit above the /24 slots
   [Catalog.fib_churn_trace] announces (172.16.0.0 up to 172.27.x), so
   the churn trace never re-adds one. Installed through the typed-op
   front door. *)
let fib_ops =
  let entry ~prefix_len addr =
    {
      P4ir.Table.priority = 0;
      patterns = [ P4ir.Table.M_lpm { value = P4ir.Bitval.of_int ~width:32 addr; prefix_len } ];
      action = "route";
      args =
        [ P4ir.Bitval.of_int ~width:48 0x020000aa0001; P4ir.Bitval.of_int ~width:48 0x0200000000fe ];
    }
  in
  List.init 512 (fun i ->
      entry ~prefix_len:24 ((172 lsl 24) lor ((28 + (i lsr 8)) lsl 16) lor ((i land 0xff) lsl 8)))
  @ List.init 32 (fun i ->
        entry ~prefix_len:20 ((172 lsl 24) lor ((24 + (i lsr 4)) lsl 16) lor ((i land 0xf) lsl 12)))
  |> List.map (fun e -> Ctrl.Table (Nflib.Catalog.routes_table_name, Ctrl.Add e))

(* classifier -> lb -> nat -> router: both stateful NFs on one path,
   with the dynamic NAT punting every new source. *)
let churn_input () =
  let rules =
    [
      {
        Nflib.Classifier.dst_prefix = Netpkt.Ip4.prefix_of_string_exn "10.0.1.0/24";
        proto = None;
        path_id = 10;
        tenant = 1;
      };
    ]
  in
  let registry =
    ("classifier", Nflib.Classifier.create rules)
    :: (Nflib.Nat.name, Nflib.Nat.create_dynamic ~max_size:(max 8192 churn_store_capacity))
    :: List.filter
         (fun (n, _) -> n <> "classifier" && n <> Nflib.Nat.name)
         (Nflib.Catalog.registry ())
  in
  let chains =
    [
      Chain.make ~path_id:10 ~name:"stateful" ~nfs:[ "classifier"; "lb"; "nat"; "router" ]
        ~weight:1.0 ~exit_port:1 ();
    ]
  in
  Compiler.default_input ~registry ~chains ~strategy:Placement.Greedy ()

let compile w =
  let input =
    match w with Stateful_churn -> churn_input () | _ -> Nflib.Catalog.edge_cloud_input ()
  in
  match Compiler.compile input with
  | Ok c -> c
  | Error e -> failwith ("compile failed: " ^ e)

(* --- CPU handlers ---

   The LB and dynamic-NAT miss handlers, bound per (chip, store) exactly
   as [Nflib.Catalog.attach_handlers] binds them. The traced engine
   registers these factories wrapped in a timing span, so handler spans
   are children of the packet that punted. *)

type factory = Asic.Chip.t -> State_store.t option -> Runtime.handler

let lb_factory chip store =
  match Asic.Chip.find_table chip (Compose.nf_table_name ~nf:Nflib.Lb.name Nflib.Lb.table_name) with
  | Some table ->
      let sessions = Option.map (Nflib.Lb.sessions ~table) store in
      Nflib.Lb.handler ?sessions ~backends:Nflib.Catalog.tenant1_backends ~table ()
  | None -> fun _ _ -> Runtime.Consume

let nat_factory chip store =
  match Asic.Chip.find_table chip (Compose.nf_table_name ~nf:Nflib.Nat.name Nflib.Nat.table_name) with
  | Some table ->
      let bindings = Option.map (Nflib.Nat.bindings_table ~table) store in
      Nflib.Nat.handler ?bindings ~pool:Nflib.Catalog.nat_pool ~table ()
  | None -> fun _ _ -> Runtime.Consume

let nf_ids =
  [ (Nflib.Lb.name, Nflib.Lb.nf_id); (Nflib.Classifier.name, Nflib.Classifier.nf_id); (Nflib.Nat.name, Nflib.Nat.nf_id) ]

let factories : (string * factory) list = [ (Nflib.Lb.name, lb_factory); (Nflib.Nat.name, nat_factory) ]

type attach = Plain | Wrapped of (string -> Runtime.handler -> Runtime.handler)

(* Compile, load, attach handlers and install the FIB: everything before
   the first packet, i.e. what setup_s times. *)
let build ?(attach = Plain) w engine =
  let compiled = compile w in
  let rt = Runtime.create ~engine compiled in
  (match attach with
  | Plain -> Nflib.Catalog.attach_handlers rt compiled
  | Wrapped wrap ->
      List.iter (fun (nf, id) -> Runtime.register_nf_id rt nf id) nf_ids;
      List.iter
        (fun (nf, f) -> Runtime.on_to_cpu_state rt nf (fun chip store -> wrap nf (f chip store)))
        factories);
  (match Ctrl.apply_all compiled.Compiler.chip fib_ops with
  | Ok _ -> ()
  | Error e -> failwith ("FIB install failed: " ^ e));
  (rt, compiled)
