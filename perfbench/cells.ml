(* Simulation cells, the batch workloads built from them, and the checks
   every cell outcome goes through. *)

open Measure
module Cat = Platform.Catalog
module W = Workloads.Workload
module Soc = Platform.Soc
module Runner = Simbridge.Runner
module Ex = Simbridge.Experiments
module Reg = Telemetry.Registry

(* ------------------------------------------------------------- reference *)

let reference_path = "perfbench/reference.json"

let reference =
  lazy
    (match J.parse_file reference_path with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" reference_path e))

let ref_table workload field =
  match J.member workload (Lazy.force reference) with
  | None -> []
  | Some w -> (
    match J.member field w with
    | Some (J.Obj kvs) -> kvs
    | _ -> [])

let ref_string workload field key =
  match List.assoc_opt key (ref_table workload field) with
  | Some (J.Str s) -> Some s
  | _ -> None

(* --------------------------------------------------------------- cells *)

(* What one simulated cell produced. *)
type outcome = {
  insns : int;
  cycles : int;
  fp : string;  (** the cell's simulated statistics, one line *)
  result : Soc.result;
  setup_s : float;  (** library-reported set-up wall time (kernels only) *)
  measure_s : float;  (** library-reported measure wall time (kernels only) *)
}

type cell = { id : string; run : Reg.t -> outcome }

(* Cycles, instructions and every cache, TLB, DRAM, branch and smpi
   statistic the run result carries. *)
let result_fp (r : Soc.result) =
  let loads, stores, mispredicts =
    Array.fold_left
      (fun (l, s, m) (c : Soc.core_stats) -> (l + c.loads, s + c.stores, m + c.mispredicts))
      (0, 0, 0) r.per_core
  in
  let comm =
    match r.comm with
    | None -> ""
    | Some c ->
      Printf.sprintf " msgs=%d bytes=%d coll=%d commmax=%d" c.Smpi.messages c.Smpi.bytes_moved
        c.Smpi.collectives c.Smpi.comm_cycles_max
  in
  Printf.sprintf
    "cycles=%d insns=%d loads=%d stores=%d mispredicts=%d l1d=%d/%d l2=%d/%d dram=%d tlbwalks=%d%s"
    r.cycles r.instructions loads stores mispredicts r.l1d_misses r.l1d_accesses r.l2_misses
    r.l2_accesses r.dram_requests r.tlb_walks comm

let outcome_of_result ?(setup_s = 0.0) ?(measure_s = 0.0) (r : Soc.result) =
  { insns = r.instructions; cycles = r.cycles; fp = result_fp r; result = r; setup_s; measure_s }

let kernel_id (cfg : Platform.Config.t) (k : W.kernel) = cfg.name ^ "/" ^ k.name

let kernel_cell ~scale (cfg : Platform.Config.t) (k : W.kernel) =
  {
    id = kernel_id cfg k;
    run =
      (fun tel ->
        let t = Runner.run_kernel_timed ~scale ~engine:`Trace ~telemetry:tel cfg k in
        outcome_of_result ~setup_s:t.setup_wall_s ~measure_s:t.measure_wall_s t.result);
  }

type app_spec = { cfg : Platform.Config.t; codegen : Workloads.Codegen.t; ranks : int; app : W.app }

let app_id s = Printf.sprintf "%s/%s/%s/x%d" s.cfg.name s.app.app_name s.codegen.name s.ranks

let app_cell s =
  {
    id = app_id s;
    run =
      (fun tel ->
        outcome_of_result
          (Runner.run_app ~scale:1.0 ~codegen:s.codegen ~telemetry:tel ~ranks:s.ranks s.cfg s.app));
  }

(* ----------------------------------------------------------- workloads *)

type batch = {
  name : string;
  cells : cell list;  (** one timed pass *)
  warm : cell list;  (** the set-up pass: fills the trace cache and grows the heap *)
  figures : (string * ((string -> Soc.result) -> Ex.figure)) list;
      (** figures rebuilt from the pass, checked against results/ID.csv *)
  tail_q : float;  (** the percentile [tail_ms] reports, over every timed execution *)
  min_passes : int;  (** timed passes a run makes at least, so [tail_q] has 10 samples beyond it *)
  kernels : W.kernel list;  (** streams the layer breakdown compiles *)
  scale : float;  (** kernel scale *)
  apps : app_spec list;  (** app cells, whose streams the layer breakdown forces *)
}

let fig1_hw = Cat.banana_pi_hw
let fig1_sims = [ Cat.banana_pi_sim; Cat.fast_banana_pi_sim ]
let fig2_hw = Cat.milkv_hw
let fig2_sims = [ Cat.boom_small; Cat.boom_medium; Cat.boom_large; Cat.milkv_sim ]
let micro_platforms = (fig1_hw :: fig1_sims) @ (fig2_hw :: fig2_sims)
let kernels = Workloads.Microbench.evaluated

(* The figure [Experiments.fig1]/[fig2] builds from these cells. *)
let micro_figure ~id ~(hw : Platform.Config.t) ~sims get =
  let series =
    List.map
      (fun (sim : Platform.Config.t) ->
        {
          Ex.label = sim.name;
          points =
            List.map
              (fun (k : W.kernel) ->
                (k.name, Runner.relative_speedup ~sim:(get (kernel_id sim k)) ~hw:(get (kernel_id hw k))))
              kernels;
        })
      sims
  in
  { Ex.id; title = ""; note = ""; reference = Some 1.0; series }

let micro_trace () =
  let scale = 1.0 in
  {
    name = "micro-trace";
    cells =
      List.concat_map (fun k -> List.map (fun cfg -> kernel_cell ~scale cfg k) micro_platforms) kernels;
    warm = List.map (kernel_cell ~scale fig1_hw) kernels;
    figures =
      [
        ("fig1", micro_figure ~id:"fig1" ~hw:fig1_hw ~sims:fig1_sims);
        ("fig2", micro_figure ~id:"fig2" ~hw:fig2_hw ~sims:fig2_sims);
      ];
    (* 4 passes x 312 cells: 12 executions beyond p99. *)
    tail_q = 0.99;
    min_passes = 4;
    kernels;
    scale;
    apps = [];
  }

let app_pairs =
  [ ("banana-pi pair", Cat.banana_pi_sim, Cat.banana_pi_hw); ("milk-v pair", Cat.milkv_sim, Cat.milkv_hw) ]

let pair_ranks = [ 1; 2; 4 ]
let sim_cg = Workloads.Codegen.gcc_9_4
let hw_cg = Workloads.Codegen.gcc_13_2

(* The figure [Experiments.app_pair_figure] builds (fig5-fig7). *)
let app_figure ~id (app : W.app) get =
  let id_of cfg codegen ranks = app_id { cfg; codegen; ranks; app } in
  let series =
    List.map
      (fun (label, sim, hw) ->
        {
          Ex.label;
          points =
            List.map
              (fun ranks ->
                ( string_of_int ranks ^ " ranks",
                  Runner.relative_speedup ~sim:(get (id_of sim sim_cg ranks)) ~hw:(get (id_of hw hw_cg ranks))
                ))
              pair_ranks;
        })
      app_pairs
  in
  { Ex.id; title = ""; note = ""; reference = Some 1.0; series }

let fig_apps = [ ("fig5", Workloads.Ume.app); ("fig6", Workloads.Lammps.lj); ("fig7", Workloads.Lammps.chain) ]

(* NPB cells beyond the figures.  MG is left out: at 2.5-3.7 s per cell
   it alone would outlast a run. *)
let npb_apps = List.map Workloads.Npb.find [ "cg"; "ep"; "is" ]
let npb_platforms = [ Cat.banana_pi_sim; Cat.boom_large ]
let npb_ranks = [ 1; 4 ]

let apps_mpi () =
  let pair_specs =
    List.concat_map
      (fun (_, app) ->
        List.concat_map
          (fun (_, sim, hw) ->
            List.concat_map
              (fun ranks ->
                [ { cfg = sim; codegen = sim_cg; ranks; app }; { cfg = hw; codegen = hw_cg; ranks; app } ])
              pair_ranks)
          app_pairs)
      fig_apps
  in
  let npb_specs =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun cfg -> List.map (fun ranks -> { cfg; codegen = sim_cg; ranks; app }) npb_ranks)
          npb_platforms)
      npb_apps
  in
  let specs = pair_specs @ npb_specs in
  {
    name = "apps-mpi";
    cells = List.map app_cell specs;
    warm =
      List.map
        (fun app -> app_cell { cfg = Cat.banana_pi_sim; codegen = sim_cg; ranks = 1; app })
        (List.map snd fig_apps @ npb_apps);
    figures = List.map (fun (id, app) -> (id, app_figure ~id app)) fig_apps;
    (* 3 passes x 48 cells: 10 executions beyond p93. *)
    tail_q = 0.93;
    min_passes = 3;
    kernels = [];
    scale = 1.0;
    apps = specs;
  }

let batch_of_name = function
  | "micro-trace" -> Some (micro_trace ())
  | "apps-mpi" -> Some (apps_mpi ())
  | _ -> None

(* Large enough that no evaluated trace or block analysis is evicted. *)
let size_caches () = Runner.set_trace_cache_limits ~entries:1024 ~words:(256 * 1024 * 1024) ()

(* ------------------------------------------------------------- checking *)

(* One cell outcome against the reference statistics. *)
let check_cell t (b : batch) id (o : outcome) =
  attempt t;
  match ref_string b.name "cells" id with
  | None -> fail t "%s: no reference statistics" id
  | Some fp when fp <> o.fp -> fail t "%s: statistics %s, reference %s" id o.fp fp
  | Some _ -> ()

let check_figures t (b : batch) first =
  List.iter
    (fun (id, build) ->
      attempt t;
      let get cid =
        match Hashtbl.find_opt first cid with
        | Some o -> o.result
        | None -> failwith ("figure cell never ran: " ^ cid)
      in
      match build get with
      | exception Failure msg -> fail t "%s: %s" id msg
      | fig ->
        if Ex.figure_csv fig <> read_file (Printf.sprintf "results/%s.csv" id) then
          fail t "%s: CSV differs from results/%s.csv" id id)
    b.figures

let digest_lines lines = String.concat "\n" lines |> Digest.string |> Digest.to_hex

(* Digest of every cell's statistics, in cell-id order. *)
let fingerprint first =
  Hashtbl.fold (fun id o acc -> (id ^ " " ^ o.fp) :: acc) first [] |> List.sort compare |> digest_lines

let check_fingerprint t workload kind fp =
  attempt t;
  match ref_string workload "fingerprint" kind with
  | Some r when r = fp -> ()
  | _ -> fail t "%s fingerprint %s differs from the reference" kind fp

(* Instructions and cycles a kernel cell simulates in its untimed
   set-up stream, from the reference: the cell's host time covers them
   too. *)
let setup_work workload id =
  match ref_string workload "setup_work" id with
  | Some s -> Scanf.sscanf s "%d %d" (fun i c -> (i, c))
  | None -> (0, 0)

(* The reference's set-up stream work of every kernel cell at [scale]. *)
let setup_work_section ~scale kernels =
  ( "setup_work",
    J.Obj
      (List.concat_map
         (fun (k : W.kernel) ->
           match k.setup with
           | None -> []
           | Some setup ->
             let tr = Trace.compile (setup ~scale) in
             List.map
               (fun cfg ->
                 let r = Soc.run_trace (Soc.create cfg) tr in
                 (kernel_id cfg k, J.Str (Printf.sprintf "%d %d" r.instructions r.cycles)))
               micro_platforms)
         kernels) )
