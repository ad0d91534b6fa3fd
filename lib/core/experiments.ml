module W = Workloads.Workload
module Mb = Workloads.Microbench
module Npb = Workloads.Npb
module Cat = Platform.Catalog

type series = {
  label : string;
  points : (string * float) list;
}

type figure = {
  id : string;
  title : string;
  note : string;
  reference : float option;
  series : series list;
}

let render_figure f =
  let groups =
    (* Group by x label: every series' value for that x. *)
    match f.series with
    | [] -> []
    | first :: _ ->
      List.map
        (fun (x, _) ->
          (x, List.filter_map (fun s -> Option.map (fun v -> (s.label, v)) (List.assoc_opt x s.points)) f.series))
        first.points
  in
  let chart = Report.Chart.grouped_bars ?reference:f.reference ~title:(f.id ^ ": " ^ f.title) ~groups () in
  chart ^ (if f.note = "" then "" else "note: " ^ f.note ^ "\n")

let figure_csv f =
  let t = Report.Table.create ~headers:("x" :: List.map (fun s -> s.label) f.series) in
  (match f.series with
  | [] -> ()
  | first :: _ ->
    List.iter
      (fun (x, _) ->
        Report.Table.add_row t
          (x
          :: List.map
               (fun s ->
                 match List.assoc_opt x s.points with
                 | Some v -> Report.Table.cell_f v
                 | None -> "")
               f.series))
      first.points);
  Report.Table.to_csv t

(* ------------------------------------------------------------- tables *)

let table1 () =
  let t = Report.Table.create ~headers:[ "Name"; "Category"; "Description"; "Evaluated" ] in
  List.iter
    (fun (k : W.kernel) ->
      Report.Table.add_row t
        [ k.name; W.category_name k.category; k.description; (if k.excluded then "no" else "yes") ])
    Mb.all;
  "Table 1: MicroBench kernels, categories, and descriptions\n" ^ Report.Table.render t

let table2 () =
  let t = Report.Table.create ~headers:[ "Benchmark"; "Characteristics"; "Class" ] in
  List.iter
    (fun (a : W.app) ->
      Report.Table.add_row t [ String.uppercase_ascii a.app_name; a.characteristics; "A (mini)" ])
    Npb.all;
  "Table 2: NPB apps used in the experiments\n" ^ Report.Table.render t

let table3 () =
  let t = Report.Table.create ~headers:[ "Side"; "Codegen"; "Overhead"; "Unroll" ] in
  let row side (c : Workloads.Codegen.t) =
    Report.Table.add_row t
      [ side; c.name; Printf.sprintf "%.2fx" c.overhead; string_of_int c.unroll ]
  in
  row "boards (MILK-V / Banana Pi)" Workloads.Codegen.gcc_13_2;
  row "FireSim image" Workloads.Codegen.gcc_9_4;
  "Table 3: compiler settings (exposed as the Codegen knob)\n" ^ Report.Table.render t

let core_cells (c : Platform.Config.t) =
  match c.core with
  | Platform.Config.Inorder ic ->
    let open Uarch.Inorder in
    [
      Printf.sprintf "%.1f GHz" (ic.freq_hz /. 1e9);
      Printf.sprintf "Fetch:%d, Issue:%d, %d-stage" ic.fetch_width ic.issue_width ic.pipeline_stages;
      "N/A";
      "N/A";
    ]
  | Platform.Config.Ooo oc ->
    let open Uarch.Ooo in
    [
      Printf.sprintf "%.1f GHz" (oc.freq_hz /. 1e9);
      Printf.sprintf "Fetch:%d, Decode:%d" oc.fetch_width oc.decode_width;
      Printf.sprintf "RoB:%d" oc.rob_entries;
      Printf.sprintf "Load:%d, Store:%d" oc.ldq_entries oc.stq_entries;
    ]

let table4 () =
  let t =
    Report.Table.create
      ~headers:[ "FireSim Model"; "Clock"; "Front End"; "RoB"; "LSQ"; "L1D"; "L2 banks"; "Bus" ]
  in
  List.iter
    (fun (c : Platform.Config.t) ->
      Report.Table.add_row t
        ((c.name :: core_cells c)
        @ [
            Printf.sprintf "Sets:%d, Ways:%d" c.l1d.Cache.sets c.l1d.Cache.ways;
            string_of_int c.l2.Cache.banks;
            Printf.sprintf "%d-bit" c.bus.Interconnect.Bus.width_bits;
          ]))
    [ Cat.rocket1; Cat.rocket2; Cat.boom_small; Cat.boom_medium; Cat.boom_large ];
  "Table 4: FireSim models\n" ^ Report.Table.render t

let table5 () =
  let t =
    Report.Table.create
      ~headers:[ "Platform"; "Role"; "Cores"; "Clock"; "L1D"; "L2"; "LLC"; "TLB"; "External memory" ]
  in
  let row role (c : Platform.Config.t) =
    Report.Table.add_row t
      [
        c.name;
        role;
        string_of_int c.cores;
        Printf.sprintf "%.1f GHz" (Platform.Config.freq_hz c /. 1e9);
        Printf.sprintf "%d KiB" (Cache.size_bytes c.l1d / 1024);
        Printf.sprintf "%d KiB" (Cache.size_bytes c.l2 / 1024);
        (match c.llc with
        | None -> "none"
        | Some llc -> Printf.sprintf "%d MiB" (Cache.size_bytes llc / 1024 / 1024));
        (let t = c.dtlb in
         if t.Platform.Tlb.l2_entries > 0 then
           Printf.sprintf "L1 %d (FA) + L2 %d (DM)" t.Platform.Tlb.l1_entries t.Platform.Tlb.l2_entries
         else Printf.sprintf "L1 %d (FA)" t.Platform.Tlb.l1_entries);
        c.dram.Dram.name;
      ]
  in
  row "silicon ref" Cat.banana_pi_hw;
  row "sim model" Cat.banana_pi_sim;
  row "sim model (fast)" Cat.fast_banana_pi_sim;
  row "silicon ref" Cat.milkv_hw;
  row "sim model" Cat.milkv_sim;
  "Table 5: hardware and simulation-model specifications\n" ^ Report.Table.render t

(* ------------------------------------------------------------- figures *)

(* Every figure below builds an explicit list of independent simulation
   cells (its grid) and submits it to the domain pool via the Runner grid
   drivers; [jobs] defaults to the pool's process-wide setting (the CLI's
   --jobs).  Each cell simulates a fresh SoC from seeded streams, so the
   reassembled-in-order results are bit-identical to a sequential run. *)

(* Split [l] into consecutive chunks of [n] (the per-platform rows of a
   flattened grid). *)
let chunks n l =
  let rec take k acc l =
    if k = 0 then (List.rev acc, l)
    else
      match l with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go acc l =
    match l with
    | [] -> List.rev acc
    | _ ->
      let c, rest = take n [] l in
      go (c :: acc) rest
  in
  go [] l

let microbench_figure ?budget ?jobs
    ?(telemetry = Telemetry.Registry.disabled) ~id ~title ~hw ~sims ~scale () =
  let kernels = Mb.evaluated in
  let platforms = hw :: sims in
  let nplat = List.length platforms in
  (* One cell per (platform, kernel) grid point, in *kernel-major* order:
     consecutive cells share a kernel, so the compiled-trace cache's reuse
     distance is the platform count (3-5) rather than the kernel count
     (~40) and every platform after the first replays a cached trace.
     Results are regrouped below into the platform-major rows (hardware
     first) the series layout has always used. *)
  let grid =
    List.concat_map
      (fun (k : W.kernel) -> List.map (fun (cfg : Platform.Config.t) -> (cfg, k)) platforms)
      kernels
  in
  let results =
    Telemetry.Registry.span_with telemetry ("figure:" ^ id) (fun () ->
        Array.of_list
          (List.map
             (fun t -> t.Runner.result)
             (Runner.run_kernel_grid ~scale ?budget ?jobs ~telemetry grid)))
  in
  (* Platform row [p]: that platform's result for every kernel, in kernel
     order — cell (kernel ki, platform p) landed at index ki*nplat + p. *)
  let row p = List.mapi (fun ki (k : W.kernel) -> (k.name, results.(ki * nplat + p))) kernels in
  let hw_results = row 0 in
  let series =
    List.mapi
      (fun i (sim : Platform.Config.t) ->
        {
          label = sim.name;
          points =
            List.map
              (fun (name, s) ->
                (name, Runner.relative_speedup ~sim:s ~hw:(List.assoc name hw_results)))
              (row (i + 1));
        })
      sims
  in
  let note = "relative speedup = t_hw / t_sim; 1.0 = exact match" in
  let note =
    match budget with
    | None -> note
    | Some n -> note ^ Printf.sprintf "; first %d measured insns per kernel" n
  in
  { id; title; note; reference = Some 1.0; series }

let fig1 ?(scale = 1.0) ?budget ?jobs ?telemetry () =
  microbench_figure ?budget ?jobs ?telemetry ~id:"fig1"
    ~title:"MicroBench: Rocket models vs Banana Pi hardware" ~hw:Cat.banana_pi_hw
    ~sims:[ Cat.banana_pi_sim; Cat.fast_banana_pi_sim ]
    ~scale ()

let fig2 ?(scale = 1.0) ?budget ?jobs ?telemetry () =
  microbench_figure ?budget ?jobs ?telemetry ~id:"fig2"
    ~title:"MicroBench: BOOM models vs MILK-V hardware" ~hw:Cat.milkv_hw
    ~sims:[ Cat.boom_small; Cat.boom_medium; Cat.boom_large; Cat.milkv_sim ]
    ~scale ()

(* ------------------------------------------------ budgeted-vs-full eval *)

let default_budget = 160_000

type budget_row = {
  br_series : string;
  br_kernel : string;
  br_full : float;
  br_budget : float;
  br_rel_err : float;
}

type budget_eval = {
  be_id : string;
  be_budget : int;
  be_rows : budget_row list;
  be_wall_full_s : float;
  be_wall_budget_s : float;
  be_max_rel_err : float;
  be_speedup : float;
}

(* Each side regenerates the figure from a cleared trace cache, so it
   pays for its own compiles: without the clear, whichever side ran
   second would replay traces the first one compiled.  A full major
   collection before each side's clock starts keeps one side from paying
   to collect the other's garbage (the full side drops hundreds of MB of
   traces).  Both sides run sequentially ([jobs = 1]) on purpose: the
   speedup is a wall-clock ratio, and concurrent cells sharing host
   cores would inflate both sides unevenly. *)
let budget_eval ?(budget = default_budget) ~id run =
  let side budget =
    Runner.trace_cache_clear ();
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let f = run budget in
    (f, Unix.gettimeofday () -. t0)
  in
  let full, wall_full = side None in
  let cut, wall_budget = side (Some budget) in
  let rows =
    List.concat
      (List.map2
         (fun (sf : series) (sb : series) ->
           List.map2
             (fun (kernel, f) (_, b) ->
               {
                 br_series = sf.label;
                 br_kernel = kernel;
                 br_full = f;
                 br_budget = b;
                 br_rel_err = Float.abs (b -. f) /. f;
               })
             sf.points sb.points)
         full.series cut.series)
  in
  {
    be_id = id;
    be_budget = budget;
    be_rows = rows;
    be_wall_full_s = wall_full;
    be_wall_budget_s = wall_budget;
    be_max_rel_err = List.fold_left (fun a r -> Float.max a r.br_rel_err) 0.0 rows;
    be_speedup = (if wall_budget > 0.0 then wall_full /. wall_budget else 0.0);
  }

let budget_eval_fig1 ?(scale = 8.0) ?budget () =
  budget_eval ?budget ~id:"fig1" (fun budget -> fig1 ~scale ?budget ~jobs:1 ())

let budget_eval_fig2 ?(scale = 8.0) ?budget () =
  budget_eval ?budget ~id:"fig2" (fun budget -> fig2 ~scale ?budget ~jobs:1 ())

let render_budget_eval e =
  let t =
    Report.Table.create ~headers:[ "Series"; "Kernel"; "Full rel"; "Budget rel"; "Rel err %" ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row t
        [
          r.br_series;
          r.br_kernel;
          Report.Table.cell_f r.br_full;
          Report.Table.cell_f r.br_budget;
          Printf.sprintf "%.2f" (100.0 *. r.br_rel_err);
        ])
    e.be_rows;
  Printf.sprintf
    "%s budget %d insns vs full: max rel err %.2f%%, wall %.2fs -> %.2fs (%.1fx)\n" e.be_id
    e.be_budget (100.0 *. e.be_max_rel_err) e.be_wall_full_s e.be_wall_budget_s e.be_speedup
  ^ Report.Table.render t

let budget_report ?scale () =
  String.concat "\n"
    [
      render_budget_eval (budget_eval_fig1 ?scale ());
      render_budget_eval (budget_eval_fig2 ?scale ());
    ]

let npb_figure ?jobs ?(telemetry = Telemetry.Registry.disabled) ~id ~title ~hw ~sims ~ranks
    ~scale () =
  let apps = Npb.all in
  (* Hardware row first (native GCC 13.2 binaries), then each simulation
     model (FireSim-image GCC 9.4 binaries) — one cell per (platform, app). *)
  let grid =
    List.concat_map
      (fun ((cfg : Platform.Config.t), codegen) ->
        List.map (fun a -> (cfg, codegen, ranks, a)) apps)
      ((hw, Workloads.Codegen.gcc_13_2)
      :: List.map (fun s -> (s, Workloads.Codegen.gcc_9_4)) sims)
  in
  let results =
    Telemetry.Registry.span_with telemetry ("figure:" ^ id) (fun () ->
        Runner.run_app_grid ~scale ?jobs ~telemetry grid)
  in
  let series =
    match chunks (List.length apps) results with
    | [] -> []
    | hw_row :: sim_rows ->
      let hw_results = List.map2 (fun (a : W.app) r -> (a.app_name, r)) apps hw_row in
      List.map2
        (fun (sim : Platform.Config.t) row ->
          {
            label = sim.name;
            points =
              List.map2
                (fun (a : W.app) s ->
                  (String.uppercase_ascii a.app_name,
                   Runner.relative_speedup ~sim:s ~hw:(List.assoc a.app_name hw_results)))
                apps row;
          })
        sims sim_rows
  in
  {
    id;
    title;
    note = Printf.sprintf "%d rank(s); relative speedup = t_hw / t_sim" ranks;
    reference = Some 1.0;
    series;
  }

let fig3 ?(scale = 1.0) ?jobs ?telemetry () =
  let sims = [ Cat.rocket1; Cat.rocket2; Cat.banana_pi_sim; Cat.fast_banana_pi_sim ] in
  [
    npb_figure ?jobs ?telemetry ~id:"fig3a" ~title:"NPB on Rocket configs vs Banana Pi (single core)"
      ~hw:Cat.banana_pi_hw ~sims ~ranks:1 ~scale ();
    npb_figure ?jobs ?telemetry ~id:"fig3b" ~title:"NPB on Rocket configs vs Banana Pi (four cores)"
      ~hw:Cat.banana_pi_hw ~sims ~ranks:4 ~scale ();
  ]

let fig4 ?(scale = 1.0) ?jobs ?(telemetry = Telemetry.Registry.disabled) () =
  let a =
    npb_figure ?jobs ~telemetry ~id:"fig4a" ~title:"NPB on stock BOOM configs vs MILK-V (single core)"
      ~hw:Cat.milkv_hw
      ~sims:[ Cat.boom_small; Cat.boom_medium; Cat.boom_large ]
      ~ranks:1 ~scale ()
  in
  (* (b): the tuned MILK-V Sim Model at 1 and 4 ranks.  Cells come in
     (ranks, app, side) order, the simulation side before the board. *)
  let ranks_list = [ 1; 4 ] in
  let grid =
    List.concat_map
      (fun ranks ->
        List.concat_map
          (fun (app : W.app) ->
            [
              (Cat.milkv_sim, Workloads.Codegen.gcc_9_4, ranks, app);
              (Cat.milkv_hw, Workloads.Codegen.gcc_13_2, ranks, app);
            ])
          Npb.all)
      ranks_list
  in
  let results =
    Telemetry.Registry.span_with telemetry "figure:fig4b" (fun () ->
        Runner.run_app_grid ~scale ?jobs ~telemetry grid)
  in
  let rows = chunks (2 * List.length Npb.all) results in
  let series =
    List.map2
      (fun ranks row ->
        {
          label = (if ranks = 1 then "1 core" else Printf.sprintf "%d cores" ranks);
          points =
            List.map2
              (fun (app : W.app) pt ->
                match pt with
                | [ s; h ] ->
                  (String.uppercase_ascii app.app_name, Runner.relative_speedup ~sim:s ~hw:h)
                | _ -> assert false)
              Npb.all (chunks 2 row);
        })
      ranks_list rows
  in
  let b =
    {
      id = "fig4b";
      title = "NPB on the MILK-V Sim Model vs MILK-V (1 and 4 cores)";
      note = "relative speedup = t_hw / t_sim";
      reference = Some 1.0;
      series;
    }
  in
  [ a; b ]

let app_pair_figure ?jobs ?(telemetry = Telemetry.Registry.disabled) ~id ~title (app : W.app)
    ~scale () =
  let ranks_list = [ 1; 2; 4 ] in
  let pairs =
    [
      ("banana-pi pair", Cat.banana_pi_sim, Cat.banana_pi_hw);
      ("milk-v pair", Cat.milkv_sim, Cat.milkv_hw);
    ]
  in
  (* Cells in (pair, ranks, side) order; as in Runner.app_relative, the
     simulation side runs the GCC 9.4 image binary, the board the GCC
     13.2 native one (Table 3). *)
  let grid =
    List.concat_map
      (fun (_, sim, hw) ->
        List.concat_map
          (fun ranks ->
            [
              (sim, Workloads.Codegen.gcc_9_4, ranks, app);
              (hw, Workloads.Codegen.gcc_13_2, ranks, app);
            ])
          ranks_list)
      pairs
  in
  let results =
    Telemetry.Registry.span_with telemetry ("figure:" ^ id) (fun () ->
        Runner.run_app_grid ~scale ?jobs ~telemetry grid)
  in
  let rows = chunks (2 * List.length ranks_list) results in
  let series =
    List.map2
      (fun (label, _, _) row ->
        {
          label;
          points =
            List.map2
              (fun ranks pt ->
                match pt with
                | [ s; h ] ->
                  (string_of_int ranks ^ " ranks", Runner.relative_speedup ~sim:s ~hw:h)
                | _ -> assert false)
              ranks_list (chunks 2 row);
        })
      pairs rows
  in
  {
    id;
    title;
    note = "relative speedup = t_hw / t_sim per rank count";
    reference = Some 1.0;
    series;
  }

let fig5 ?(scale = 1.0) ?jobs ?telemetry () =
  app_pair_figure ?jobs ?telemetry ~id:"fig5" ~title:"UME: FireSim models vs hardware" Workloads.Ume.app
    ~scale ()

let fig6 ?(scale = 1.0) ?jobs ?telemetry () =
  app_pair_figure ?jobs ?telemetry ~id:"fig6" ~title:"LAMMPS Lennard-Jones: FireSim models vs hardware"
    Workloads.Lammps.lj ~scale ()

let fig7 ?(scale = 1.0) ?jobs ?telemetry () =
  app_pair_figure ?jobs ?telemetry ~id:"fig7" ~title:"LAMMPS Chain: FireSim models vs hardware"
    Workloads.Lammps.chain ~scale ()

(* The per-panel figure index shared by `simbridge csv`, the validate
   subsystem's recompute path, and the serve daemon: one id per rendered
   CSV/golden file. *)
let figure_ids = [ "fig1"; "fig2"; "fig3a"; "fig3b"; "fig4a"; "fig4b"; "fig5"; "fig6"; "fig7" ]

let figures ?scale ?jobs ?telemetry ids =
  (* the two panels of fig3 (fig4) come from one grid run *)
  let fig3 = lazy (fig3 ?scale ?jobs ?telemetry ()) in
  let fig4 = lazy (fig4 ?scale ?jobs ?telemetry ()) in
  let panel l i = List.nth (Lazy.force l) i in
  List.map
    (fun id ->
      let fig =
        match id with
        | "fig1" -> fig1 ?scale ?jobs ?telemetry ()
        | "fig2" -> fig2 ?scale ?jobs ?telemetry ()
        | "fig3a" -> panel fig3 0
        | "fig3b" -> panel fig3 1
        | "fig4a" -> panel fig4 0
        | "fig4b" -> panel fig4 1
        | "fig5" -> fig5 ?scale ?jobs ?telemetry ()
        | "fig6" -> fig6 ?scale ?jobs ?telemetry ()
        | "fig7" -> fig7 ?scale ?jobs ?telemetry ()
        | id -> invalid_arg ("Experiments.figures: unknown figure " ^ id)
      in
      (id, fig))
    ids

let figure_by_id ?scale ?jobs ?telemetry id =
  if List.mem id figure_ids then List.assoc_opt id (figures ?scale ?jobs ?telemetry [ id ]) else None

let app_runtime_table ?(scale = 1.0) ?jobs ?(telemetry = Telemetry.Registry.disabled) (app : W.app) =
  let platforms = [ Cat.banana_pi_hw; Cat.banana_pi_sim; Cat.milkv_hw; Cat.milkv_sim ] in
  let ranks_list = [ 1; 2; 4 ] in
  (* sim models run the FireSim-image binary, boards the native one *)
  let codegen_of (p : Platform.Config.t) =
    if
      String.length p.Platform.Config.name >= 3
      && String.sub p.Platform.Config.name (String.length p.Platform.Config.name - 3) 3 = "-hw"
    then Workloads.Codegen.gcc_13_2
    else Workloads.Codegen.gcc_9_4
  in
  let grid =
    List.concat_map
      (fun (p : Platform.Config.t) -> List.map (fun ranks -> (p, codegen_of p, ranks, app)) ranks_list)
      platforms
  in
  let results =
    Telemetry.Registry.span_with telemetry ("runtimes:" ^ app.app_name) (fun () ->
        Runner.run_app_grid ~scale ?jobs ~telemetry grid)
  in
  let t = Report.Table.create ~headers:[ "Platform"; "1 rank"; "2 ranks"; "4 ranks" ] in
  List.iter2
    (fun (p : Platform.Config.t) row ->
      Report.Table.add_row t
        (p.name :: List.map (fun (r : Platform.Soc.result) -> Printf.sprintf "%.4f s" r.Platform.Soc.seconds) row))
    platforms
    (chunks (List.length ranks_list) results);
  Printf.sprintf "%s: absolute target runtimes\n" app.app_name ^ Report.Table.render t

(* ------------------------------------------------------------ ablations *)

let ablation_l1 ?(scale = 4.0) () =
  (* The paper's mechanism needs CG's gathered vector to sit between the
     two L1 capacities: at scale 4 the direction vector is ~45 KiB —
     spilling a 32 KiB L1, fitting a 64 KiB one (class A's n = 14000 had
     the same relationship to these caches). *)
  let base = Cat.boom_large in
  let big_l1 = Cache.config ~name:"l1d" ~sets:128 ~ways:8 ~hit_latency:3 ~mshrs:6 () in
  let tuned = { base with Platform.Config.name = "boom-large-64k"; l1d = big_l1; l1i = big_l1 } in
  let r32 = Runner.run_app ~scale ~ranks:1 base Npb.cg in
  let r64 = Runner.run_app ~scale ~ranks:1 tuned Npb.cg in
  let reduction =
    (r32.Platform.Soc.seconds -. r64.Platform.Soc.seconds) /. r32.Platform.Soc.seconds *. 100.0
  in
  let miss_cut =
    float_of_int (r32.Platform.Soc.l1d_misses - r64.Platform.Soc.l1d_misses)
    /. float_of_int (max 1 r32.Platform.Soc.l1d_misses)
    *. 100.0
  in
  let t = Report.Table.create ~headers:[ "Config"; "CG runtime (s)"; "L1D misses" ] in
  Report.Table.add_row t
    [ "Large BOOM, 32 KiB L1"; Printf.sprintf "%.5f" r32.Platform.Soc.seconds; string_of_int r32.l1d_misses ];
  Report.Table.add_row t
    [ "Large BOOM, 64 KiB L1"; Printf.sprintf "%.5f" r64.Platform.Soc.seconds; string_of_int r64.l1d_misses ];
  Printf.sprintf
    "Ablation A1 (L1 32->64 KiB on CG): misses cut %.0f%%, runtime cut %.1f%% (paper: ~27.7%% runtime).\n\
     The capacity effect reproduces (the direction vector fits the larger L1); the runtime\n\
     sensitivity is muted here because the analytic BOOM overlaps L1 misses across independent\n\
     rows, where the RTL pays more of that latency.\n"
    miss_cut reduction
  ^ Report.Table.render t

let ablation_clock ?(scale = 1.0) () =
  let categories = W.all_categories in
  let rel_of sim k = Runner.kernel_relative ~scale ~sim ~hw:Cat.banana_pi_hw k in
  let t = Report.Table.create ~headers:[ "Category"; "1.6 GHz geomean"; "3.2 GHz geomean" ] in
  List.iter
    (fun cat ->
      let kernels = List.filter (fun (k : W.kernel) -> not k.excluded) (Mb.by_category cat) in
      let g sim =
        Util.Stats.geomean (Array.of_list (List.map (rel_of sim) kernels))
      in
      Report.Table.add_row t
        [
          W.category_name cat;
          Report.Table.cell_f (g Cat.banana_pi_sim);
          Report.Table.cell_f (g Cat.fast_banana_pi_sim);
        ])
    categories;
  "Ablation A2 (clock doubling, per-category geomean relative speedup vs Banana Pi HW)\n"
  ^ Report.Table.render t

let ablation_bus ?(scale = 1.0) () =
  let kernels = [ Mb.find "ML2_BW_ld"; Mb.find "ML2_BW_st"; Mb.find "MM" ] in
  let configs = [ Cat.rocket1; Cat.rocket2; Cat.banana_pi_sim ] in
  let t = Report.Table.create ~headers:("Kernel" :: List.map (fun (c : Platform.Config.t) -> c.name) configs) in
  List.iter
    (fun (k : W.kernel) ->
      Report.Table.add_row t
        (k.name
        :: List.map
             (fun c ->
               let r = Runner.run_kernel ~scale c k in
               Printf.sprintf "%.0f cyc" (float_of_int r.Platform.Soc.cycles))
             configs))
    kernels;
  "Ablation A3 (L2 banks 1->4, bus 64->128 bit; lower is faster)\n" ^ Report.Table.render t

let ablation_tlb ?(scale = 0.5) () =
  (* How much do the Table 5 translation structures matter?  Run the
     DRAM-chase kernel (TLB-hostile: one new page per hop) with the
     FireSim Rocket TLB (32-entry, no L2), the FireSim BOOM TLB (+1024
     L2) and an idealized TLB. *)
  let mm = Mb.find "MM" in
  let base = Cat.banana_pi_sim in
  let variant name tlb = { base with Platform.Config.name; dtlb = tlb; itlb = tlb } in
  let huge =
    Platform.Tlb.config ~name:"ideal" ~l1_entries:1024 ~l2_entries:65536 ~walk_latency:8 ()
  in
  let t = Report.Table.create ~headers:[ "TLB"; "MM cycles"; "walks" ] in
  List.iter
    (fun (label, cfg) ->
      let r = Runner.run_kernel ~scale cfg mm in
      Report.Table.add_row t
        [ label; string_of_int r.Platform.Soc.cycles; string_of_int r.Platform.Soc.tlb_walks ])
    [
      ("32-entry L1 only (Rocket model)", variant "tlb-rocket" Platform.Tlb.firesim_rocket);
      ("32-entry L1 + 1024 L2 (BOOM model)", variant "tlb-boom" Platform.Tlb.firesim_boom);
      ("idealized", variant "tlb-ideal" huge);
    ];
  "Ablation A4 (TLB geometry on the DRAM-chase kernel)\n" ^ Report.Table.render t

let ablation_prefetch ?(scale = 1.0) () =
  (* Modeling ablation (DESIGN.md 3b): without the L2 stream prefetcher,
     MG's stencil streams serialize on the conservative DDR3 latency and
     the Banana Pi comparison collapses far below what the paper
     measured; with it, streams are bandwidth-coupled. *)
  let strip (c : Platform.Config.t) =
    {
      c with
      Platform.Config.name = c.name ^ "-nopf";
      l2 = { c.l2 with Cache.prefetch_next = 0 };
    }
  in
  let t =
    Report.Table.create
      ~headers:[ "L2 prefetcher"; "t_sim (ms)"; "t_hw (ms)"; "MG relative (BPi pair)" ]
  in
  let row label sim hw =
    let s = Runner.run_app ~scale ~codegen:Workloads.Codegen.gcc_9_4 ~ranks:1 sim Npb.mg in
    let h = Runner.run_app ~scale ~codegen:Workloads.Codegen.gcc_13_2 ~ranks:1 hw Npb.mg in
    Report.Table.add_row t
      [
        label;
        Printf.sprintf "%.3f" (s.Platform.Soc.seconds *. 1e3);
        Printf.sprintf "%.3f" (h.Platform.Soc.seconds *. 1e3);
        Report.Table.cell_f (Runner.relative_speedup ~sim:s ~hw:h);
      ]
  in
  row "on (both sides)" Cat.banana_pi_sim Cat.banana_pi_hw;
  row "off (both sides)" (strip Cat.banana_pi_sim) (strip Cat.banana_pi_hw);
  "Ablation A5 (stream prefetcher as a modeling choice)\n" ^ Report.Table.render t

let ablation_quantum ?(scale = 1.0) () =
  (* Modeling ablation (DESIGN.md 3b): the co-simulation quantum bounds
     the timestamp skew shared resources observe.  Large quanta inflate
     multicore runtimes with spurious serialization. *)
  let t = Report.Table.create ~headers:[ "Quantum (cycles)"; "CG 4-rank cycles" ] in
  List.iter
    (fun q ->
      let soc = Platform.Soc.create Cat.banana_pi_sim in
      let prog = Npb.cg_program ~ranks:4 ~scale () in
      let r = Platform.Soc.run_ranks ~quantum:q soc prog in
      Report.Table.add_row t [ string_of_int q; string_of_int r.Platform.Soc.cycles ])
    [ 50; 100; 500; 2000; 10000 ];
  "Ablation A6 (co-simulation quantum; smaller = tighter lockstep)\n" ^ Report.Table.render t

let simrate ?(scale = 1.0) () =
  let rocket_run = Runner.run_app ~scale ~ranks:1 Cat.banana_pi_sim Npb.ep in
  let boom_run = Runner.run_app ~scale ~ranks:1 Cat.milkv_sim Npb.ep in
  let rocket_rep =
    Firesim.Host.report Firesim.Host.u250_rocket ~target_freq_hz:1.6e9 rocket_run
  in
  let boom_rep = Firesim.Host.report Firesim.Host.u250_boom ~target_freq_hz:2.0e9 boom_run in
  Format.asprintf
    "FireSim host simulation rates (EP, 1 rank)@.@.Rocket target:@.%a@.@.BOOM target:@.%a@.@.paper: ~60 MHz / ~25x (Rocket), ~15 MHz / ~135x (BOOM)@."
    Firesim.Host.pp_report rocket_rep Firesim.Host.pp_report boom_rep

let multinode ?(scale = 1.0) () =
  (* The paper's §7 future work: distributed runs over FireSim's network
     simulation (the BxE environment hosts up to 8 nodes). *)
  String.concat "\n"
    [
      Firesim.Multinode.scaling_table ~scale Cat.banana_pi_sim Npb.ep;
      Firesim.Multinode.scaling_table ~scale Cat.banana_pi_sim Npb.cg;
    ]

(* ------------------------------------------------------------- registry *)

let render_figures figs = String.concat "\n" (List.map render_figure figs)

let all =
  [
    ("table1", "MicroBench kernel inventory", fun (_ : Telemetry.Registry.t) -> table1 ());
    ("table2", "NPB application selection", fun _ -> table2 ());
    ("table3", "compiler (codegen) settings", fun _ -> table3 ());
    ("table4", "FireSim model configurations", fun _ -> table4 ());
    ("table5", "hardware vs simulation-model specs", fun _ -> table5 ());
    ("fig1", "MicroBench: Rocket vs Banana Pi", fun reg -> render_figure (fig1 ~telemetry:reg ()));
    ("fig2", "MicroBench: BOOM vs MILK-V", fun reg -> render_figure (fig2 ~telemetry:reg ()));
    ("budget", "budgeted prefix runs vs full: accuracy and speed (fig1/fig2)", fun _ ->
      budget_report ());
    ( "fig3",
      "NPB on Rocket configs (1 and 4 cores)",
      fun reg -> render_figures (fig3 ~telemetry:reg ()) );
    ( "fig4",
      "NPB on BOOM configs (stock and tuned)",
      fun reg -> render_figures (fig4 ~telemetry:reg ()) );
    ("fig5", "UME relative speedup", fun reg -> render_figure (fig5 ~telemetry:reg ()));
    ("fig6", "LAMMPS LJ relative speedup", fun reg -> render_figure (fig6 ~telemetry:reg ()));
    ("fig7", "LAMMPS Chain relative speedup", fun reg -> render_figure (fig7 ~telemetry:reg ()));
    ( "runtimes",
      "absolute runtimes for UME and LAMMPS",
      fun reg ->
        String.concat "\n"
          (List.map
             (app_runtime_table ~telemetry:reg)
             [ Workloads.Ume.app; Workloads.Lammps.lj; Workloads.Lammps.chain ]) );
    ("ablate-l1", "L1 32->64 KiB on CG", fun _ -> ablation_l1 ());
    ("ablate-clock", "clock doubling per category", fun _ -> ablation_clock ());
    ("ablate-bus", "L2 banks / bus width", fun _ -> ablation_bus ());
    ("ablate-tlb", "TLB geometry on the DRAM chase", fun _ -> ablation_tlb ());
    ("ablate-prefetch", "modeling: L2 stream prefetcher", fun _ -> ablation_prefetch ());
    ("ablate-quantum", "modeling: co-simulation quantum", fun _ -> ablation_quantum ());
    ("simrate", "FireSim host simulation rate", fun _ -> simrate ());
    ("multinode", "future work: 1-8 node scale-out simulation", fun _ -> multinode ());
  ]
