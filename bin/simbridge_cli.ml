(* simbridge: command-line driver for the simulation-vs-silicon study.

   Subcommands:
     platforms            list the platform catalog
     experiments          list reproducible tables/figures
     run EXPERIMENT       regenerate one table/figure (or "all")
     csv FIGURE           emit a figure's data as CSV
     workload NAME        run one workload on one platform and print details
     compare NAME         run one workload on both sim/silicon platform pairs
     tune TARGET          rank candidate models against a silicon reference
     grid TARGET          grid-search a model's parameters against a silicon
                          reference
     dump-raw             write every figure panel's data as CSV
     validate             fidelity gate: recompute fig1-7 vs golden CSVs +
                          paper expectation bands
     history              run ledger: record reports, trend tables,
                          regression check

   Observability: run/csv/workload/validate emit a machine-readable
   run-report.json (lib/ledger) and `run` also writes a span-annotated
   Chrome trace; all human notices about those files go to stderr so
   stdout stays byte-identical across job counts (the parallel smoke
   compares it).

   Service mode (lib/serve):
     serve                persistent daemon answering NDJSON queries over
                          a Unix/TCP socket, one request at a time
     query                one query against a running daemon; stdout is
                          byte-identical to the one-shot command *)

open Cmdliner

module J = Util.Jsonx

let num_j n = J.Num (float_of_int n)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)

(* --jobs: worker-domain count for grid experiments (0 = auto).  Set once
   at startup, before any pool runs — the pool default, like the Rng
   global seed, is read-only thereafter. *)
let setup_jobs jobs =
  if jobs < 0 then begin
    Format.eprintf "--jobs must be >= 0 (0 = auto, 1 = sequential), got %d@." jobs;
    exit 1
  end;
  Parallel.Pool.set_default_jobs jobs

let list_platforms () =
  List.iter
    (fun (c : Platform.Config.t) ->
      Format.printf "%-22s %s@." c.Platform.Config.name c.Platform.Config.description)
    Platform.Catalog.all

let list_experiments () =
  List.iter
    (fun (id, descr, _) -> Format.printf "%-12s %s@." id descr)
    Simbridge.Experiments.all

(* Write one artefact, or say why it cannot be written and exit 1. *)
let write_or_exit ~what path write =
  try write ()
  with Sys_error msg ->
    Format.eprintf "cannot write %s to %s: %s@." what path msg;
    exit 1

(* What a finished command puts in its run report beyond the registry. *)
type outcome = { extra : (string * J.t) list; fidelity : J.t option; exit_status : int }

let finished = { extra = []; fidelity = None; exit_status = 0 }

(* One observed invocation, shared by run, csv, workload, validate and
   serve.  The registry is live only when some output is asked for.
   [body] runs under the root span [span] (with the TTY progress line
   when [progress]) and returns what follows the span; that gets the
   wall time and returns the run report's [outcome].  Then the
   telemetry directory, run report, Chrome trace and history line are
   written, each only when its path is given.  Notices about the last
   three go to stderr: stdout carries only the command's own output,
   byte-identical across job counts.  Exits with a non-zero
   [exit_status]. *)
let observed ?(progress = false) ?telemetry_dir ?(trace_path = "") ?(history_path = "")
    ~trace_capacity ~report_path ~command ~config ~span body =
  if telemetry_dir = Some "" then begin
    Format.eprintf "--telemetry requires a non-empty directory@.";
    exit 1
  end;
  let reg =
    if report_path <> "" || trace_path <> "" || history_path <> "" || Option.is_some telemetry_dir
    then Telemetry.Registry.create ~trace_capacity ()
    else Telemetry.Registry.disabled
  in
  if progress then Ledger.Progress.install_if_tty ();
  let t0 = Unix.gettimeofday () in
  let after = Telemetry.Registry.span_with reg ~root:true span (fun () -> body reg) in
  if progress then Ledger.Progress.uninstall ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let o = after wall_s in
  Option.iter
    (fun dir ->
      write_or_exit ~what:"telemetry" dir (fun () -> Telemetry.Export.write reg ~dir);
      Format.printf "telemetry     : %s/telemetry.txt, telemetry.csv, trace.json@." dir)
    telemetry_dir;
  let report =
    if report_path = "" && history_path = "" then None
    else
      Some
        (Ledger.Run_report.build ~wall_s ?fidelity:o.fidelity ~extra:o.extra
           ~exit_status:o.exit_status ~command ~config ~telemetry:reg ())
  in
  (match report with
  | Some report when report_path <> "" ->
    write_or_exit ~what:"run report" report_path (fun () ->
        Ledger.Run_report.write ~path:report_path report);
    Format.eprintf "run report    : %s (%s)@." report_path (Ledger.Run_report.summary_line report)
  | _ -> ());
  if trace_path <> "" then begin
    write_or_exit ~what:"trace" trace_path (fun () ->
        Util.Outfile.write trace_path (Telemetry.Export.chrome_trace reg));
    Format.eprintf "run trace     : %s (load in ui.perfetto.dev)@." trace_path
  end;
  (match report with
  | Some report when history_path <> "" ->
    write_or_exit ~what:"history" history_path (fun () ->
        Ledger.History.append ~path:history_path report);
    Format.eprintf "history       : recorded in %s@." history_path
  | _ -> ());
  if o.exit_status <> 0 then exit o.exit_status

let run_experiment verbose seed jobs trace_capacity report_path trace_path id =
  setup_logs verbose;
  Util.Rng.set_global_seed seed;
  setup_jobs jobs;
  observed ~progress:true ~trace_path ~trace_capacity ~report_path ~command:("run " ^ id)
    ~config:
      [
        ("experiment", J.Str id);
        ("seed", num_j seed);
        ("jobs", num_j jobs);
        ("trace_capacity", num_j trace_capacity);
      ]
    ~span:("run:" ^ id)
    (fun reg ->
      (if id = "all" then
         List.iter
           (fun (id, _, render) -> Format.printf "=== %s ===@.%s@." id (render reg))
           Simbridge.Experiments.all
       else
         match List.find_opt (fun (i, _, _) -> i = id) Simbridge.Experiments.all with
         | Some (_, _, render) -> print_string (render reg)
         | None ->
           Format.eprintf "unknown experiment %s; try `simbridge experiments`@." id;
           exit 1);
      fun _ -> finished)

let csv_figure jobs trace_capacity report_path id scale =
  setup_jobs jobs;
  if not (List.mem id Simbridge.Experiments.figure_ids) then begin
    Format.eprintf "unknown figure %s (%s)@." id
      (String.concat ", " Simbridge.Experiments.figure_ids);
    exit 1
  end;
  observed ~progress:true ~trace_capacity ~report_path ~command:("csv " ^ id)
    ~config:
      [
        ("figure", J.Str id);
        ("scale", J.Num scale);
        ("jobs", num_j jobs);
        ("trace_capacity", num_j trace_capacity);
      ]
    ~span:("csv:" ^ id)
    (fun reg ->
      let fig = Option.get (Simbridge.Experiments.figure_by_id ~scale ~telemetry:reg id) in
      fun _ ->
        print_string (Simbridge.Experiments.figure_csv fig);
        finished)

let print_result (r : Platform.Soc.result) =
  Format.printf "platform      : %s@." r.platform;
  Format.printf "ranks         : %d@." r.ranks;
  Format.printf "cycles        : %d@." r.cycles;
  Format.printf "target time   : %.6f s@." r.seconds;
  Format.printf "instructions  : %d@." r.instructions;
  Format.printf "IPC (total)   : %.3f@."
    (float_of_int r.instructions /. float_of_int (max 1 r.cycles));
  Format.printf "L1D miss rate : %.4f (%d/%d)@."
    (float_of_int r.l1d_misses /. float_of_int (max 1 r.l1d_accesses))
    r.l1d_misses r.l1d_accesses;
  Format.printf "L2 miss rate  : %.4f (%d/%d)@."
    (float_of_int r.l2_misses /. float_of_int (max 1 r.l2_accesses))
    r.l2_misses r.l2_accesses;
  Format.printf "DRAM requests : %d@." r.dram_requests;
  match r.comm with
  | None -> ()
  | Some c ->
    Format.printf "MPI messages  : %d (%d bytes), %d collectives@." c.Smpi.messages c.Smpi.bytes_moved
      c.Smpi.collectives

let run_workload verbose name platform ranks scale telemetry_dir seed jobs trace_capacity
    report_path budget =
  let kernel = try Some (Workloads.Microbench.find name) with Not_found -> None in
  (* An MPI app has no measured stream for a budget to cut: refuse the
     flag rather than run the app in full under it. *)
  if Option.is_some budget && Option.is_none kernel then
    `Error
      (true, Printf.sprintf "option '--budget' applies to microbench kernels only, not to %s" name)
  else begin
    setup_logs verbose;
    Util.Rng.set_global_seed seed;
    setup_jobs jobs;
    let config =
      try Platform.Catalog.find platform
      with Not_found ->
        Format.eprintf "unknown platform %s; try `simbridge platforms`@." platform;
        exit 1
    in
    observed ?telemetry_dir ~trace_capacity ~report_path
      ~command:(Printf.sprintf "workload %s @ %s" name platform)
      ~config:
        [
          ("workload", J.Str name);
          ("platform", J.Str platform);
          ("ranks", num_j ranks);
          ("scale", J.Num scale);
          ("seed", num_j seed);
          ("jobs", num_j jobs);
          ("budget", match budget with None -> J.Null | Some n -> num_j n);
          ("trace_capacity", num_j trace_capacity);
        ]
      ~span:("workload:" ^ name)
      (fun reg ->
        match kernel with
        | Some k ->
          let t = Simbridge.Runner.run_kernel_timed ~scale ~telemetry:reg ?budget config k in
          print_result t.Simbridge.Runner.result;
          Format.printf "host wall     : setup %.4f s + measure %.4f s@." t.Simbridge.Runner.setup_wall_s
            t.Simbridge.Runner.measure_wall_s;
          Option.iter
            (fun n ->
              Format.printf "budget        : first %d measured insns, stream %s@." n
                (if t.Simbridge.Runner.complete then "complete" else "cut at the budget"))
            budget;
          fun _ ->
            { finished with extra = [ ("result", J.Obj [ ("complete", J.Bool t.Simbridge.Runner.complete) ]) ] }
        | None ->
          let apps =
            Workloads.Npb.all @ [ Workloads.Ume.app; Workloads.Lammps.lj; Workloads.Lammps.chain ]
          in
          (match List.find_opt (fun (a : Workloads.Workload.app) -> a.app_name = name) apps with
          | Some app ->
            let r = Simbridge.Runner.run_app ~scale ~telemetry:reg ~ranks config app in
            print_result r
          | None ->
            Format.eprintf
              "unknown workload %s (microbench name, cg/ep/is/mg, ume, lammps-lj, lammps-chain)@." name;
            exit 1);
          fun _ -> finished);
    `Ok ()
  end

let run_compare name ranks scale =
  (* Side-by-side sim-vs-silicon comparison for both platform pairs. *)
  let apps =
    Workloads.Npb.all @ [ Workloads.Ume.app; Workloads.Lammps.lj; Workloads.Lammps.chain ]
  in
  let workload =
    match Workloads.Microbench.find name with
    | k -> Simbridge.Runner.Kernel k
    | exception Not_found -> (
      match List.find_opt (fun (a : Workloads.Workload.app) -> a.app_name = name) apps with
      | Some app -> Simbridge.Runner.App (app, ranks)
      | None ->
        Format.eprintf "unknown workload %s@." name;
        exit 1)
  in
  let pairs =
    [
      ("banana-pi", Platform.Catalog.banana_pi_sim, Platform.Catalog.banana_pi_hw);
      ("milk-v", Platform.Catalog.milkv_sim, Platform.Catalog.milkv_hw);
    ]
  in
  let t = Report.Table.create ~headers:[ "Pair"; "t_sim (ms)"; "t_hw (ms)"; "relative" ] in
  List.iter2
    (fun (label, _, _) (s, h) ->
      Report.Table.add_row t
        [
          label;
          Printf.sprintf "%.4f" (s.Platform.Soc.seconds *. 1e3);
          Printf.sprintf "%.4f" (h.Platform.Soc.seconds *. 1e3);
          Printf.sprintf "%.3f" (Simbridge.Runner.relative_speedup ~sim:s ~hw:h);
        ])
    pairs
    (Simbridge.Runner.compare_grid ~scale (List.map (fun (_, sim, hw) -> (sim, hw, workload)) pairs));
  print_string (Report.Table.render t)

let run_grid target scale =
  let base, hw =
    match target with
    | "banana-pi" -> (Platform.Catalog.banana_pi_sim, Platform.Catalog.banana_pi_hw)
    | "milkv" -> (Platform.Catalog.milkv_sim, Platform.Catalog.milkv_hw)
    | _ ->
      Format.eprintf "unknown grid target %s (banana-pi | milkv)@." target;
      exit 1
  in
  let kernels = List.map Workloads.Microbench.find [ "EI"; "ED1"; "MD"; "ML2"; "MM"; "Cca"; "CCh" ] in
  let scores =
    Simbridge.Tuning.grid_search ~scale ~kernels ~base ~hw
      ~dimensions:
        [
          Simbridge.Tuning.dim_frequency [ 1.0; 1.5; 2.0 ];
          Simbridge.Tuning.dim_dram_ctrl [ 0.5; 1.0 ];
          Simbridge.Tuning.dim_l2_latency [ 0.75; 1.0 ];
        ]
      ()
  in
  print_string (Simbridge.Tuning.render_scores scores)

let dump_raw jobs dir scale =
  setup_jobs jobs;
  (* The paper publishes its raw runtime data; this writes ours. *)
  List.iter
    (fun (id, fig) ->
      let path = Filename.concat dir (id ^ ".csv") in
      write_or_exit ~what:"raw data" path (fun () ->
          Util.Outfile.write path (Simbridge.Experiments.figure_csv fig));
      Format.printf "wrote %s@." path)
    (Simbridge.Experiments.figures ~scale Simbridge.Experiments.figure_ids)

(* ------------------------------------------------------------ validate *)

(* The fidelity gate (ISSUE 5): recompute figures through the Runner,
   verdict every cell against the golden CSVs, evaluate the transcribed
   paper expectations, and write the machine-readable report.  Exit 0
   only when nothing drifted; --strict also rejects Within_band (a
   healthy deterministic tree is fully Exact).  --update-golden is the
   single sanctioned way to refresh results/*.csv. *)
let run_validate verbose seed jobs trace_capacity figures update_golden strict report_path
    run_report_path results_dir expectations_path telemetry_dir =
  setup_logs verbose;
  Util.Rng.set_global_seed seed;
  setup_jobs jobs;
  let ids =
    match Validate.Fidelity.expand_spec figures with
    | Ok ids -> ids
    | Error msg ->
      Format.eprintf "bad --figures spec: %s@." msg;
      exit 1
  in
  let expectations =
    match Validate.Expectations.load expectations_path with
    | Ok e -> e
    | Error msg ->
      Format.eprintf "cannot load expectations %s: %s@." expectations_path msg;
      exit 1
  in
  observed ~progress:true ?telemetry_dir ~trace_capacity ~report_path:run_report_path
    ~command:("validate " ^ figures)
    ~config:
      [
        ("figures", J.Str figures);
        ("strict", J.Bool strict);
        ("update_golden", J.Bool update_golden);
        ("seed", num_j seed);
        ("jobs", num_j jobs);
        ("trace_capacity", num_j trace_capacity);
      ]
    ~span:"validate"
    (fun reg ->
      let report =
        Validate.Fidelity.run ~telemetry:reg ~update_golden ~results_dir ~expectations ids
      in
      fun _ ->
        if update_golden then
          List.iter
            (fun (fr : Validate.Fidelity.figure_report) ->
              Format.printf "updated %s@." fr.Validate.Fidelity.fr_golden)
            report.Validate.Fidelity.r_figures;
        print_string (Validate.Fidelity.render ~strict report);
        if report_path <> "" then begin
          write_or_exit ~what:"fidelity report" report_path (fun () ->
              Util.Outfile.write report_path
                (J.to_string (Validate.Fidelity.to_json ~strict report) ^ "\n"));
          Format.printf "report        : %s@." report_path
        end;
        {
          finished with
          fidelity = Some (Validate.Fidelity.summary_json ~strict report);
          exit_status = (if Validate.Fidelity.ok ~strict report then 0 else 1);
        })

let run_tune target scale =
  let candidates, hw =
    match target with
    | "milkv" ->
      ( [
          Platform.Catalog.boom_small;
          Platform.Catalog.boom_medium;
          Platform.Catalog.boom_large;
          Platform.Catalog.milkv_sim;
        ],
        Platform.Catalog.milkv_hw )
    | "banana-pi" ->
      ( Platform.Catalog.rocket1 :: Platform.Catalog.rocket2 :: Platform.Catalog.cva6
        :: Platform.Catalog.banana_pi_sim
        :: Simbridge.Tuning.sweep_frequency ~base:Platform.Catalog.banana_pi_sim
             ~multipliers:[ 1.5; 2.0 ],
        Platform.Catalog.banana_pi_hw )
    | _ ->
      Format.eprintf "unknown tuning target %s (milkv | banana-pi)@." target;
      exit 1
  in
  let scores = Simbridge.Tuning.rank_candidates ~scale ~candidates ~hw () in
  print_string (Simbridge.Tuning.render_scores scores)

(* ------------------------------------------------------------- history *)

let load_history path =
  match Ledger.History.load ~path with
  | Ok entries -> entries
  | Error msg ->
    Format.eprintf "cannot load history %s: %s@." path msg;
    exit 2

let history_record path report_file =
  match J.parse_file report_file with
  | Error msg ->
    Format.eprintf "cannot parse %s: %s@." report_file msg;
    exit 2
  | Ok json -> (
    match Ledger.History.entry_of_report json with
    | Error msg ->
      Format.eprintf "%s: %s@." report_file msg;
      exit 2
    | Ok e ->
      write_or_exit ~what:"history" path (fun () -> Ledger.History.append ~path json);
      Format.printf "recorded %s (%s) -> %s@." e.Ledger.History.h_run_id
        e.Ledger.History.h_command path)

(* Empty-ledger contract (documented in the subcommand docs): a missing
   or empty history file is a normal state for `show` (exit 0, clear
   pointer at how to record) but means `check` has nothing to gate on
   (exit 2 — distinct from exit 1, which is a real regression). *)
let no_history_message path =
  Format.sprintf
    "no history recorded yet (%s is missing or empty); run an experiment and `simbridge history \
     record run-report.json` to start the ledger"
    path

let history_show path csv last =
  let entries = load_history path in
  let entries =
    if last > 0 && List.length entries > last then
      List.filteri (fun i _ -> i >= List.length entries - last) entries
    else entries
  in
  if entries = [] then Format.printf "%s@." (no_history_message path)
  else print_string (if csv then Ledger.History.to_csv entries else Ledger.History.render entries)

let history_compare path id_a id_b =
  let entries = load_history path in
  let find id =
    let matches e =
      e.Ledger.History.h_run_id = id
      || String.length id < String.length e.Ledger.History.h_run_id
         && String.sub e.Ledger.History.h_run_id 0 (String.length id) = id
    in
    (* Prefer the newest match so a date prefix picks the latest run. *)
    match List.find_opt matches (List.rev entries) with
    | Some e -> e
    | None ->
      Format.eprintf "no history entry matches run id %S in %s@." id path;
      exit 2
  in
  match (id_a, id_b) with
  | Some a, Some b -> print_string (Ledger.History.compare_ (find a) (find b))
  | None, None -> (
    match List.rev entries with
    | b :: a :: _ -> print_string (Ledger.History.compare_ a b)
    | _ ->
      Format.eprintf "history %s holds %d entr%s; need two to compare@." path (List.length entries)
        (if List.length entries = 1 then "y" else "ies");
      exit 2)
  | _ ->
    Format.eprintf "give two run ids (or none for the last two)@.";
    exit 2

let history_check path mips_drop =
  let entries = load_history path in
  if entries = [] then begin
    Format.printf "%s@." (no_history_message path);
    exit 2
  end;
  let r = Ledger.History.check ~mips_drop entries in
  List.iter (fun l -> Format.printf "%s@." l) r.Ledger.History.ck_lines;
  if not r.Ledger.History.ck_ok then begin
    Format.eprintf "history check : FAIL (%s)@." path;
    exit 1
  end;
  Format.printf "history check : OK (%d entr%s)@." (List.length entries)
    (if List.length entries = 1 then "y" else "ies")

(* --------------------------------------------------------------- serve *)

let parse_addr flag s =
  match Serve.Protocol.addr_of_string s with
  | Ok a -> a
  | Error msg ->
    Format.eprintf "bad %s %S: %s@." flag s msg;
    exit 1

(* The daemon: one process-lifetime trace cache, one engine, one listen
   socket.  SIGTERM/SIGINT (and a client `shutdown` frame) drain
   in-flight requests, refuse new ones, then flush the ledger — the
   final run report covers every request served. *)
let run_serve verbose seed jobs trace_capacity report_path trace_path history_path listen
    response_cache trace_cache_mib =
  setup_logs verbose;
  Util.Rng.set_global_seed seed;
  setup_jobs jobs;
  if trace_cache_mib > 0 then
    Simbridge.Runner.set_trace_cache_limits ~words:(trace_cache_mib * 1024 * 1024 / 8) ();
  let addr = parse_addr "--listen" listen in
  observed ~trace_path ~history_path ~trace_capacity ~report_path ~command:"serve"
    ~config:
      [
        ("listen", J.Str (Serve.Protocol.addr_to_string addr));
        ("seed", num_j seed);
        ("jobs", num_j jobs);
        ("trace_capacity", num_j trace_capacity);
        ("response_cache", num_j response_cache);
      ]
    ~span:"serve"
    (fun reg ->
      let srv =
        try
          Serve.Server.create ~jobs ~response_cache_capacity:response_cache ~telemetry:reg addr
        with Unix.Unix_error (e, _, _) ->
          Format.eprintf "cannot listen on %s: %s@."
            (Serve.Protocol.addr_to_string addr)
            (Unix.error_message e);
          exit 1
      in
      let on_signal _ = Serve.Server.stop srv in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Format.eprintf "serving on %s (jobs=%d, response cache=%d); SIGTERM drains@."
        (Serve.Protocol.addr_to_string addr)
        jobs response_cache;
      (* The registry is written by the main thread only here (before
         the dispatcher starts) and after [run] returns (all service
         threads joined). *)
      Serve.Server.run srv;
      fun wall_s ->
        let served = Serve.Engine.requests_served (Serve.Server.engine srv) in
        Format.eprintf "drained after %d request%s in %.1f s@." served
          (if served = 1 then "" else "s")
          wall_s;
        { finished with extra = [ ("serve", Serve.Engine.stats_json (Serve.Server.engine srv)) ] })

let run_query connect figure scale render cell ping stats shutdown show_report =
  let addr = parse_addr "--connect" connect in
  let usage_error msg =
    Format.eprintf "%s@." msg;
    exit 1
  in
  let op =
    if ping then Serve.Protocol.Ping
    else if stats then Serve.Protocol.Stats
    else if shutdown then Serve.Protocol.Shutdown
    else
      match (cell, figure) with
      | Some spec, None -> (
        match String.split_on_char '/' spec with
        | [ platform; kernel ] when platform <> "" && kernel <> "" ->
          Serve.Protocol.(Run (Cell { platform; kernel; scale }))
        | _ -> usage_error (Printf.sprintf "--cell wants PLATFORM/KERNEL, got %S" spec))
      | None, Some figure ->
        Serve.Protocol.(Run (Figure { fmt = (if render then `Render else `Csv); figure; scale }))
      | Some _, Some _ -> usage_error "give either FIGURE or --cell, not both"
      | None, None -> usage_error "nothing to ask: give FIGURE, --cell, --ping, --stats, or --shutdown"
  in
  let client =
    try Serve.Client.connect addr
    with Unix.Unix_error (e, _, _) ->
      Format.eprintf "cannot connect to %s: %s (is `simbridge serve` running?)@."
        (Serve.Protocol.addr_to_string addr)
        (Unix.error_message e);
      exit 1
  in
  let finish code =
    Serve.Client.close client;
    exit code
  in
  match Serve.Client.rpc client Serve.Protocol.{ rq_id = "cli"; rq_op = op } with
  | Error msg ->
    Format.eprintf "query failed: %s@." msg;
    finish 1
  | Ok { Serve.Protocol.rs_result = Error msg; _ } ->
    Format.eprintf "server error: %s@." msg;
    finish 1
  | Ok { Serve.Protocol.rs_result = Ok (payload, report); _ } ->
    (* payload only on stdout: `query FIG` diffs clean against `csv FIG`.
       Figure/cell payloads are newline-terminated already; the inline
       ops ("pong", "draining") are not, so terminate the line here. *)
    print_string payload;
    if payload <> "" && payload.[String.length payload - 1] <> '\n' then print_newline ();
    if show_report then
      Format.eprintf "%s@." (J.to_string ~indent:2 report);
    finish 0

(* ------------------------------------------------------------------ cli *)

(* Shared validated integer convs: every command parses --jobs and
   --trace-capacity (and serve's sizing flags) through these, so
   negatives and garbage die at parse time with one uniform usage error
   — cmdliner prefixes it with the flag name, e.g.
   "option '--jobs': expected a non-negative integer, got '-3'". *)
let nonneg_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected a non-negative integer, got '%s'" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got '%s'" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* The same rule Serve.Protocol.req_scale applies to a served query: a
   run at scale 0, a negative scale, NaN or infinity simulates nothing
   (or fails deep inside a workload generator), so refuse it up front. *)
let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0.0 -> Ok v
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected a finite positive number, got '%s'" s))
  in
  Arg.conv ~docv:"X" (parse, Format.pp_print_float)

let scale_arg =
  Arg.(value & opt pos_float 1.0 & info [ "scale" ] ~doc:"Workload size multiplier (default 1.0).")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log each simulation run.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ]
        ~doc:
          "Global seed override: re-keys every baked-in workload RNG stream deterministically. 0 \
           (default) keeps the historical fixed-seed streams.")

let jobs_arg =
  Arg.(
    value & opt nonneg_int 0
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains for grid experiments: $(b,0) (default) = auto \
           (Domain.recommended_domain_count), $(b,1) = sequential in-process, $(b,N) = up to N \
           concurrent simulation cells. Output is bit-identical for every value.")

let trace_capacity_arg =
  Arg.(
    value & opt nonneg_int 65536
    & info [ "trace-capacity" ]
        ~doc:
          "Telemetry trace-ring capacity in events (default 65536). When the ring overflows the \
           oldest events are dropped and the drop count is reported; raise this for complete \
           traces of large grids."
        ~docv:"EVENTS")

let report_arg =
  Arg.(
    value & opt string "run-report.json"
    & info [ "report" ]
        ~doc:"Write the machine-readable run report to $(docv) (empty to skip)."
        ~docv:"FILE")

let platforms_cmd =
  Cmd.v (Cmd.info "platforms" ~doc:"List the platform catalog")
    Term.(const list_platforms $ const ())

let experiments_cmd =
  Cmd.v (Cmd.info "experiments" ~doc:"List reproducible tables and figures")
    Term.(const list_experiments $ const ())

let run_cmd =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT") in
  let trace =
    Arg.(
      value & opt string "run-trace.json"
      & info [ "trace" ]
          ~doc:
            "Write the span-annotated Chrome/Perfetto trace to $(docv) (empty to skip). Spans \
             carry parent ids, worker lanes, queue waits, and trace-cache hit/miss annotations."
          ~docv:"FILE")
  in
  Cmd.v (Cmd.info "run" ~doc:"Regenerate a table or figure (or 'all')")
    Term.(
      const run_experiment $ verbose_arg $ seed_arg $ jobs_arg $ trace_capacity_arg $ report_arg
      $ trace $ id)

let csv_cmd =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE") in
  Cmd.v (Cmd.info "csv" ~doc:"Emit a figure's data as CSV")
    Term.(
      const csv_figure $ jobs_arg $ trace_capacity_arg $ report_arg $ id $ scale_arg)

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ]
        ~doc:
          "Write run telemetry sidecars (plain-text report, CSV, Chrome trace JSON) into $(docv)."
        ~docv:"DIR")

let workload_cmd =
  let wname = Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD") in
  let platform =
    Arg.(value & opt string "banana-pi-sim" & info [ "platform"; "p" ] ~doc:"Platform name.")
  in
  let ranks = Arg.(value & opt pos_int 1 & info [ "ranks"; "n" ] ~doc:"MPI ranks (apps only).") in
  let budget =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "budget" ]
          ~doc:
            "Microbench kernels only: simulate just the measured stream's first $(docv) \
             instructions, exactly (the setup stream still runs in full)."
          ~docv:"INSNS")
  in
  Cmd.v (Cmd.info "workload" ~doc:"Run one workload on one platform")
    Term.(
      ret
        (const run_workload $ verbose_arg $ wname $ platform $ ranks $ scale_arg $ telemetry_arg
       $ seed_arg $ jobs_arg $ trace_capacity_arg $ report_arg $ budget))

let tune_cmd =
  let target = Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET") in
  Cmd.v (Cmd.info "tune" ~doc:"Rank candidate models against a silicon reference")
    Term.(const run_tune $ target $ scale_arg)

let compare_cmd =
  let wname = Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD") in
  let ranks = Arg.(value & opt pos_int 1 & info [ "ranks"; "n" ] ~doc:"MPI ranks (apps only).") in
  Cmd.v (Cmd.info "compare" ~doc:"Run a workload on both platform pairs and report relative speedups")
    Term.(const run_compare $ wname $ ranks $ scale_arg)

let grid_cmd =
  let target = Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET") in
  Cmd.v
    (Cmd.info "grid" ~doc:"Auto-tune a simulation model against a silicon reference (grid search)")
    Term.(const run_grid $ target $ scale_arg)

let validate_cmd =
  let figures =
    Arg.(
      value & opt string "all"
      & info [ "figures" ]
          ~doc:
            "Comma-separated figures to validate: numbers ($(b,1,2)), ids ($(b,fig4b)), or \
             $(b,all) (default). $(b,3)/$(b,4) expand to both panels."
          ~docv:"LIST")
  in
  let update_golden =
    Arg.(
      value & flag
      & info [ "update-golden" ]
          ~doc:
            "Rewrite the selected golden CSVs under --results from this run, then re-verify. The \
             single sanctioned way to refresh results/*.csv - golden churn stays an explicit, \
             reviewable diff.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Also fail on $(b,Within_band) cells: the simulator is deterministic, so a healthy \
             tree is fully $(b,Exact). CI runs this form.")
  in
  let report =
    Arg.(
      value & opt string "validate-report.json"
      & info [ "report" ]
          ~doc:"Write the machine-readable JSON fidelity report to $(docv) (empty to skip)."
          ~docv:"FILE")
  in
  let results_dir =
    Arg.(
      value & opt string "results"
      & info [ "results" ] ~doc:"Directory holding the golden CSVs." ~docv:"DIR")
  in
  let expectations =
    Arg.(
      value & opt string "results/paper-expectations.json"
      & info [ "expectations" ] ~doc:"Paper expectation bands/shapes JSON." ~docv:"FILE")
  in
  let run_report =
    Arg.(
      value & opt string "run-report.json"
      & info [ "run-report" ]
          ~doc:
            "Write the machine-readable run report (distinct from the fidelity $(b,--report)) to \
             $(docv) (empty to skip)."
          ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Fidelity gate: recompute fig1-7, verdict every cell vs the golden CSVs \
          (Exact/Within_band/Drifted), and check the transcribed paper expectation bands")
    Term.(
      const run_validate $ verbose_arg $ seed_arg $ jobs_arg $ trace_capacity_arg $ figures
      $ update_golden $ strict $ report $ run_report $ results_dir $ expectations $ telemetry_arg)

let dump_cmd =
  let dir =
    Arg.(value & opt string "results" & info [ "out"; "o" ] ~doc:"Output directory for CSV files.")
  in
  Cmd.v (Cmd.info "dump-raw" ~doc:"Write every figure's raw data as CSV (as the paper does on GitHub)")
    Term.(const dump_raw $ jobs_arg $ dir $ scale_arg)

let history_cmd =
  let path =
    Arg.(
      value & opt string "results/history.jsonl"
      & info [ "history" ] ~doc:"History ledger (JSONL of run reports)." ~docv:"FILE")
  in
  let record =
    let report_file =
      Arg.(value & pos 0 string "run-report.json" & info [] ~docv:"REPORT")
    in
    Cmd.v (Cmd.info "record" ~doc:"Append a run report to the history ledger")
      Term.(const history_record $ path $ report_file)
  in
  let show =
    let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit the trend table as CSV.") in
    let last =
      Arg.(value & opt int 0 & info [ "last" ] ~doc:"Show only the newest $(docv) entries (0 = all)." ~docv:"N")
    in
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Render the recorded trend table (MIPS, wall, fidelity over time). With no history \
            recorded yet (missing or empty ledger) prints a pointer and exits 0.")
      Term.(const history_show $ path $ csv $ last)
  in
  let compare =
    let id_a = Arg.(value & pos 0 (some string) None & info [] ~docv:"RUN_A") in
    let id_b = Arg.(value & pos 1 (some string) None & info [] ~docv:"RUN_B") in
    Cmd.v
      (Cmd.info "compare"
         ~doc:"Diff two recorded runs by id prefix (default: the last two entries)")
      Term.(const history_compare $ path $ id_a $ id_b)
  in
  let check =
    let mips_drop =
      Arg.(
        value
        & opt float Ledger.History.default_mips_drop
        & info [ "mips-drop" ]
            ~doc:"Fail when aggregate MIPS drops more than this fraction vs the same-host baseline \
                  (default 0.15)."
            ~docv:"FRAC")
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Regression gate: exit 1 when the newest entry drifted fidelity or regressed \
            aggregate MIPS beyond the threshold; exit 2 when no history has been recorded yet \
            (or the ledger is unreadable), so CI can tell \"regression\" from \"no data\"")
      Term.(const history_check $ path $ mips_drop)
  in
  Cmd.group
    (Cmd.info "history" ~doc:"Run ledger: record run reports and track perf/fidelity trends")
    [ record; show; compare; check ]

let listen_arg =
  Arg.(
    value & opt string "simbridge.sock"
    & info [ "listen" ]
        ~doc:
          "Endpoint to serve on: $(b,unix:PATH) (or a bare path) for a Unix socket, \
           $(b,tcp:HOST:PORT) for TCP."
        ~docv:"ADDR")

let serve_cmd =
  let trace =
    Arg.(
      value & opt string ""
      & info [ "trace" ]
          ~doc:"Write the span-annotated Chrome/Perfetto trace at shutdown (empty to skip)."
          ~docv:"FILE")
  in
  let history =
    Arg.(
      value & opt string ""
      & info [ "history" ]
          ~doc:"Append the final run report to this history ledger at shutdown (empty to skip)."
          ~docv:"FILE")
  in
  let response_cache =
    Arg.(
      value & opt nonneg_int 64
      & info [ "response-cache" ]
          ~doc:"Response LRU capacity in entries (0 disables; default 64)."
          ~docv:"N")
  in
  let trace_cache_mib =
    Arg.(
      value & opt nonneg_int 0
      & info [ "trace-cache-mib" ]
          ~doc:
            "Size the process-lifetime compiled-trace cache to roughly $(docv) MiB (0 = keep the \
             default 192 MiB)."
          ~docv:"MIB")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve figure/cell queries as a persistent daemon (NDJSON over a Unix/TCP socket). \
          Payloads are byte-identical to the one-shot commands at any --jobs and any client \
          interleaving; SIGTERM/SIGINT (or a client $(b,shutdown) frame) drains in-flight \
          requests, refuses new ones, and flushes the run report before exiting 0.")
    Term.(
      const run_serve $ verbose_arg $ seed_arg $ jobs_arg $ trace_capacity_arg $ report_arg
      $ trace $ history $ listen_arg $ response_cache $ trace_cache_mib)

let query_cmd =
  let connect =
    Arg.(
      value & opt string "simbridge.sock"
      & info [ "connect" ]
          ~doc:"Daemon endpoint: $(b,unix:PATH), a bare path, or $(b,tcp:HOST:PORT)."
          ~docv:"ADDR")
  in
  let figure = Arg.(value & pos 0 (some string) None & info [] ~docv:"FIGURE") in
  let render =
    Arg.(value & flag & info [ "render" ] ~doc:"Ask for the ASCII chart instead of CSV.")
  in
  let cell =
    Arg.(
      value
      & opt (some string) None
      & info [ "cell" ]
          ~doc:"Run one microbench grid cell: $(docv) is PLATFORM/KERNEL (e.g. \
                $(b,banana-pi-sim/DL1m))."
          ~docv:"SPEC")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe.") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print the daemon's service counters.") in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit.")
  in
  let show_report =
    Arg.(
      value & flag
      & info [ "show-report" ]
          ~doc:"Print the per-request report section (served-from, queue wait, phases, \
                trace-cache delta) to stderr.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send one query to a running $(b,simbridge serve) daemon. Exit 0 with the payload on \
          stdout (byte-identical to the one-shot command), 1 on a server error or when the \
          daemon is unreachable.")
    Term.(
      const run_query $ connect $ figure $ scale_arg $ render $ cell $ ping $ stats $ shutdown
      $ show_report)

let main =
  Cmd.group
    (Cmd.info "simbridge" ~version:"1.0.0"
       ~doc:"Bridging Simulation and Silicon: FireSim-style models vs RISC-V silicon references")
    [
      platforms_cmd; experiments_cmd; run_cmd; csv_cmd; workload_cmd; tune_cmd; compare_cmd;
      grid_cmd; dump_cmd; validate_cmd; history_cmd; serve_cmd; query_cmd;
    ]

let () = exit (Cmd.eval main)
