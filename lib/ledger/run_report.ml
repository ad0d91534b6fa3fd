module J = Util.Jsonx
module Registry = Telemetry.Registry

let schema = "simbridge-run-report/1"

(* --------------------------------------------------------- identity *)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let run_id () =
  let t = Unix.gettimeofday () in
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ-p%d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec (Unix.getpid ())

let first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> match input_line ic with line -> Some (String.trim line) | exception End_of_file -> None)

(* Resolve HEAD by hand — the repo must stay runnable where no [git]
   binary exists (minimal CI containers), and shelling out from library
   code would be worse than reading two well-known files. *)
let git_rev ?(root = ".") () =
  let git p = Filename.concat (Filename.concat root ".git") p in
  match first_line (git "HEAD") with
  | None -> "unknown"
  | Some head ->
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let refname = String.trim (String.sub head 5 (String.length head - 5)) in
      match first_line (git refname) with
      | Some sha -> sha
      | None -> (
        (* packed refs: lines of "<sha> <refname>" *)
        match open_in (git "packed-refs") with
        | exception Sys_error _ -> "unknown"
        | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let rec scan () =
                match input_line ic with
                | exception End_of_file -> "unknown"
                | line -> (
                  match String.index_opt line ' ' with
                  | Some i
                    when String.sub line (i + 1) (String.length line - i - 1) = refname ->
                    String.sub line 0 i
                  | _ -> scan ())
              in
              scan ()))
    end
    else head

(* ------------------------------------------------------ aggregation *)

type phase_row = {
  pr_name : string;
  pr_count : int;
  pr_target_cycles : int;
  pr_wall_s : float;
}

let phase_breakdown reg =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (p : Registry.phase_info) ->
      let row =
        match Hashtbl.find_opt tbl p.Registry.ph_name with
        | Some r -> r
        | None ->
          let r = ref { pr_name = p.Registry.ph_name; pr_count = 0; pr_target_cycles = 0; pr_wall_s = 0.0 } in
          Hashtbl.add tbl p.Registry.ph_name r;
          order := p.Registry.ph_name :: !order;
          r
      in
      row :=
        {
          !row with
          pr_count = !row.pr_count + 1;
          pr_target_cycles = !row.pr_target_cycles + (p.Registry.ph_ts1 - p.Registry.ph_ts0);
          pr_wall_s = !row.pr_wall_s +. p.Registry.ph_wall_s;
        })
    (Registry.phases reg);
  List.rev_map (fun name -> !(Hashtbl.find tbl name)) !order

let measured_wall_s reg =
  List.fold_left
    (fun acc r -> if r.pr_name = "measure" || r.pr_name = "run" then acc +. r.pr_wall_s else acc)
    0.0 (phase_breakdown reg)

let aggregate_mips reg =
  match Registry.find_counter reg "core.instructions" with
  | Some insns when insns > 0 ->
    let wall = measured_wall_s reg in
    if wall > 0.0 then Some (float_of_int insns /. wall /. 1e6) else None
  | _ -> None

(* ------------------------------------------------------------ build *)

let num_i n = J.Num (float_of_int n)

let phases_json rows =
  J.Arr
    (List.map
       (fun r ->
         J.Obj
           [
             ("name", J.Str r.pr_name);
             ("count", num_i r.pr_count);
             ("target_cycles", num_i r.pr_target_cycles);
             ("wall_s", J.Num r.pr_wall_s);
           ])
       rows)

let trace_cache_json (tc : Simbridge.Runner.trace_cache_stats) =
  J.Obj
    [
      ("hits", num_i tc.tc_hits);
      ("misses", num_i tc.tc_misses);
      ("evictions", num_i tc.tc_evictions);
    ]

let build ?run_id:(id = run_id ()) ?(wall_s = 0.0) ?fidelity ?(exit_status = 0)
    ?(extra = []) ?(metrics = []) ~command ~config ~telemetry () =
  (* Make the process-wide trace-cache counters part of the snapshot
     before reading it (satellite: trace.cache.* as real counters). *)
  Simbridge.Runner.publish_trace_cache_stats telemetry;
  let host = Host.detect () in
  let counters = Registry.counters telemetry in
  let tr = Registry.trace telemetry in
  let span_events =
    List.length
      (List.filter (fun (e : Telemetry.Trace.event) -> e.Telemetry.Trace.cat = "span")
         (Telemetry.Trace.to_list tr))
  in
  let cache_json =
    let get n = Option.value ~default:0 (Registry.find_counter telemetry n) in
    let hits = get "trace.cache.hits" and misses = get "trace.cache.misses" in
    J.Obj
      [
        ("trace_cache_hits", num_i hits);
        ("trace_cache_misses", num_i misses);
        ("trace_cache_evictions", num_i (get "trace.cache.evictions"));
        ( "trace_cache_hit_rate",
          if hits + misses > 0 then J.Num (float_of_int hits /. float_of_int (hits + misses))
          else J.Null );
      ]
  in
  let metrics_obj =
    let base =
      [
        ( "instructions",
          match Registry.find_counter telemetry "core.instructions" with
          | Some n -> num_i n
          | None -> J.Null );
        ("measured_wall_s", J.Num (measured_wall_s telemetry));
        ("wall_s", J.Num wall_s);
        ("aggregate_mips", match aggregate_mips telemetry with Some m -> J.Num m | None -> J.Null);
      ]
    in
    J.Obj (List.filter (fun (k, _) -> not (List.mem_assoc k metrics)) base @ metrics)
  in
  let base =
    [
      ("schema", J.Str schema);
      ("run_id", J.Str id);
      ("time", J.Str (iso8601 (Unix.gettimeofday ())));
      ("command", J.Str command);
      ("git_rev", J.Str (git_rev ()));
      ("host", Host.to_json host);
      ("config", J.Obj config);
      ("exit_status", num_i exit_status);
      ("metrics", metrics_obj);
      ("phases", phases_json (phase_breakdown telemetry));
      ("counters", J.Obj (List.map (fun (n, v) -> (n, num_i v)) counters));
      ("cache", cache_json);
      ( "trace",
        J.Obj
          [
            ("events", num_i (Telemetry.Trace.length tr));
            ("dropped", num_i (Telemetry.Trace.dropped tr));
            ("spans", num_i span_events);
          ] );
    ]
  in
  let fidelity = match fidelity with Some f -> [ ("fidelity", f) ] | None -> [] in
  J.Obj (base @ fidelity @ extra)

(* ------------------------------------------------------------ output *)

let write ~path report = Util.Outfile.write path (J.to_string report ^ "\n")

let summary_line report =
  let str k = Option.value ~default:"?" (Option.bind (J.member k report) J.to_str) in
  let metrics k =
    Option.bind (J.member "metrics" report) (fun m -> Option.bind (J.member k m) J.to_float)
  in
  let mips = match metrics "aggregate_mips" with Some m -> Printf.sprintf "%.2f MIPS" m | None -> "- MIPS" in
  let fidelity =
    match J.member "fidelity" report with
    | None -> ""
    | Some f ->
      let g k = match Option.bind (J.member k f) J.to_int with Some n -> n | None -> 0 in
      Printf.sprintf " · exact %d/%d (drifted %d)" (g "exact") (g "cells") (g "drifted")
  in
  Printf.sprintf "%s · %s · %s · wall %.2fs%s" (str "run_id") (str "command") mips
    (match metrics "wall_s" with Some w -> w | None -> 0.0)
    fidelity
