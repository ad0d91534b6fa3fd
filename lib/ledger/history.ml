module J = Util.Jsonx

type entry = {
  h_run_id : string;
  h_time : string;
  h_rev : string;
  h_command : string;
  h_host : string;
  h_mips : float option;
  h_wall_s : float;
  h_cells : int option;
  h_exact : int option;
  h_drifted : int option;
  h_cache_hit_rate : float option;
  h_json : J.t;
}

let entry_of_report json =
  match Option.bind (J.member "schema" json) J.to_str with
  | Some s when s = Run_report.schema ->
    let str k = Option.value ~default:"" (Option.bind (J.member k json) J.to_str) in
    let metrics k =
      Option.bind (J.member "metrics" json) (fun m -> Option.bind (J.member k m) J.to_float)
    in
    let fidelity k =
      Option.bind (J.member "fidelity" json) (fun f -> Option.bind (J.member k f) J.to_int)
    in
    if str "run_id" = "" then Error "report has no run_id"
    else
      Ok
        {
          h_run_id = str "run_id";
          h_time = str "time";
          h_rev = str "git_rev";
          h_command = str "command";
          h_host =
            Option.value ~default:""
              (Option.bind (J.member "host" json) (fun h ->
                   Option.bind (J.member "fingerprint" h) J.to_str));
          h_mips = metrics "aggregate_mips";
          h_wall_s = Option.value ~default:0.0 (metrics "wall_s");
          h_cells = fidelity "cells";
          h_exact = fidelity "exact";
          h_drifted = fidelity "drifted";
          h_cache_hit_rate =
            Option.bind (J.member "cache" json) (fun c ->
                Option.bind (J.member "trace_cache_hit_rate" c) J.to_float);
          h_json = json;
        }
  | Some s -> Error (Printf.sprintf "unrecognized report schema %S" s)
  | None -> Error "not a run report (no schema field)"

(* ---------------------------------------------------------------- io *)

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else
    match open_in path with
    | exception Sys_error e -> Error e
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan lineno acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | line when String.trim line = "" -> scan (lineno + 1) acc
            | line -> (
              match J.parse line with
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
              | Ok json -> (
                match entry_of_report json with
                | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
                | Ok entry -> scan (lineno + 1) (entry :: acc)))
          in
          scan 1 [])

let append ~path report = Util.Outfile.write ~append:true path (J.to_string ~indent:0 report ^ "\n")

(* ------------------------------------------------------------ render *)

let short s n = if String.length s <= n then s else String.sub s 0 n

let fmt_mips = function Some m -> Printf.sprintf "%.2f" m | None -> "-"

let fmt_fidelity e =
  match (e.h_exact, e.h_cells) with
  | Some x, Some c -> Printf.sprintf "%d/%d%s" x c
      (match e.h_drifted with Some d when d > 0 -> Printf.sprintf " (%d drifted)" d | _ -> "")
  | _ -> "-"

let fmt_hit_rate = function Some r -> Printf.sprintf "%.0f%%" (100.0 *. r) | None -> "-"

let render entries =
  let t =
    Report.Table.create
      ~headers:[ "time"; "run"; "rev"; "command"; "MIPS"; "wall s"; "exact"; "cache hits" ]
  in
  List.iter
    (fun e ->
      Report.Table.add_row t
        [
          e.h_time;
          short e.h_run_id 18;
          short e.h_rev 10;
          e.h_command;
          fmt_mips e.h_mips;
          Printf.sprintf "%.2f" e.h_wall_s;
          fmt_fidelity e;
          fmt_hit_rate e.h_cache_hit_rate;
        ])
    entries;
  Report.Table.render t

let to_csv entries =
  let t =
    Report.Table.create
      ~headers:
        [ "time"; "run_id"; "git_rev"; "command"; "host"; "mips"; "wall_s"; "cells"; "exact"; "drifted" ]
  in
  let opt_i = function Some n -> string_of_int n | None -> "" in
  List.iter
    (fun e ->
      Report.Table.add_row t
        [
          e.h_time;
          e.h_run_id;
          e.h_rev;
          e.h_command;
          e.h_host;
          (match e.h_mips with Some m -> Printf.sprintf "%.4f" m | None -> "");
          Printf.sprintf "%.4f" e.h_wall_s;
          opt_i e.h_cells;
          opt_i e.h_exact;
          opt_i e.h_drifted;
        ])
    entries;
  Report.Table.to_csv t

let compare_ a b =
  let t = Report.Table.create ~headers:[ "metric"; short a.h_run_id 18; short b.h_run_id 18; "delta" ] in
  let row name va vb delta = Report.Table.add_row t [ name; va; vb; delta ] in
  row "command" a.h_command b.h_command (if a.h_command = b.h_command then "same" else "DIFFERENT");
  row "git rev" (short a.h_rev 10) (short b.h_rev 10) (if a.h_rev = b.h_rev then "same" else "changed");
  row "host" (short a.h_host 24) (short b.h_host 24)
    (if a.h_host = b.h_host then "same" else "DIFFERENT");
  (match (a.h_mips, b.h_mips) with
  | Some ma, Some mb when ma > 0.0 ->
    row "aggregate MIPS" (fmt_mips a.h_mips) (fmt_mips b.h_mips)
      (Printf.sprintf "%+.1f%%%s" (100.0 *. ((mb /. ma) -. 1.0))
         (if a.h_host <> b.h_host then " (different hosts — not comparable)" else ""))
  | _ -> row "aggregate MIPS" (fmt_mips a.h_mips) (fmt_mips b.h_mips) "-");
  row "wall s" (Printf.sprintf "%.2f" a.h_wall_s) (Printf.sprintf "%.2f" b.h_wall_s)
    (if a.h_wall_s > 0.0 then Printf.sprintf "%+.1f%%" (100.0 *. ((b.h_wall_s /. a.h_wall_s) -. 1.0))
     else "-");
  row "fidelity exact" (fmt_fidelity a) (fmt_fidelity b)
    (match (a.h_exact, b.h_exact) with
    | Some xa, Some xb -> Printf.sprintf "%+d" (xb - xa)
    | _ -> "-");
  row "cache hit rate" (fmt_hit_rate a.h_cache_hit_rate) (fmt_hit_rate b.h_cache_hit_rate) "";
  Report.Table.render t

(* ------------------------------------------------------------- check *)

type check_result = {
  ck_ok : bool;
  ck_lines : string list;
}

let default_mips_drop = 0.15

(* The regression gate compares the newest entry against its recorded
   trajectory.  Fidelity is host-independent and gated per command;
   MIPS is a host-throughput number, so its baseline must share both
   the command and the host fingerprint — CI runners and laptops are
   not comparable, and a gate that compared them would cry wolf. *)
let check ?(mips_drop = default_mips_drop) entries =
  match List.rev entries with
  | [] -> { ck_ok = true; ck_lines = [ "history empty — nothing to check" ] }
  | latest :: earlier_rev ->
    let fails = ref [] and notes = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
    let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
    let same_cmd = List.filter (fun e -> e.h_command = latest.h_command) earlier_rev in
    (* fidelity *)
    (match latest.h_drifted with
    | Some d when d > 0 -> fail "latest run %s reports %d drifted cell(s)" latest.h_run_id d
    | _ -> ());
    (match (latest.h_exact, List.find_opt (fun e -> e.h_exact <> None) same_cmd) with
    | Some x, Some base ->
      let bx = Option.get base.h_exact in
      if x < bx then
        fail "Exact cells regressed: %d -> %d (baseline %s)" bx x base.h_run_id
      else note "fidelity: %d Exact cell(s), no drift vs %s" x base.h_run_id
    | Some x, None -> note "fidelity: %d Exact cell(s), no earlier %S run to compare" x latest.h_command
    | None, _ -> note "latest run carries no fidelity totals");
    (* MIPS *)
    (match latest.h_mips with
    | None -> note "latest run carries no MIPS metric"
    | Some m -> (
      match
        List.find_opt (fun e -> e.h_host = latest.h_host && e.h_mips <> None) same_cmd
      with
      | None -> note "no same-host %S baseline for MIPS (host %s)" latest.h_command latest.h_host
      | Some base ->
        let bm = Option.get base.h_mips in
        if bm > 0.0 && m < (1.0 -. mips_drop) *. bm then
          fail "aggregate MIPS regressed %.0f%% (%.2f -> %.2f vs %s; threshold %.0f%%)"
            (100.0 *. (1.0 -. (m /. bm)))
            bm m base.h_run_id (100.0 *. mips_drop)
        else note "MIPS %.2f vs baseline %.2f (%s) — within %.0f%%" m bm base.h_run_id
               (100.0 *. mips_drop)));
    if !fails = [] then
      { ck_ok = true; ck_lines = List.rev_map (fun s -> "PASS: " ^ s) !notes }
    else
      {
        ck_ok = false;
        ck_lines =
          List.rev_map (fun s -> "FAIL: " ^ s) !fails @ List.rev_map (fun s -> "note: " ^ s) !notes;
      }
