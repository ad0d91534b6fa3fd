(* Tests for the run-ledger layer: run-report schema round-trips
   through Jsonx, span trees are identical across job counts, and the
   history regression gate passes/fails on the right trajectories. *)

module J = Util.Jsonx
module Reg = Telemetry.Registry
module Trace = Telemetry.Trace
module Pool = Parallel.Pool
module RR = Ledger.Run_report
module H = Ledger.History

(* ------------------------------------------------- report round-trip *)

(* Structural equality modulo float representation: Jsonx prints
   non-integral numbers with %.12g, so a parse . print round trip may
   perturb the 13th significant digit. *)
let rec json_close a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Str x, J.Str y -> x = y
  | J.Num x, J.Num y ->
    x = y || abs_float (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (abs_float x) (abs_float y))
  | J.Arr xs, J.Arr ys -> List.length xs = List.length ys && List.for_all2 json_close xs ys
  | J.Obj xs, J.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && json_close v1 v2) xs ys
  | _ -> false

(* A synthetic but schema-shaped report, parameterised so QCheck can
   sweep the numeric space (including values that exercise %.12g). *)
let synth_report ?(cmd = "run fig1") ~mips ~wall ~cells ~exact ~drifted ~hit_rate ~run_id ~host () =
  J.Obj
    [
      ("schema", J.Str RR.schema);
      ("run_id", J.Str run_id);
      ("time", J.Str "2026-08-08T00:00:00Z");
      ("command", J.Str cmd);
      ("git_rev", J.Str "deadbeef");
      ("host", J.Obj [ ("fingerprint", J.Str host) ]);
      ("config", J.Obj [ ("seed", J.Num 42.0); ("jobs", J.Num 2.0) ]);
      ("exit_status", J.Num 0.0);
      ( "metrics",
        J.Obj
          [
            ("aggregate_mips", J.Num mips);
            ("wall_s", J.Num wall);
            ("measured_wall_s", J.Num (wall /. 2.0));
          ] );
      ("cache", J.Obj [ ("trace_cache_hit_rate", J.Num hit_rate) ]);
      ( "fidelity",
        J.Obj
          [
            ("cells", J.Num (float_of_int cells));
            ("exact", J.Num (float_of_int exact));
            ("drifted", J.Num (float_of_int drifted));
          ] );
    ]

let prop_report_roundtrip =
  QCheck.Test.make ~name:"run-report survives Jsonx print/parse" ~count:200
    QCheck.(triple (float_range 0.0 1e6) (float_range 0.0 1e4) (int_range 0 500))
    (fun (mips, wall, cells) ->
      let r =
        synth_report ~mips ~wall ~cells ~exact:(cells / 2) ~drifted:0 ~hit_rate:0.5
          ~run_id:"20260808T000000Z-p1" ~host:"h/1c" ()
      in
      match J.parse (J.to_string ~indent:0 r) with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok r' ->
        (* the round-tripped report must still be a valid ledger entry
           carrying the same trend fields *)
        json_close r r'
        &&
        (match (H.entry_of_report r, H.entry_of_report r') with
        | Ok a, Ok b ->
          a.H.h_run_id = b.H.h_run_id && a.H.h_cells = b.H.h_cells
          && (match (a.H.h_mips, b.H.h_mips) with
             | Some x, Some y -> abs_float (x -. y) <= 1e-6 *. Float.max 1.0 (abs_float x)
             | None, None -> true
             | _ -> false)
        | _ -> false))

let test_build_report_sanity () =
  let reg = Reg.create () in
  Simbridge.Runner.trace_cache_clear ();
  let _ =
    Reg.span_with reg ~root:true "test" (fun () ->
        Simbridge.Runner.run_kernel ~scale:0.05 ~telemetry:reg Platform.Catalog.banana_pi_sim
          (Workloads.Microbench.find "Cca"))
  in
  let r =
    RR.build ~wall_s:1.0 ~command:"test run" ~config:[ ("seed", J.Num 42.0) ] ~telemetry:reg ()
  in
  Alcotest.(check (option string)) "schema tagged" (Some RR.schema)
    (Option.bind (J.member "schema" r) J.to_str);
  let cache = Option.get (J.member "cache" r) in
  Alcotest.(check bool) "trace cache misses surfaced" true
    (match Option.bind (J.member "trace_cache_misses" cache) J.to_int with
    | Some n -> n >= 1
    | None -> false);
  Alcotest.(check bool) "trace.cache.* in counter snapshot" true
    (match Option.bind (J.member "counters" r) (J.member "trace.cache.misses") with
    | Some (J.Num _) -> true
    | _ -> false);
  let metrics = Option.get (J.member "metrics" r) in
  Alcotest.(check bool) "aggregate MIPS computed" true
    (match Option.bind (J.member "aggregate_mips" metrics) J.to_float with
    | Some m -> m > 0.0
    | None -> false);
  Alcotest.(check bool) "span count in trace section" true
    (match Option.bind (J.member "trace" r) (J.member "spans") with
    | Some (J.Num n) -> n >= 1.0
    | _ -> false);
  (* a freshly built report is itself a valid history entry *)
  match H.entry_of_report r with
  | Ok e -> Alcotest.(check string) "command extracted" "test run" e.H.h_command
  | Error e -> Alcotest.failf "report rejected by history: %s" e

let test_git_rev_resolves () =
  (* dune runs tests in a sandbox, so walk up to the real repo root; if
     none is reachable (release tarball) only the fallback is tested. *)
  let rec find_root dir depth =
    if depth > 8 then None
    else if Sys.file_exists (Filename.concat dir ".git") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent (depth + 1)
  in
  (match find_root (Sys.getcwd ()) 0 with
  | None -> ()
  | Some root ->
    let rev = RR.git_rev ~root () in
    Alcotest.(check bool) "sha-shaped" true
      (String.length rev = 40
      && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) rev));
  Alcotest.(check string) "unresolvable root degrades" "unknown"
    (RR.git_rev ~root:"/nonexistent-simbridge" ())

let test_host_fingerprint () =
  let h = Ledger.Host.detect () in
  let fp = Ledger.Host.fingerprint h in
  Alcotest.(check bool) "cores positive" true (h.Ledger.Host.logical_cores >= 1);
  Alcotest.(check bool) "fingerprint mentions ocaml version" true
    (let needle = "ocaml-" ^ Sys.ocaml_version in
     let nl = String.length needle and hl = String.length fp in
     let rec go i = i + nl <= hl && (String.sub fp i nl = needle || go (i + 1)) in
     go 0);
  Alcotest.(check string) "fingerprint deterministic" fp
    (Ledger.Host.fingerprint (Ledger.Host.detect ()))

(* ---------------------------------------------------- span tree * jobs *)

let span_tree reg =
  Trace.to_list (Reg.trace reg)
  |> List.filter (fun e -> e.Trace.cat = "span")
  |> List.map (fun e ->
         let s k = match List.assoc_opt k e.Trace.args with Some (Trace.Str v) -> v | _ -> "" in
         (s "span", s "parent", e.Trace.name))
  |> List.sort compare

let run_grid ~jobs =
  let reg = Reg.create () in
  let cells =
    List.init 6 (fun i ->
        Pool.cell ~label:(Printf.sprintf "cell%d" i) (fun ctx ->
            Reg.span_with ctx.Pool.telemetry "work" (fun () -> i * i)))
  in
  let results = Reg.span_with reg ~root:true "grid" (fun () -> Pool.run ~jobs ~telemetry:reg cells) in
  (results, span_tree reg)

let test_span_tree_job_invariant () =
  let r1, t1 = run_grid ~jobs:1 in
  let r2, t2 = run_grid ~jobs:2 in
  Alcotest.(check (list int)) "results equal" r1 r2;
  Alcotest.(check int) "root + per-cell + nested spans" (1 + 6 + 6) (List.length t1);
  Alcotest.(check (list (triple string string string)))
    "span (id, parent, name) tree identical across job counts" t1 t2;
  (* every cell span must parent on the root, every nested span on its cell *)
  let root_id =
    match List.find (fun (_, _, n) -> n = "grid") t1 with id, _, _ -> id
  in
  List.iter
    (fun (id, parent, name) ->
      if name <> "grid" then
        if name = "work" then
          Alcotest.(check bool) (id ^ " nested under a cell span") true
            (String.length parent > 0 && parent.[0] = 'c')
        else Alcotest.(check string) (id ^ " cell span parents on root") root_id parent)
    t1

let test_pool_span_queue_wait_annotated () =
  let reg = Reg.create () in
  let cells = List.init 3 (fun i -> Pool.cell ~label:"c" (fun _ -> i)) in
  let _ = Reg.span_with reg ~root:true "g" (fun () -> Pool.run ~jobs:2 ~telemetry:reg cells) in
  let cell_spans =
    Trace.to_list (Reg.trace reg)
    |> List.filter (fun e -> e.Trace.cat = "span" && e.Trace.name = "c")
  in
  Alcotest.(check int) "three cell spans" 3 (List.length cell_spans);
  List.iter
    (fun e ->
      Alcotest.(check bool) "queue wait annotated" true
        (match List.assoc_opt "queue_wait_us" e.Trace.args with
        | Some (Trace.Int w) -> w >= 0
        | _ -> false))
    cell_spans

(* ----------------------------------------------------------- history *)

let entry ?mips ?(cells = 10) ?(exact = 10) ?(drifted = 0) ?(host = "hostA/4c") ?(cmd = "run fig1")
    ~id () =
  match
    H.entry_of_report
      (synth_report ~cmd
         ~mips:(Option.value mips ~default:0.0)
         ~wall:1.0 ~cells ~exact ~drifted ~hit_rate:0.5 ~run_id:id ~host ())
  with
  | Ok e -> if mips = None then { e with H.h_mips = None } else e
  | Error e -> Alcotest.failf "synthetic entry rejected: %s" e

let test_history_check_passes_stable () =
  let entries =
    [ entry ~id:"r1" ~mips:100.0 (); entry ~id:"r2" ~mips:95.0 (); entry ~id:"r3" ~mips:90.0 () ]
  in
  let res = H.check entries in
  Alcotest.(check bool) "10% drop within 15% threshold" true res.H.ck_ok;
  Alcotest.(check bool) "empty history passes" true (H.check []).H.ck_ok;
  Alcotest.(check bool) "single entry passes" true
    (H.check [ entry ~id:"only" ~mips:50.0 () ]).H.ck_ok

let test_history_check_fails_on_mips_regression () =
  let entries = [ entry ~id:"base" ~mips:100.0 (); entry ~id:"slow" ~mips:80.0 () ] in
  let res = H.check entries in
  Alcotest.(check bool) "20% drop fails the default gate" false res.H.ck_ok;
  Alcotest.(check bool) "a FAIL line names the regression" true
    (List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "FAIL") res.H.ck_lines);
  (* the threshold is a parameter: the same trajectory passes at 25% *)
  Alcotest.(check bool) "looser threshold passes" true (H.check ~mips_drop:0.25 entries).H.ck_ok

let test_history_check_mips_needs_same_host () =
  (* A CI runner's MIPS is not a laptop's: a cross-host drop must not
     fail the gate (there is no comparable baseline). *)
  let entries =
    [ entry ~id:"laptop" ~mips:100.0 ~host:"laptop/8c" (); entry ~id:"ci" ~mips:20.0 ~host:"ci/2c" () ]
  in
  Alcotest.(check bool) "cross-host drop waived" true (H.check entries).H.ck_ok;
  (* ... but a same-host baseline further back is still found and used *)
  let entries3 = entries @ [ entry ~id:"laptop2" ~mips:50.0 ~host:"laptop/8c" () ] in
  Alcotest.(check bool) "same-host baseline two entries back still gates" false
    (H.check entries3).H.ck_ok

let test_history_check_fails_on_fidelity () =
  let drifted = [ entry ~id:"good" ~mips:100.0 (); entry ~id:"bad" ~mips:100.0 ~drifted:2 () ] in
  Alcotest.(check bool) "drifted cells fail" false (H.check drifted).H.ck_ok;
  let lost = [ entry ~id:"full" ~exact:10 (); entry ~id:"partial" ~exact:8 () ] in
  Alcotest.(check bool) "lost Exact cells fail" false (H.check lost).H.ck_ok;
  let regained = [ entry ~id:"partial" ~exact:8 (); entry ~id:"full" ~exact:10 () ] in
  Alcotest.(check bool) "gaining Exact cells passes" true (H.check regained).H.ck_ok

let test_history_check_different_command_not_compared () =
  let entries =
    [ entry ~id:"figs" ~cmd:"run fig1" ~mips:100.0 (); entry ~id:"bench" ~cmd:"bench perf" ~mips:10.0 () ]
  in
  Alcotest.(check bool) "different command series never compared" true (H.check entries).H.ck_ok

let test_history_append_load_roundtrip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "simbridge_history_%d.jsonl" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  Alcotest.(check bool) "missing ledger loads empty" true (H.load ~path = Ok []);
  let r1 =
    synth_report ~mips:10.0 ~wall:1.0 ~cells:4 ~exact:4 ~drifted:0 ~hit_rate:0.25 ~run_id:"a"
      ~host:"h" ()
  in
  let r2 =
    synth_report ~mips:12.0 ~wall:0.9 ~cells:4 ~exact:4 ~drifted:0 ~hit_rate:0.75 ~run_id:"b"
      ~host:"h" ()
  in
  H.append ~path r1;
  H.append ~path r2;
  (match H.load ~path with
  | Ok [ a; b ] ->
    Alcotest.(check string) "order preserved" "a" a.H.h_run_id;
    Alcotest.(check string) "second entry" "b" b.H.h_run_id;
    Alcotest.(check bool) "full report preserved" true (json_close r2 b.H.h_json);
    Alcotest.(check bool) "csv renders all entries" true
      (let csv = H.to_csv [ a; b ] in
       String.split_on_char '\n' csv |> List.filter (fun l -> String.trim l <> "") |> List.length = 3)
  | Ok es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)
  | Error e -> Alcotest.fail e);
  (* a malformed line is a located error, not a crash *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{not json\n";
  close_out oc;
  (match H.load ~path with
  | Error e -> Alcotest.(check bool) "error names line 3" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "malformed line accepted");
  Sys.remove path

let test_entry_of_report_rejects_foreign () =
  (match H.entry_of_report (J.Obj [ ("schema", J.Str "something-else/9") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign schema accepted");
  match H.entry_of_report (J.Obj [ ("x", J.Num 1.0) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schemaless document accepted"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_report_roundtrip;
    Alcotest.test_case "report build sanity" `Quick test_build_report_sanity;
    Alcotest.test_case "git rev resolves without git binary" `Quick test_git_rev_resolves;
    Alcotest.test_case "host fingerprint" `Quick test_host_fingerprint;
    Alcotest.test_case "span tree invariant across jobs" `Quick test_span_tree_job_invariant;
    Alcotest.test_case "pool spans carry queue wait" `Quick test_pool_span_queue_wait_annotated;
    Alcotest.test_case "history check: stable passes" `Quick test_history_check_passes_stable;
    Alcotest.test_case "history check: MIPS regression fails" `Quick
      test_history_check_fails_on_mips_regression;
    Alcotest.test_case "history check: cross-host waived" `Quick
      test_history_check_mips_needs_same_host;
    Alcotest.test_case "history check: fidelity gates" `Quick test_history_check_fails_on_fidelity;
    Alcotest.test_case "history check: command series isolated" `Quick
      test_history_check_different_command_not_compared;
    Alcotest.test_case "history append/load roundtrip" `Quick test_history_append_load_roundtrip;
    Alcotest.test_case "foreign reports rejected" `Quick test_entry_of_report_rejects_foreign;
  ]
