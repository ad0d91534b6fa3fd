(* Tests for the command-line front end's flag checks: out-of-range
   values, and flags that do not apply to the named workload, must die
   up front with cmdliner's usage error (exit 124, the offending option
   named on stderr) rather than run an empty simulation, raise deep
   inside a workload generator, or be silently ignored.  An artefact
   that cannot be written must likewise end the run with a one-line
   reason and exit 1, not an uncaught exception (exit 125).  A run
   report's trace-cache counts must not depend on [--jobs].  Drives the
   built binary, which the test stanza declares as a dependency. *)

let cli = "../bin/simbridge_cli.exe"

let contains ~needle haystack =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let run_cli args =
  let err = Filename.temp_file "simbridge-cli" ".err" in
  let status = Sys.command (Filename.quote_command cli args ~stdout:Filename.null ~stderr:err) in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, msg)

let rejects (flag, args) =
  Alcotest.test_case (String.concat " " args ^ " rejected") `Quick (fun () ->
      let status, msg = run_cli (args @ [ "--report"; "" ]) in
      Alcotest.(check int) "usage error" 124 status;
      Alcotest.(check bool) ("stderr names " ^ flag) true
        (contains ~needle:(Printf.sprintf "option '%s'" flag) msg))

(* [args] name the output path as [path], relative to a regular file,
   so it cannot be created. *)
let unwritable (what, path, args) =
  Alcotest.test_case (Printf.sprintf "unwritable %s: clean exit" what) `Quick (fun () ->
      let afile = Filename.temp_file "simbridge-cli" ".file" in
      let report = Filename.temp_file "simbridge-cli" ".json" in
      Out_channel.with_open_bin report (fun oc ->
          output_string oc {|{"schema":"simbridge-run-report/1","run_id":"r1"}|});
      let arg a = if a = path then Filename.concat afile a else if a = "REPORT" then report else a in
      let status, msg = run_cli (List.map arg args) in
      Sys.remove afile;
      Sys.remove report;
      Alcotest.(check int) "exit status" 1 status;
      let expected = Printf.sprintf "cannot write %s to %s: " what (Filename.concat afile path) in
      Alcotest.(check bool) (Printf.sprintf "stderr %S has %S" msg expected) true
        (contains ~needle:expected msg))

(* Worker domains that miss on the same trace-cache key at once compile
   it once between them, so fig1's run report counts the same hits and
   misses (one miss per distinct trace) at any job count. *)
let test_trace_cache_jobs_independent () =
  let cache jobs =
    let report = Filename.temp_file "simbridge-cli" ".json" in
    let status, msg =
      run_cli [ "csv"; "fig1"; "--scale"; "0.25"; "--jobs"; string_of_int jobs; "--report"; report ]
    in
    let contents = In_channel.with_open_bin report In_channel.input_all in
    Sys.remove report;
    Alcotest.(check int) (Printf.sprintf "--jobs %d exits 0 (%s)" jobs msg) 0 status;
    match Result.map (Util.Jsonx.member "cache") (Util.Jsonx.parse contents) with
    | Ok (Some c) -> Util.Jsonx.to_string c
    | _ -> Alcotest.failf "--jobs %d: run report has no cache section" jobs
  in
  Alcotest.(check string) "cache section at --jobs 2 = at --jobs 1" (cache 1) (cache 2)

let suite =
  List.map rejects
    [
      ("--scale", [ "workload"; "MM"; "--scale=0" ]);
      ("--scale", [ "workload"; "MM"; "--scale=-1" ]);
      ("--scale", [ "workload"; "MM"; "--scale"; "nan" ]);
      ("--scale", [ "workload"; "MM"; "--scale=inf" ]);
      ("--scale", [ "csv"; "fig1"; "--scale=0" ]);
      ("--ranks", [ "workload"; "cg"; "--ranks=-3" ]);
      ("--ranks", [ "workload"; "cg"; "--ranks"; "0" ]);
      ("--budget", [ "workload"; "MM"; "--budget=0" ]);
      ("--budget", [ "workload"; "MM"; "--budget=-5" ]);
      (* An MPI app has no measured stream to cut. *)
      ("--budget", [ "workload"; "cg"; "--budget"; "1000" ]);
    ]
  @ List.map unwritable
    [
      ("run report", "sub/r.json", [ "csv"; "fig5"; "--scale"; "0.05"; "--report"; "sub/r.json" ]);
      ("trace", "t.json", [ "run"; "table1"; "--report"; ""; "--trace"; "t.json" ]);
      ( "telemetry",
        "tel",
        [ "workload"; "MM"; "--scale"; "0.05"; "--report"; ""; "--telemetry"; "tel" ] );
      ("history", "h.jsonl", [ "history"; "record"; "--history"; "h.jsonl"; "REPORT" ]);
      ( "fidelity report",
        "v.json",
        [
          "validate"; "--figures"; "1"; "--results"; "../results"; "--expectations";
          "../results/paper-expectations.json"; "--run-report"; ""; "--report"; "v.json";
        ] );
    ]
  @ [
      Alcotest.test_case "fig1 trace-cache counts equal at --jobs 1 and 2" `Quick
        test_trace_cache_jobs_independent;
    ]
