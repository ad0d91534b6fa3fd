(* Tests for the telemetry subsystem: registry semantics, trace ring
   bounds, exporter formats, host-policy invariance of telemetry, and
   consistency of published counters with Soc.result aggregates. *)

module Reg = Telemetry.Registry
module Trace = Telemetry.Trace

let test_counter_basics () =
  let reg = Reg.create ~trace_capacity:0 () in
  let c = Reg.counter reg "a.b" in
  Reg.incr c;
  Reg.add c 4;
  Alcotest.(check int) "value" 5 (Reg.value c);
  let c' = Reg.counter reg "a.b" in
  Reg.incr c';
  Alcotest.(check int) "find-or-create shares the cell" 6 (Reg.value c);
  Reg.set_all reg [ ("a.b", 10); ("z", 1) ];
  Alcotest.(check (list (pair string int))) "sorted listing" [ ("a.b", 10); ("z", 1) ]
    (Reg.counters reg);
  Alcotest.(check (option int)) "find" (Some 10) (Reg.find_counter reg "a.b");
  Alcotest.(check (option int)) "find missing" None (Reg.find_counter reg "nope")

let test_histogram_stats () =
  let reg = Reg.create ~trace_capacity:0 () in
  let h = Reg.histogram reg "lat" in
  List.iter (fun v -> Reg.observe h v) [ 4.0; 1.0; 3.0; 2.0; 5.0 ];
  let s = Reg.hist_stats h in
  Alcotest.(check int) "count" 5 s.Reg.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Reg.mean;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Reg.p50;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Reg.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Reg.max;
  Alcotest.(check int) "one histogram listed" 1 (List.length (Reg.histograms reg))

let test_disabled_sink_is_inert () =
  let reg = Reg.disabled in
  let c = Reg.counter reg "x" in
  Reg.incr c;
  let h = Reg.histogram reg "y" in
  Reg.observe h 1.0;
  let ph = Reg.phase_start reg "p" in
  Reg.phase_end reg ph ~ts:100 ();
  Trace.record (Reg.trace reg)
    { Trace.name = "e"; cat = "c"; ph = 'i'; ts = 0; dur = 0; tid = 0; args = [] };
  Alcotest.(check bool) "not enabled" false (Reg.enabled reg);
  Alcotest.(check (list (pair string int))) "no counters registered" [] (Reg.counters reg);
  Alcotest.(check int) "no histograms registered" 0 (List.length (Reg.histograms reg));
  Alcotest.(check int) "no phases recorded" 0 (List.length (Reg.phases reg));
  Alcotest.(check int) "no trace events" 0 (Trace.length (Reg.trace reg))

let ev name ts = { Trace.name; cat = "t"; ph = 'i'; ts; dur = 0; tid = 0; args = [] }

let test_trace_ring_bound () =
  let tr = Trace.create ~capacity:4 in
  for i = 1 to 10 do
    Trace.record tr (ev (string_of_int i) i)
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length tr);
  Alcotest.(check int) "drops counted" 6 (Trace.dropped tr);
  Alcotest.(check (list string)) "keeps newest, oldest first" [ "7"; "8"; "9"; "10" ]
    (List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.to_list tr))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_export_summary_and_csv () =
  let reg = Reg.create ~trace_capacity:16 () in
  Reg.set_all reg [ ("cache.l1d.misses", 42) ];
  Reg.observe (Reg.histogram reg "smpi.msg_bytes") 128.0;
  let ph = Reg.phase_start reg "measure" in
  Reg.phase_end reg ph ~ts:1000 ();
  let s = Telemetry.Export.summary reg in
  List.iter
    (fun needle -> Alcotest.(check bool) ("summary has " ^ needle) true (contains ~needle s))
    [ "== counters =="; "== histograms =="; "== phases =="; "cache.l1d.misses"; "smpi.msg_bytes"; "measure" ];
  let csv = Telemetry.Export.to_csv reg in
  Alcotest.(check bool) "csv header" true (contains ~needle:"kind,name,field,value" csv);
  Alcotest.(check bool) "csv counter row" true
    (contains ~needle:"counter,cache.l1d.misses,value,42" csv);
  Alcotest.(check bool) "csv histogram count row" true
    (contains ~needle:"histogram,smpi.msg_bytes,count,1" csv);
  Alcotest.(check bool) "csv phase row" true
    (contains ~needle:"phase,measure,target_cycles,1000" csv)

let test_chrome_trace_json () =
  let module J = Util.Jsonx in
  let reg = Reg.create ~trace_capacity:16 () in
  Trace.record (Reg.trace reg)
    {
      Trace.name = "odd \"name\"\n";
      cat = "smpi";
      ph = 'X';
      ts = 5;
      dur = 7;
      tid = 3;
      args = [ ("bytes", Trace.Int 64); ("note", Trace.Str "a\\b"); ("ratio", Trace.Float 0.25) ];
    };
  let json = Telemetry.Export.chrome_trace reg in
  Alcotest.(check bool) "escapes quotes" true (contains ~needle:"odd \\\"name\\\"\\n" json);
  Alcotest.(check bool) "escapes backslash" true (contains ~needle:"a\\\\b" json);
  let events =
    match J.parse json with
    | Error msg -> Alcotest.failf "trace is not JSON: %s" msg
    | Ok doc -> (
      Alcotest.(check (option string)) "display unit" (Some "ms")
        (Option.bind (J.member "displayTimeUnit" doc) J.to_str);
      match Option.bind (J.member "traceEvents" doc) J.to_list with
      | Some events -> events
      | None -> Alcotest.fail "no traceEvents array")
  in
  (* the process-name metadata event, then the recorded one (the
     registry has no counters, so no final counter samples follow) *)
  Alcotest.(check int) "event count" 2 (List.length events);
  Alcotest.(check (option string)) "metadata first" (Some "M")
    (Option.bind (J.member "ph" (List.hd events)) J.to_str);
  let ev = List.nth events 1 in
  let str k = Option.bind (J.member k ev) J.to_str and int k = Option.bind (J.member k ev) J.to_int in
  Alcotest.(check (option string)) "name" (Some "odd \"name\"\n") (str "name");
  Alcotest.(check (option string)) "cat" (Some "smpi") (str "cat");
  Alcotest.(check (option string)) "ph" (Some "X") (str "ph");
  Alcotest.(check (option int)) "ts" (Some 5) (int "ts");
  Alcotest.(check (option int)) "dur" (Some 7) (int "dur");
  Alcotest.(check (option int)) "tid" (Some 3) (int "tid");
  Alcotest.(check bool) "args" true
    (J.member "args" ev
    = Some (J.Obj [ ("bytes", J.Num 64.0); ("note", J.Str "a\\b"); ("ratio", J.Num 0.25) ]))

(* Published counters must agree with the run's Soc.result aggregates —
   including for kernels with a setup stream, where both are differenced
   against the post-setup state. *)
let check_consistency kernel_name =
  let reg = Reg.create () in
  let r =
    Simbridge.Runner.run_kernel ~scale:0.05 ~telemetry:reg Platform.Catalog.banana_pi_sim
      (Workloads.Microbench.find kernel_name)
  in
  let counter name = Option.get (Reg.find_counter reg name) in
  Alcotest.(check int) "l1d accesses" r.Platform.Soc.l1d_accesses (counter "cache.l1d.accesses");
  Alcotest.(check int) "l1d misses" r.Platform.Soc.l1d_misses (counter "cache.l1d.misses");
  Alcotest.(check int) "l2 accesses" r.Platform.Soc.l2_accesses (counter "cache.l2.accesses");
  Alcotest.(check int) "l2 misses" r.Platform.Soc.l2_misses (counter "cache.l2.misses");
  Alcotest.(check int) "dram requests" r.Platform.Soc.dram_requests (counter "dram.requests");
  Alcotest.(check int) "tlb walks" r.Platform.Soc.tlb_walks
    (counter "tlb.dtlb.walks" + counter "tlb.itlb.walks");
  Alcotest.(check int) "instructions" r.Platform.Soc.instructions (counter "core.instructions");
  (* Per-channel DRAM counters decompose the aggregate. *)
  let nchans = Platform.Catalog.banana_pi_sim.Platform.Config.dram.Dram.channels in
  let sum_chans field =
    List.fold_left ( + ) 0
      (List.init nchans (fun i -> counter (Printf.sprintf "dram.chan%d.%s" i field)))
  in
  Alcotest.(check int) "per-channel requests sum" (counter "dram.requests") (sum_chans "requests");
  Alcotest.(check int) "per-channel row_hits sum" (counter "dram.row_hits") (sum_chans "row_hits")

let test_counters_match_result_no_setup () = check_consistency "MM"
let test_counters_match_result_with_setup () = check_consistency "Cca"

let test_disabled_telemetry_does_not_perturb () =
  let kernel = Workloads.Microbench.find "MM" in
  let run telemetry =
    Simbridge.Runner.run_kernel ~scale:0.05 ~telemetry Platform.Catalog.banana_pi_sim kernel
  in
  let off = run Reg.disabled in
  let on_ = run (Reg.create ()) in
  Alcotest.(check int) "cycles identical" off.Platform.Soc.cycles on_.Platform.Soc.cycles;
  Alcotest.(check int) "instructions identical" off.Platform.Soc.instructions
    on_.Platform.Soc.instructions;
  Alcotest.(check int) "dram identical" off.Platform.Soc.dram_requests
    on_.Platform.Soc.dram_requests

let test_app_telemetry_histograms () =
  let reg = Reg.create () in
  let r =
    Simbridge.Runner.run_app ~scale:0.1 ~telemetry:reg ~ranks:2 Platform.Catalog.banana_pi_sim
      Workloads.Npb.cg
  in
  let comm = Option.get r.Platform.Soc.comm in
  Alcotest.(check (option int)) "smpi.messages counter" (Some comm.Smpi.messages)
    (Reg.find_counter reg "smpi.messages");
  Alcotest.(check (option int)) "smpi.collectives counter" (Some comm.Smpi.collectives)
    (Reg.find_counter reg "smpi.collectives");
  (match List.assoc_opt "smpi.coll_wait_cycles" (Reg.histograms reg) with
  | None -> Alcotest.fail "expected smpi.coll_wait_cycles histogram"
  | Some s ->
    (* Every rank waits at every collective. *)
    Alcotest.(check int) "collective waits observed" (2 * comm.Smpi.collectives) s.Reg.count);
  Alcotest.(check bool) "smpi trace events recorded" true (Trace.length (Reg.trace reg) > 0)

(* The smpi engine builds its trace events only for a live ring; a live
   ring still records every communication op, named as before. *)
let test_smpi_event_names () =
  let alu n =
    Smpi.Compute (Seq.init n (fun i -> Isa.Insn.make ~dst:5 ~src1:5 ~pc:(i * 4) Isa.Insn.Int_alu))
  in
  let program =
    [|
      [
        alu 20;
        Smpi.Comm (Smpi.Send { dst = 1; bytes = 256; tag = 0 });
        Smpi.Comm (Smpi.Sendrecv { peer = 1; send_bytes = 64; recv_bytes = 32; tag = 1 });
        Smpi.Comm (Smpi.Bcast { root = 0; bytes = 128 });
        Smpi.Comm (Smpi.Allreduce { bytes = 64 });
        Smpi.Comm Smpi.Barrier;
      ];
      [
        Smpi.Comm (Smpi.Recv { src = 0; bytes = 256; tag = 0 });
        alu 10;
        Smpi.Comm (Smpi.Sendrecv { peer = 0; send_bytes = 32; recv_bytes = 64; tag = 1 });
        Smpi.Comm (Smpi.Bcast { root = 0; bytes = 128 });
        Smpi.Comm (Smpi.Allreduce { bytes = 64 });
        Smpi.Comm Smpi.Barrier;
      ];
    |]
  in
  let run telemetry =
    let soc = Platform.Soc.create Platform.Catalog.banana_pi_sim in
    let r = Platform.Soc.run_ranks ~telemetry soc program in
    Platform.Soc.release soc;
    r
  in
  let reg = Reg.create () in
  let r = run reg in
  let events =
    List.map
      (fun (e : Trace.event) ->
        let bytes = match List.assoc_opt "bytes" e.args with Some (Trace.Int b) -> b | _ -> 0 in
        Printf.sprintf "%d %s %s %dB" e.tid e.cat e.name bytes)
      (Trace.to_list (Reg.trace reg))
  in
  Alcotest.(check (list string)) "events (lane, category, name, bytes)"
    [
      "0 smpi send->1 256B";
      "1 smpi recv<-0 256B";
      "0 smpi send->1 64B";
      "1 smpi send->0 32B";
      "0 smpi recv<-1 32B";
      "1 smpi recv<-0 64B";
      "1 smpi bcast(root=0,128B) 128B";
      "0 smpi bcast(root=0,128B) 128B";
      "0 smpi allreduce(64B) 128B";
      "1 smpi allreduce(64B) 128B";
      "1 smpi barrier 0B";
      "0 smpi barrier 0B";
    ]
    events;
  Alcotest.(check bool) "same result without telemetry" true (run Reg.disabled = r);
  Alcotest.(check int) "disabled sink records nothing" 0 (Trace.length (Reg.trace Reg.disabled))

let test_runner_phases () =
  let reg = Reg.create () in
  let r =
    Simbridge.Runner.run_kernel ~scale:0.05 ~telemetry:reg Platform.Catalog.banana_pi_sim
      (Workloads.Microbench.find "Cca")
  in
  match Reg.phases reg with
  | [ setup; measure ] ->
    Alcotest.(check string) "setup phase" "setup" setup.Reg.ph_name;
    Alcotest.(check string) "measure phase" "measure" measure.Reg.ph_name;
    Alcotest.(check int) "phases abut" setup.Reg.ph_ts1 measure.Reg.ph_ts0;
    Alcotest.(check int) "measure spans the result" r.Platform.Soc.cycles
      (measure.Reg.ph_ts1 - measure.Reg.ph_ts0)
  | ps -> Alcotest.failf "expected setup+measure, got %d phases" (List.length ps)

let test_export_write_files () =
  let reg = Reg.create () in
  Reg.set_all reg [ ("k", 1) ];
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "simbridge_telemetry_test" in
  Telemetry.Export.write reg ~dir;
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " written") true (Sys.file_exists (Filename.concat dir f)))
    [ "telemetry.txt"; "telemetry.csv"; "trace.json" ]

let test_export_write_nested_dirs () =
  (* Regression: Export.write must create every missing parent, not
     just the leaf — `--telemetry results/telemetry/run1` used to fail
     when `results/telemetry` didn't exist yet. *)
  let reg = Reg.create () in
  Reg.set_all reg [ ("k", 1) ];
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "simbridge_nested_%d" (Unix.getpid ()))
  in
  let dir = Filename.concat (Filename.concat base "a") "b" in
  Alcotest.(check bool) "parents absent beforehand" false (Sys.file_exists base);
  Telemetry.Export.write reg ~dir;
  Alcotest.(check bool) "nested dir created" true
    (Sys.file_exists (Filename.concat dir "telemetry.txt"));
  (* second write over the same tree must be idempotent *)
  Telemetry.Export.write reg ~dir;
  List.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    [ "telemetry.txt"; "telemetry.csv"; "trace.json" ];
  Unix.rmdir dir;
  Unix.rmdir (Filename.concat base "a");
  Unix.rmdir base

let test_summary_warns_on_dropped_events () =
  let reg = Reg.create ~trace_capacity:2 () in
  for i = 1 to 5 do
    Trace.record (Reg.trace reg) (ev (string_of_int i) i)
  done;
  let s = Telemetry.Export.summary reg in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "warning present" true (contains "WARNING: 3 trace events dropped" s);
  Alcotest.(check bool) "mentions --trace-capacity" true (contains "--trace-capacity" s);
  let quiet = Telemetry.Export.summary (Reg.create ~trace_capacity:16 ()) in
  Alcotest.(check bool) "no warning without drops" false (contains "WARNING" quiet)

let test_span_basics () =
  let reg = Reg.create () in
  (* Without a root, spans are inert: callers that never opened one
     (e.g. the deterministic-merge tests) see no trace events. *)
  Reg.span_with reg "orphan" (fun () -> ());
  Alcotest.(check int) "no orphan span recorded" 0 (Trace.length (Reg.trace reg));
  let out =
    Reg.span_with reg ~root:true "outer" (fun () ->
        Reg.span_with reg ~args:[ ("k", Trace.Int 7) ] "inner" (fun () -> 42))
  in
  Alcotest.(check int) "body result returned" 42 out;
  let spans = List.filter (fun e -> e.Trace.cat = "span") (Trace.to_list (Reg.trace reg)) in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let find name = List.find (fun e -> e.Trace.name = name) spans in
  let id e = match List.assoc "span" e.Trace.args with Trace.Str s -> s | _ -> "?" in
  let parent e = match List.assoc "parent" e.Trace.args with Trace.Str s -> s | _ -> "?" in
  Alcotest.(check string) "outer is a root" "" (parent (find "outer"));
  Alcotest.(check string) "inner nests under outer" (id (find "outer")) (parent (find "inner"));
  Alcotest.(check bool) "inner carries its attribute" true
    (List.assoc_opt "k" (find "inner").Trace.args = Some (Trace.Int 7));
  Alcotest.(check bool) "disabled registry spans are free" true
    (Reg.span_with Reg.disabled ~root:true "x" (fun () -> true))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
    Alcotest.test_case "disabled sink inert" `Quick test_disabled_sink_is_inert;
    Alcotest.test_case "trace ring bound" `Quick test_trace_ring_bound;
    Alcotest.test_case "export summary + csv" `Quick test_export_summary_and_csv;
    Alcotest.test_case "chrome trace json" `Quick test_chrome_trace_json;
    Alcotest.test_case "counters match result (no setup)" `Quick test_counters_match_result_no_setup;
    Alcotest.test_case "counters match result (setup)" `Quick test_counters_match_result_with_setup;
    Alcotest.test_case "disabled telemetry no perturbation" `Quick
      test_disabled_telemetry_does_not_perturb;
    Alcotest.test_case "app histograms + smpi counters" `Quick test_app_telemetry_histograms;
    Alcotest.test_case "smpi event names on a live sink" `Quick test_smpi_event_names;
    Alcotest.test_case "runner phases" `Quick test_runner_phases;
    Alcotest.test_case "export writes sidecars" `Quick test_export_write_files;
    Alcotest.test_case "export creates nested dirs" `Quick test_export_write_nested_dirs;
    Alcotest.test_case "summary warns on dropped events" `Quick test_summary_warns_on_dropped_events;
    Alcotest.test_case "span basics" `Quick test_span_basics;
  ]
