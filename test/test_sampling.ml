(* Tests for the sampled-simulation engine: policy parsing, the interval
   schedule, estimate arithmetic, and the central correctness property —
   [Sampled] with [detail_every = 1] reproduces a [Full] run's cycle
   count bit-for-bit on both core models. *)

module P = Sampling.Policy
module I = Sampling.Interval
module E = Sampling.Estimate
module Cat = Platform.Catalog
module Mb = Workloads.Microbench

(* ------------------------------------------------------------- policy *)

let test_policy_parse () =
  Alcotest.(check bool) "full" true (P.of_string "full" = Ok P.Full);
  Alcotest.(check bool) "default" true (P.of_string "default" = Ok P.default_sampled);
  Alcotest.(check bool) "sampled alias" true (P.of_string "sampled" = Ok P.default_sampled);
  Alcotest.(check bool) "explicit" true
    (P.of_string "interval=200,detail=4,warmup=50"
    = Ok (P.Sampled { interval = 200; detail_every = 4; warmup = 50 }));
  (* a subset of keys keeps the default for the rest *)
  (match (P.of_string "detail=3", P.default_sampled) with
  | Ok (P.Sampled { interval; detail_every; warmup }), P.Sampled d ->
    Alcotest.(check int) "detail overridden" 3 detail_every;
    Alcotest.(check int) "interval default" d.interval interval;
    Alcotest.(check int) "warmup default" d.warmup warmup
  | _ -> Alcotest.fail "subset spec did not parse");
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "unknown key" true (is_error (P.of_string "intervl=5"));
  Alcotest.(check bool) "bad value" true (is_error (P.of_string "interval=xyz"));
  Alcotest.(check bool) "invalid knobs" true (is_error (P.of_string "interval=0"));
  Alcotest.(check bool) "warmup > interval" true
    (is_error (P.of_string "interval=100,warmup=200"))

let test_policy_roundtrip () =
  List.iter
    (fun p ->
      match P.of_string (P.to_string p) with
      | Ok p' -> Alcotest.(check bool) (P.to_string p) true (p = p')
      | Error e -> Alcotest.fail e)
    [ P.Full; P.default_sampled; P.Sampled { interval = 77; detail_every = 3; warmup = 12 } ]

let test_policy_validate () =
  P.validate P.Full;
  P.validate P.default_sampled;
  let rejects p = Alcotest.check_raises "rejected" (Invalid_argument "") (fun () ->
      try P.validate p with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  rejects (P.Sampled { interval = 0; detail_every = 1; warmup = 0 });
  rejects (P.Sampled { interval = 100; detail_every = 0; warmup = 0 });
  rejects (P.Sampled { interval = 100; detail_every = 2; warmup = -1 });
  rejects (P.Sampled { interval = 100; detail_every = 2; warmup = 101 })

(* ----------------------------------------------------------- schedule *)

(* Stratified selection: exactly one detailed interval per consecutive
   group of [detail_every], at an in-range offset. *)
let prop_one_detailed_per_stratum =
  QCheck.Test.make ~name:"one detailed interval per stratum" ~count:200
    QCheck.(pair (int_range 1 20) (int_range 0 500))
    (fun (detail_every, group) ->
      let base = group * detail_every in
      let hits = ref 0 in
      for i = base to base + detail_every - 1 do
        if I.detailed ~detail_every i then incr hits
      done;
      let off = I.stratum_offset ~detail_every group in
      !hits = 1 && off >= 0 && off < detail_every)

(* [Interval.segment] is the one definition of the schedule the driver
   walks: from any position, its end bounds a non-empty run of constant
   mode that never crosses an interval boundary. *)
let prop_segment_constant =
  QCheck.Test.make ~name:"segment: constant mode over [p, end)" ~count:300
    QCheck.(quad (int_range 1 200) (int_range 1 12) (int_range 0 100) (int_range 0 20_000))
    (fun (interval, detail_every, warmup_pct, p) ->
      let warmup = interval * warmup_pct / 100 in
      let mode, e = I.segment ~interval ~detail_every ~warmup p in
      let constant = ref (e > p && e <= ((p / interval) + 1) * interval) in
      for q = p to e - 1 do
        if I.mode_of ~interval ~detail_every ~warmup q <> mode then constant := false
      done;
      !constant)

let test_mode_of_schedule () =
  let interval = 100 and detail_every = 4 and warmup = 30 in
  let mode = I.mode_of ~interval ~detail_every ~warmup in
  (* interval 0 carries the cold-start transient: always Warmup *)
  Alcotest.(check string) "interval 0" "warmup" (I.mode_name (mode 0));
  Alcotest.(check string) "interval 0 end" "warmup" (I.mode_name (mode 99));
  (* find a detailed interval beyond 0 and check its window *)
  let idx = ref 1 in
  while not (I.detailed ~detail_every !idx) do incr idx done;
  let d = !idx in
  Alcotest.(check string) "detailed interval" "detailed" (I.mode_name (mode (d * interval)));
  if d > 1 then begin
    Alcotest.(check string) "warmup window before" "warmup"
      (I.mode_name (mode ((d * interval) - 1)));
    Alcotest.(check string) "warming before window" "warming"
      (I.mode_name (mode ((d * interval) - warmup - 1)))
  end;
  Alcotest.(check int) "index_of" d (I.index_of ~interval (d * interval))

let test_detail_every_one_all_detailed () =
  for i = 0 to 50 do
    Alcotest.(check bool) "detailed" true (I.detailed ~detail_every:1 i)
  done

(* ----------------------------------------------------------- estimate *)

let test_estimate_exact () =
  let e = E.exact ~policy:P.Full ~cycles:1000 ~insns:400 in
  Alcotest.(check int) "cycles" 1000 e.E.est_cycles;
  Alcotest.(check (float 1e-9)) "no CI" 0.0 e.E.ci95_cycles;
  Alcotest.(check (float 1e-9)) "rel_ci" 0.0 (E.rel_ci e);
  Alcotest.(check (float 1e-9)) "cpi" 2.5 (E.cpi e);
  Alcotest.(check (float 1e-9)) "all detailed" 1.0 (E.detail_fraction e);
  Alcotest.(check (float 1e-12)) "seconds" 1e-6 (E.seconds ~freq_hz:1e9 e)

let test_accuracy_compare () =
  let e = E.exact ~policy:P.Full ~cycles:1050 ~insns:400 in
  let c = Sampling.Accuracy.compare ~full_cycles:1000 e in
  Alcotest.(check (float 1e-9)) "rel err" 0.05 c.Sampling.Accuracy.rel_err;
  Alcotest.(check bool) "within 10%" true (Sampling.Accuracy.within_tolerance ~tol:0.10 c);
  Alcotest.(check bool) "not within 1%" false (Sampling.Accuracy.within_tolerance ~tol:0.01 c)

(* ---------------------------------------------- detail_every=1 exact *)

(* The central property: with [detail_every = 1] every interval runs
   through the detailed model, so the sampled engine is the identity and
   the cycle count matches a [Full] run exactly.  (The kernels run
   without their setup streams — setup handling is policy-dependent by
   design: a sampled run warms it functionally.) *)
let exact_kernels = [ "Cca"; "CCh"; "EI"; "MD"; "DP1d"; "STc" ]

let run_cycles ?(scale = 0.1) policy platform name =
  let k = { (Mb.find name) with Workloads.Workload.setup = None } in
  (Simbridge.Runner.run_kernel_timed ~scale ~policy platform k)
    .Simbridge.Runner.result.Platform.Soc.cycles

let test_detail_every_one_exact () =
  List.iter
    (fun platform ->
      List.iter
        (fun name ->
          let full = run_cycles P.Full platform name in
          let sampled =
            run_cycles (P.Sampled { interval = 200; detail_every = 1; warmup = 50 }) platform name
          in
          Alcotest.(check int)
            (Printf.sprintf "%s on %s" name platform.Platform.Config.name)
            full sampled)
        exact_kernels)
    [ Cat.banana_pi_sim; Cat.milkv_sim ]

(* Same property under random interval geometry, on both core models
   (banana-pi-sim is in-order Rocket-like, milkv-sim an OoO BOOM). *)
let prop_detail_every_one_exact =
  QCheck.Test.make ~name:"detail_every=1 cycle-exact vs Full (both core models)" ~count:12
    QCheck.(triple (int_range 0 (List.length exact_kernels - 1)) (int_range 50 600) (int_range 0 50))
    (fun (ki, interval, warmup) ->
      let warmup = min warmup interval in
      let name = List.nth exact_kernels ki in
      let policy = P.Sampled { interval; detail_every = 1; warmup } in
      List.for_all
        (fun platform ->
          run_cycles P.Full platform name = run_cycles policy platform name)
        [ Cat.banana_pi_sim; Cat.milkv_sim ])

(* ------------------------------------------------- sampled estimates *)

let test_sampled_estimate_close_and_bounded () =
  (* The default policy's estimate lands within a few percent of the
     full run on a steady-state kernel, with a CPI-based CI attached. *)
  let k = Mb.find "ML2" in
  let full =
    (Simbridge.Runner.run_kernel_timed ~scale:0.5 ~policy:P.Full Cat.banana_pi_sim k)
      .Simbridge.Runner.result.Platform.Soc.cycles
  in
  let t = Simbridge.Runner.run_kernel_timed ~scale:0.5 ~policy:P.default_sampled Cat.banana_pi_sim k in
  let c = Sampling.Accuracy.compare ~full_cycles:full t.Simbridge.Runner.estimate in
  Alcotest.(check bool)
    (Printf.sprintf "rel err %.4f <= 0.05" c.Sampling.Accuracy.rel_err)
    true
    (Sampling.Accuracy.within_tolerance ~tol:0.05 c);
  let e = t.Simbridge.Runner.estimate in
  Alcotest.(check bool) "complete" true e.E.complete;
  Alcotest.(check bool) "detail fraction < 0.5" true (E.detail_fraction e < 0.5);
  Alcotest.(check int) "insn split" e.E.total_insns
    (e.E.detailed_insns + e.E.warmup_insns + e.E.warmed_insns)

let test_budget_stops_early () =
  let k = { (Mb.find "ML2") with Workloads.Workload.setup = None } in
  let t =
    Simbridge.Runner.run_kernel_timed ~scale:0.5 ~policy:P.default_sampled ~budget:5_000
      Cat.banana_pi_sim k
  in
  let e = t.Simbridge.Runner.estimate in
  Alcotest.(check bool) "incomplete" false e.E.complete;
  (* traversal stops at the first interval boundary at or past the budget *)
  Alcotest.(check int) "stopped at boundary" 5_000 e.E.total_insns

let test_report_renders () =
  let t = Simbridge.Runner.run_kernel_timed ~scale:0.2 ~policy:P.default_sampled Cat.banana_pi_sim
      (Mb.find "Cca")
  in
  let e = t.Simbridge.Runner.estimate in
  Alcotest.(check bool) "summary nonempty" true (String.length (Sampling.Report.summary e) > 10);
  Alcotest.(check bool) "multi-line" true (List.length (Sampling.Report.lines e) >= 4)

let test_telemetry_counters () =
  let reg = Telemetry.Registry.create () in
  let _ =
    Simbridge.Runner.run_kernel_timed ~scale:0.2 ~telemetry:reg ~policy:P.default_sampled
      Cat.banana_pi_sim (Mb.find "ML2")
  in
  let get name =
    match Telemetry.Registry.find_counter reg name with
    | Some v -> v
    | None -> Alcotest.fail ("missing counter " ^ name)
  in
  Alcotest.(check int) "insn split counters"
    (get "sampling.insns.total")
    (get "sampling.insns.detailed" + get "sampling.insns.warmup" + get "sampling.insns.warmed");
  Alcotest.(check bool) "detailed intervals > 0" true (get "sampling.intervals.detailed" > 0);
  Alcotest.(check bool) "warmed intervals > 0" true (get "sampling.intervals.warmed" > 0);
  (* simulated-work speedup: most instructions skipped the timing model *)
  Alcotest.(check bool) "speedup > 2x" true (get "sampling.speedup_x100" > 200)

(* --------------------------------------------------------------- seed *)

let with_seed seed f =
  let saved = Util.Rng.get_global_seed () in
  Fun.protect ~finally:(fun () -> Util.Rng.set_global_seed saved) (fun () ->
      Util.Rng.set_global_seed seed;
      f ())

(* CCh's branch outcomes flow through Rng.salted, so the global seed
   reshapes its timing; the same seed must reproduce it bit-identically. *)
let test_seed_override () =
  let cycles () =
    (Simbridge.Runner.run_kernel ~scale:0.25 Cat.banana_pi_sim (Mb.find "CCh"))
      .Platform.Soc.cycles
  in
  let base = with_seed 0 cycles in
  let s7 = with_seed 7 cycles in
  let s7' = with_seed 7 cycles in
  let s13 = with_seed 13 cycles in
  Alcotest.(check int) "same seed bit-identical" s7 s7';
  Alcotest.(check bool) "seed 7 differs from seed 0" true (s7 <> base);
  Alcotest.(check bool) "seed 13 differs from seed 7" true (s13 <> s7)

let suite =
  [
    Alcotest.test_case "policy parse" `Quick test_policy_parse;
    Alcotest.test_case "policy roundtrip" `Quick test_policy_roundtrip;
    Alcotest.test_case "policy validate" `Quick test_policy_validate;
    QCheck_alcotest.to_alcotest prop_one_detailed_per_stratum;
    Alcotest.test_case "interval schedule modes" `Quick test_mode_of_schedule;
    QCheck_alcotest.to_alcotest prop_segment_constant;
    Alcotest.test_case "detail_every=1 selects all" `Quick test_detail_every_one_all_detailed;
    Alcotest.test_case "exact estimate" `Quick test_estimate_exact;
    Alcotest.test_case "accuracy compare" `Quick test_accuracy_compare;
    Alcotest.test_case "detail_every=1 exact (6 kernels, 2 cores)" `Quick
      test_detail_every_one_exact;
    QCheck_alcotest.to_alcotest prop_detail_every_one_exact;
    Alcotest.test_case "sampled estimate close + bounded" `Quick
      test_sampled_estimate_close_and_bounded;
    Alcotest.test_case "budget stops early" `Quick test_budget_stops_early;
    Alcotest.test_case "report renders" `Quick test_report_renders;
    Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
    Alcotest.test_case "seed override" `Quick test_seed_override;
  ]
