(* Tests for the Domain-based worker pool: job resolution, deterministic
   ordering/randomness/telemetry across job counts, failure propagation,
   and the pooled-equals-sequential property over real simulation cells. *)

module Pool = Parallel.Pool
module Registry = Telemetry.Registry
module Cat = Platform.Catalog
module Mb = Workloads.Microbench

let test_resolve_jobs () =
  Alcotest.(check bool) "auto >= 1" true (Pool.resolve_jobs 0 >= 1);
  Alcotest.(check int) "auto = recommended" (Pool.recommended_jobs ()) (Pool.resolve_jobs 0);
  Alcotest.(check int) "explicit passes through" 3 (Pool.resolve_jobs 3);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool.resolve_jobs: jobs must be >= 0 (0 = auto)") (fun () ->
      ignore (Pool.resolve_jobs (-1)));
  Alcotest.check_raises "negative default rejected"
    (Invalid_argument "Pool.set_default_jobs: jobs must be >= 0 (0 = auto)") (fun () ->
      Pool.set_default_jobs (-2))

let test_physical_cores () =
  (* Host-dependent, so only invariants: when /proc/cpuinfo yields a
     topology the count is a positive number no larger than the logical
     CPU count (SMT can only multiply cores, never shrink them), and
     repeated calls agree (the file doesn't change under us). *)
  match Pool.physical_cores () with
  | None -> () (* no topology exposed (non-Linux, minimal container) *)
  | Some n ->
    Alcotest.(check bool) "physical cores >= 1" true (n >= 1);
    Alcotest.(check (option int)) "stable across calls" (Some n) (Pool.physical_cores ())

let test_ordering () =
  (* Results must come back in submission order for any job count, even
     when early cells are the slowest.  Cells run on worker domains, where
     Alcotest must not be called: each records whether its context
     carries its grid index, and the flags are asserted after the join. *)
  let index_ok = Array.make 17 false in
  let cells =
    List.init 17 (fun i ->
        Pool.cell ~label:(string_of_int i) (fun ctx ->
            if i = 0 then Unix.sleepf 0.02;
            index_ok.(i) <- ctx.Pool.cell_index = i;
            i * i))
  in
  let run jobs =
    Array.fill index_ok 0 17 false;
    let results = Pool.run ~jobs cells in
    Array.iteri
      (fun i ok -> Alcotest.(check bool) (Printf.sprintf "cell %d ctx carries grid index" i) true ok)
      index_ok;
    results
  in
  let expect = List.init 17 (fun i -> i * i) in
  Alcotest.(check (list int)) "sequential" expect (run 1);
  Alcotest.(check (list int)) "pooled" expect (run 4);
  Alcotest.(check (list int)) "map keeps order" [ 2; 4; 6 ]
    (Pool.map ~jobs:4 (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "empty grid" [] (Pool.run ~jobs:4 ([] : int Pool.cell list))

exception Boom of int

let test_failure_propagation () =
  (* The lowest-indexed failure wins, sequentially and pooled. *)
  let cells jobs =
    List.init 8 (fun i ->
        Pool.cell (fun _ -> if i = 2 || i = 5 then raise (Boom i) else ignore jobs))
  in
  let first_boom jobs =
    match Pool.run ~jobs (cells jobs) with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> i
  in
  Alcotest.(check int) "sequential first failure" 2 (first_boom 1);
  Alcotest.(check int) "pooled first failure" 2 (first_boom 4)

let test_per_cell_rng () =
  (* The per-cell generator is a pure function of (global seed, index):
     identical across job counts, distinct across cells. *)
  let draws jobs = Pool.run ~jobs (List.init 6 (fun i -> Pool.cell (fun ctx ->
      ignore i;
      Util.Rng.bits64 ctx.Pool.rng)))
  in
  let seq = draws 1 in
  Alcotest.(check (list int64)) "same draws at jobs=3" seq (draws 3);
  let distinct = List.sort_uniq compare seq in
  Alcotest.(check int) "cells draw distinct streams" (List.length seq) (List.length distinct);
  Alcotest.check_raises "negative cell index"
    (Invalid_argument "Rng.for_cell: negative cell index") (fun () ->
      ignore (Util.Rng.for_cell (-1)))

let with_seed seed f =
  let saved = Util.Rng.get_global_seed () in
  Fun.protect
    ~finally:(fun () -> Util.Rng.set_global_seed saved)
    (fun () ->
      Util.Rng.set_global_seed seed;
      f ())

let test_for_cell_seed_sensitivity () =
  let first seed = with_seed seed (fun () -> Util.Rng.bits64 (Util.Rng.for_cell 3)) in
  Alcotest.check Alcotest.int64 "pure per (seed, index)" (first 7) (first 7);
  Alcotest.(check bool) "global seed re-keys cells" true (first 7 <> first 0)

let test_telemetry_merge () =
  (* Counter sums, histogram observations, phases, and trace events from
     per-cell sinks merge deterministically — identically at any jobs. *)
  let run jobs =
    let parent = Registry.create () in
    let cells =
      List.init 5 (fun i ->
          Pool.cell (fun ctx ->
              let reg = ctx.Pool.telemetry in
              Registry.add (Registry.counter reg "pool.work") (i + 1);
              Registry.observe (Registry.histogram reg "pool.size") (float_of_int i);
              let ph = Registry.phase_start reg ~ts:(10 * i) "cell" in
              Registry.phase_end reg ph ~ts:((10 * i) + 5) ()))
    in
    ignore (Pool.run ~jobs ~telemetry:parent cells : unit list);
    parent
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check (option int)) "counters sum" (Some 15) (Registry.find_counter seq "pool.work");
  Alcotest.(check (option int)) "pooled counters identical"
    (Registry.find_counter seq "pool.work")
    (Registry.find_counter par "pool.work");
  let phase_names r = List.map (fun p -> p.Registry.ph_ts0) (Registry.phases r) in
  Alcotest.(check (list int)) "phases in cell order" [ 0; 10; 20; 30; 40 ] (phase_names seq);
  Alcotest.(check (list int)) "pooled phases identical" (phase_names seq) (phase_names par);
  let trace_ts r = List.map (fun (e : Telemetry.Trace.event) -> e.ts) (Telemetry.Trace.to_list (Registry.trace r)) in
  Alcotest.(check (list int)) "trace events in cell order" (trace_ts seq) (trace_ts par);
  match (Registry.histograms seq, Registry.histograms par) with
  | [ (ns, hs) ], [ (np, hp) ] ->
    Alcotest.(check string) "histogram name" "pool.size" ns;
    Alcotest.(check string) "same name pooled" ns np;
    Alcotest.(check int) "all observations merged" 5 hs.Registry.count;
    Alcotest.(check (float 1e-9)) "same sum" hs.Registry.sum hp.Registry.sum
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_fork_disabled () =
  Alcotest.(check bool) "fork of disabled is disabled" false
    (Registry.enabled (Registry.fork Registry.disabled));
  (* Merging into the disabled sink must not register anything. *)
  let child = Registry.create () in
  Registry.add (Registry.counter child "x") 1;
  Registry.merge ~into:Registry.disabled child;
  Alcotest.(check (option int)) "disabled untouched" None
    (Registry.find_counter Registry.disabled "x")

let test_shared_permutation_domains () =
  (* The permutation memo is domain-local: concurrent domains replaying
     the same seeded stream get equal arrays and equal post-call state. *)
  let reference = Util.Rng.permutation (Util.Rng.create 42) 1000 in
  let worker () =
    let rng = Util.Rng.create 42 in
    let p = Util.Rng.shared_permutation rng 1000 in
    (* A second call from the same domain must hit its local memo. *)
    let p2 = Util.Rng.shared_permutation (Util.Rng.create 42) 1000 in
    (p = reference && p2 == p, Util.Rng.bits64 rng)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let results = List.map Domain.join domains in
  let follow_on =
    let rng = Util.Rng.create 42 in
    ignore (Util.Rng.permutation rng 1000);
    Util.Rng.bits64 rng
  in
  List.iter
    (fun (ok, next) ->
      Alcotest.(check bool) "permutation identical in every domain" true ok;
      Alcotest.check Alcotest.int64 "state advance matches non-memoized" follow_on next)
    results

(* Pooled execution of a randomized cell list must return exactly the
   sequential results — result records, completeness flags, and the
   merged telemetry counters — both in full and under a budget that cuts
   EI and MD short and leaves Cca and CCh whole. *)
let prop_pool_equals_sequential =
  let open QCheck in
  let kernel_names = [ "EI"; "Cca"; "MD"; "CCh" ] in
  let platforms = [ Cat.banana_pi_sim; Cat.milkv_sim; Cat.banana_pi_hw ] in
  let spec_gen =
    Gen.(
      pair bool
        (list_size (int_range 2 6)
           (pair (oneofl kernel_names) (int_range 0 (List.length platforms - 1)))))
  in
  let print (budgeted, cells) =
    Printf.sprintf "%s [%s]"
      (if budgeted then "budgeted" else "full")
      (String.concat "; " (List.map (fun (k, p) -> Printf.sprintf "%s@%d" k p) cells))
  in
  Test.make ~name:"pooled grid = sequential grid (Full and budgeted)" ~count:6 (make ~print spec_gen)
    (fun (budgeted, cells) ->
      let budget = if budgeted then Some 3_000 else None in
      let grid = List.map (fun (kname, pidx) -> (List.nth platforms pidx, Mb.find kname)) cells in
      let run jobs =
        let reg = Registry.create () in
        let timed = Simbridge.Runner.run_kernel_grid ~scale:0.05 ?budget ~jobs ~telemetry:reg grid in
        ( List.map (fun t -> (t.Simbridge.Runner.result, t.Simbridge.Runner.complete)) timed,
          Registry.counters reg,
          List.length (Registry.phases reg) )
      in
      run 3 = run 1)

let suite =
  [
    Alcotest.test_case "resolve jobs" `Quick test_resolve_jobs;
    Alcotest.test_case "physical cores" `Quick test_physical_cores;
    Alcotest.test_case "deterministic ordering" `Quick test_ordering;
    Alcotest.test_case "failure propagation" `Quick test_failure_propagation;
    Alcotest.test_case "per-cell rng" `Quick test_per_cell_rng;
    Alcotest.test_case "for_cell seed sensitivity" `Quick test_for_cell_seed_sensitivity;
    Alcotest.test_case "telemetry merge" `Quick test_telemetry_merge;
    Alcotest.test_case "fork disabled" `Quick test_fork_disabled;
    Alcotest.test_case "shared_permutation across domains" `Quick test_shared_permutation_domains;
    QCheck_alcotest.to_alcotest prop_pool_equals_sequential;
  ]
