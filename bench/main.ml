(* The benchmark harness: regenerates every table and figure of the paper
   and times the simulator's own components with Bechamel.

     dune exec bench/main.exe              # everything: tables, figures,
                                           # runtimes, ablations, sim-rate,
                                           # then the Bechamel suites
     dune exec bench/main.exe -- fig1      # one experiment
     dune exec bench/main.exe -- bechamel  # only the Bechamel suites
     dune exec bench/main.exe -- budget    # budgeted fast-mode acceptance gate
     dune exec bench/main.exe -- parallel  # worker-pool acceptance gate
     dune exec bench/main.exe -- perf      # replay gate: identity + host MIPS
                                           # (BENCH_perf.json, run-report.json)
     dune exec bench/main.exe -- perf-identity  # identity half only (CI smoke)
     dune exec bench/main.exe -- soc-reuse # heap flat over 3,000 cold cells

   Experiment ids: table1-5, fig1-7, runtimes, ablate-l1, ablate-clock,
   ablate-bus, simrate. *)

module J = Util.Jsonx

let run_experiment id =
  match List.find_opt (fun (i, _, _) -> i = id) Simbridge.Experiments.all with
  | Some (_, descr, render) ->
    Printf.printf "=== %s: %s ===\n%!" id descr;
    let t0 = Unix.gettimeofday () in
    print_string (render Telemetry.Registry.disabled);
    Printf.printf "(%s regenerated in %.1f s)\n\n%!" id (Unix.gettimeofday () -. t0)
  | None ->
    Printf.eprintf "unknown experiment %s\n" id;
    exit 1

(* -------------------------------------------------------- budget gate *)

(* `bench/main.exe budget` is the fast mode's acceptance gate (distinct
   from the informational `budget` registry entry): it regenerates fig1
   and fig2 at scale 8 in full and under the default budget, each side
   from a cleared trace cache, and fails unless every cell's relative
   speedup lands within 5% of the full-run value and each figure runs at
   least 5x faster. *)
let run_budget_gate () =
  let module E = Simbridge.Experiments in
  let t0 = Unix.gettimeofday () in
  let check (e : E.budget_eval) =
    print_string (E.render_budget_eval e);
    let bad = List.filter (fun (r : E.budget_row) -> r.E.br_rel_err > 0.05) e.E.be_rows in
    List.iter
      (fun (r : E.budget_row) ->
        Printf.printf "FAIL %s %s / %s: budget rel %.4f vs full %.4f (%.2f%% > 5%%)\n" e.E.be_id
          r.E.br_series r.E.br_kernel r.E.br_budget r.E.br_full
          (100.0 *. r.E.br_rel_err))
      bad;
    let slow = e.E.be_speedup < 5.0 in
    if slow then Printf.printf "FAIL %s wall-clock speedup %.1fx < 5x\n" e.E.be_id e.E.be_speedup;
    bad = [] && not slow
  in
  let e1 = E.budget_eval_fig1 () in
  let ok1 = check e1 in
  let e2 = E.budget_eval_fig2 () in
  let ok2 = check e2 in
  Printf.printf "(budget gate ran in %.1f s)\n%!" (Unix.gettimeofday () -. t0);
  if not (ok1 && ok2) then exit 1;
  Printf.printf
    "budget gate: PASS (max rel err fig1 %.2f%% / fig2 %.2f%% <= 5%%, speedup fig1 %.1fx / fig2 \
     %.1fx >= 5x)\n\
     %!"
    (100.0 *. e1.E.be_max_rel_err) (100.0 *. e2.E.be_max_rel_err) e1.E.be_speedup e2.E.be_speedup

(* ------------------------------------------------------ parallel gate *)

(* `bench/main.exe parallel` is the worker pool's acceptance gate, in
   two halves:

   (1) identity — fig1 and fig2 regenerated at jobs=1 and jobs>=2 must
       be bit-identical (structural equality of the figure record AND
       byte equality of the rendered CSV).  This half always runs: it
       is a correctness property and holds on any host, including
       single-core ones (jobs=2 there just time-slices one core).
   (2) speedup — the pooled fig1 run must beat the sequential one by
       >= 2x wall-clock.  Asserted only when the host has >= 4
       *physical* cores (Pool.physical_cores, falling back to
       recommended_jobs when /proc/cpuinfo has no topology).  GitHub's
       standard runners expose 4 hyperthreads on 2 physical cores;
       gating on Domain.recommended_domain_count() made the 2x bar
       flaky there, because SMT siblings contend for the same
       execution units.  The identity runs double as the timing
       source, so waiving the bar costs nothing extra — the wall
       clocks are still printed for the curious. *)
let run_parallel_gate () =
  let module E = Simbridge.Experiments in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let auto = Parallel.Pool.recommended_jobs () in
  let physical =
    match Parallel.Pool.physical_cores () with Some n -> n | None -> auto
  in
  (* Identity half: jobs >= 2 so the domain path is exercised even on a
     single-core host. *)
  let par_jobs = max 2 (min auto physical) in
  let seq1, seq_wall = time (fun () -> E.fig1 ~jobs:1 ()) in
  let par1, par_wall = time (fun () -> E.fig1 ~jobs:par_jobs ()) in
  let seq2, _ = time (fun () -> E.fig2 ~jobs:1 ()) in
  let par2, _ = time (fun () -> E.fig2 ~jobs:par_jobs ()) in
  let mismatches =
    List.filter
      (fun (_, ok) -> not ok)
      [
        ("fig1 figure", seq1 = par1);
        ("fig1 csv", E.figure_csv seq1 = E.figure_csv par1);
        ("fig2 figure", seq2 = par2);
        ("fig2 csv", E.figure_csv seq2 = E.figure_csv par2);
      ]
  in
  List.iter
    (fun (what, _) -> Printf.printf "FAIL %s: jobs=%d differs from jobs=1\n" what par_jobs)
    mismatches;
  (* Speedup half: only where >= 4 physical cores give real headroom. *)
  let gate_speedup = physical >= 4 in
  let too_slow =
    if not gate_speedup then begin
      Printf.printf
        "fig1 wall-clock: jobs=1 %.2fs, jobs=%d %.2fs (identity only; %d physical core(s), speedup bar waived)\n"
        seq_wall par_jobs par_wall physical;
      false
    end
    else begin
      let speedup = if par_wall > 0.0 then seq_wall /. par_wall else 0.0 in
      Printf.printf "fig1 wall-clock: jobs=1 %.2fs, jobs=%d %.2fs (%.2fx, %d physical cores)\n"
        seq_wall par_jobs par_wall speedup physical;
      if speedup < 2.0 then begin
        Printf.printf "FAIL wall-clock speedup %.2fx < 2x at jobs=%d (%d physical cores >= 4)\n"
          speedup par_jobs physical;
        true
      end
      else false
    end
  in
  if mismatches <> [] || too_slow then exit 1;
  Printf.printf "parallel gate: PASS (bit-identical across jobs%s)\n%!"
    (if gate_speedup then
       Printf.sprintf ", %.1fx speedup at jobs=%d" (seq_wall /. par_wall) par_jobs
     else Printf.sprintf "; %d physical core(s), speedup bar waived" physical)

(* ---------------------------------------------------------- perf gate *)

(* `bench/main.exe perf` is the compiled-trace engine's acceptance gate:

   (1) identity — every fig1 and fig2 cell (39 kernels x 8 platform
       columns at scale 1) run through the Runner at jobs=1 must give a
       [Soc.result] structurally equal to the test-side reference
       interpreter ([Oracle.run_kernel]: fresh SoC, setup then measured
       stream fed one instruction at a time);
   (2) throughput — on a fixed kernel mix across the Banana Pi Rocket
       model and the Large BOOM at scale 4, jobs=1, measure the trace
       engine's aggregate host MIPS.  There is no fixed bar: the run
       report's aggregate_mips is what `simbridge history check` trends
       against the same command on the same host.

   `perf` writes both to BENCH_perf.json and files a ledger run report;
   `perf-identity` asserts (1) only — the CI smoke, which must hold on
   any runner regardless of how fast it is. *)

(* Compute-, branch-, and cache-resident kernels; the DRAM-chase MM is
   excluded because its runtime is setup-dominated and DRAM-bound, so it
   measures the memory model rather than the replay hot loop. *)
let perf_mix = [ "Cca"; "CS1"; "EI"; "EM5"; "DP1d"; "MD"; "MIM" ]
let perf_platforms = [ Platform.Catalog.banana_pi_sim; Platform.Catalog.boom_large ]
let perf_scale = 4.0

type perf_cell = {
  pc_platform : string;
  pc_kernel : string;
  pc_insns : int;
  pc_wall_s : float;  (** measured-phase host wall-clock *)
}

let cell_mips c = float_of_int c.pc_insns /. (c.pc_wall_s *. 1e6)

(* Each cell is measured [perf_reps] times and the best (smallest) wall
   is kept: the quantity under test is the hot loop's throughput, and
   min-of-N is the standard way to strip transient host load out of a
   wall-clock benchmark. *)
let perf_reps = 5

(* Run the mix kernel-major (as the figure grids do) so every platform
   after the first replays a cached trace; host MIPS is retired
   instructions of the measured phase per wall-clock second.

   One untimed warm-up rep runs first so the trace compile lands outside
   every timed rep: rep 1 used to carry the cache miss, making best-of-5
   really best-of-4. *)
let perf_cells () =
  Simbridge.Runner.trace_cache_clear ();
  List.concat_map
    (fun kname ->
      let k = Workloads.Microbench.find kname in
      List.map
        (fun (cfg : Platform.Config.t) ->
          ignore (Simbridge.Runner.run_kernel_timed ~scale:perf_scale cfg k);
          let best = ref infinity in
          let insns = ref 0 in
          for _ = 1 to perf_reps do
            let t = Simbridge.Runner.run_kernel_timed ~scale:perf_scale cfg k in
            if t.Simbridge.Runner.measure_wall_s < !best then
              best := t.Simbridge.Runner.measure_wall_s;
            insns := t.Simbridge.Runner.result.Platform.Soc.instructions
          done;
          {
            pc_platform = cfg.Platform.Config.name;
            pc_kernel = kname;
            pc_insns = !insns;
            pc_wall_s = !best;
          })
        perf_platforms)
    perf_mix

let aggregate_mips cells =
  let insns = List.fold_left (fun a c -> a + c.pc_insns) 0 cells in
  let wall = List.fold_left (fun a c -> a +. c.pc_wall_s) 0.0 cells in
  if wall > 0.0 then float_of_int insns /. (wall *. 1e6) else 0.0

let write_flat_json path pairs =
  Util.Outfile.write path
    (J.to_string (J.Obj (List.map (fun (k, v) -> (k, J.Num v)) pairs)) ^ "\n")

(* The platform columns of Experiments.fig1 / fig2, hardware first. *)
let identity_figures =
  let module Cat = Platform.Catalog in
  [
    ("fig1", [ Cat.banana_pi_hw; Cat.banana_pi_sim; Cat.fast_banana_pi_sim ]);
    ("fig2", [ Cat.milkv_hw; Cat.boom_small; Cat.boom_medium; Cat.boom_large; Cat.milkv_sim ]);
  ]

let perf_identity () =
  let cells = ref 0 and bad = ref 0 in
  List.iter
    (fun (fig, platforms) ->
      let grid =
        List.concat_map
          (fun k -> List.map (fun cfg -> (cfg, k)) platforms)
          Workloads.Microbench.evaluated
      in
      List.iter2
        (fun ((cfg : Platform.Config.t), (k : Workloads.Workload.kernel)) t ->
          incr cells;
          if t.Simbridge.Runner.result <> Oracle.run_kernel cfg k then begin
            incr bad;
            Printf.printf "FAIL %s %s/%s: trace replay differs from the reference interpreter\n%!"
              fig cfg.name k.name
          end)
        grid
        (Simbridge.Runner.run_kernel_grid ~jobs:1 grid))
    identity_figures;
  if !bad = 0 then
    Printf.printf "identity: %d fig1/fig2 cells bit-identical to the reference interpreter\n%!"
      !cells;
  !bad = 0

let run_perf_gate ~identity_only () =
  let t0 = Unix.gettimeofday () in
  let id_ok = perf_identity () in
  if identity_only then begin
    if not id_ok then exit 1;
    Printf.printf "perf identity: PASS\n%!"
  end
  else begin
    let cells = perf_cells () in
    let agg = aggregate_mips cells in
    let cache = Simbridge.Runner.trace_cache_stats () in
    let lookups = cache.Simbridge.Runner.tc_hits + cache.Simbridge.Runner.tc_misses in
    Printf.printf "%-16s %-6s %10s %9s\n" "platform" "kernel" "insns" "traceMIPS";
    List.iter
      (fun c ->
        Printf.printf "%-16s %-6s %10d %9.1f\n" c.pc_platform c.pc_kernel c.pc_insns (cell_mips c))
      cells;
    Printf.printf
      "trace engine aggregate: %.1f MIPS; trace cache %d/%d hits (%.0f%% hit rate, %d evictions)\n%!"
      agg cache.Simbridge.Runner.tc_hits lookups
      (if lookups > 0 then
         100.0 *. float_of_int cache.Simbridge.Runner.tc_hits /. float_of_int lookups
       else 0.0)
      cache.Simbridge.Runner.tc_evictions;
    write_flat_json "BENCH_perf.json"
      (List.map (fun c -> ("trace/" ^ c.pc_platform ^ "/" ^ c.pc_kernel, cell_mips c)) cells
      @ [
          ("aggregate_mips", agg);
          ("identity_ok", if id_ok then 1.0 else 0.0);
          ("cache_hits", float_of_int cache.Simbridge.Runner.tc_hits);
          ("cache_misses", float_of_int cache.Simbridge.Runner.tc_misses);
          ("wall_s", Unix.gettimeofday () -. t0);
        ]);
    (* The gate also files a ledger run report so CI can `history record`
       bench trajectories alongside figure runs. *)
    let report =
      Ledger.Run_report.build
        ~wall_s:(Unix.gettimeofday () -. t0)
        ~exit_status:(if id_ok then 0 else 1)
        ~command:"bench perf"
        ~config:[ ("scale", J.Num perf_scale); ("jobs", J.Num 1.0) ]
          (* aggregate_mips is what `history check` trends and gates
             (same command, same host). *)
        ~metrics:[ ("aggregate_mips", J.Num agg) ]
        ~telemetry:Telemetry.Registry.disabled
        ~extra:
          [
            ( "perf",
              J.Obj
                [
                  ("aggregate_mips", J.Num agg);
                  ("identity_ok", J.Bool id_ok);
                  ("cache_hits", J.Num (float_of_int cache.Simbridge.Runner.tc_hits));
                  ("cache_misses", J.Num (float_of_int cache.Simbridge.Runner.tc_misses));
                ] );
          ]
        ()
    in
    Ledger.Run_report.write ~path:"run-report.json" report;
    Printf.printf "run report    : run-report.json (%s)\n%!" (Ledger.Run_report.summary_line report);
    if not id_ok then exit 1;
    Printf.printf
      "perf gate: PASS (bit-identical figure cells; trace %.1f MIPS, trended by `history check`)\n%!"
      agg
  end

(* --------------------------------------------------------------- serve *)

(* The serve load-test gate: stand the daemon up on a Unix socket, fire
   >= 1000 mixed fig1-7 (plus grid-cell) queries from 4 concurrent
   pipelining clients, and require every payload to be byte-identical to
   the sequential jobs=1 oracle, every unique key to be computed exactly
   once (repeats are answered from the response cache), and the
   cross-request trace cache to have actually fired (fig2 replays fig1's
   compiled kernel streams).  Numbers land in BENCH_serve.json. *)

let serve_mix : Serve.Protocol.query list =
  let fig f s = Serve.Protocol.Figure { fmt = `Csv; figure = f; scale = s } in
  let cell p k s = Serve.Protocol.Cell { platform = p; kernel = k; scale = s } in
  [
    fig "fig1" 0.1;
    fig "fig2" 0.1;
    cell "banana-pi-sim" "ED1" 0.1;
    fig "fig5" 0.1;
    fig "fig1" 0.15;
    fig "fig3a" 0.02;
    fig "fig6" 0.1;
    cell "milkv-sim" "MD" 0.1;
    fig "fig4a" 0.02;
    fig "fig7" 0.1;
  ]

let serve_clients = 4
let serve_queries_per_client = 250
let serve_pipeline_depth = 8

(* Each client walks the mix from its own offset, so at any instant the
   four connections overlap on some keys (a repeat queued behind its
   first computation) and disagree on others. *)
let serve_query ~ci i = List.nth serve_mix ((i + (ci * 3)) mod List.length serve_mix)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5))))

let serve_client ~addr ~oracle ~ci ~latencies ~verified ~mismatches () =
  try
    let c = Serve.Client.connect addr in
    let inflight = Queue.create () in
    let fail what =
      Atomic.incr mismatches;
      Printf.printf "FAIL serve: client %d: %s\n%!" ci what
    in
    let recv_one () =
      let idx, t_send = Queue.pop inflight in
      match Serve.Client.recv c with
      | Error msg -> fail (Printf.sprintf "recv #%d: %s" idx msg)
      | Ok resp -> (
        latencies.(ci).(idx) <- Unix.gettimeofday () -. t_send;
        let q = serve_query ~ci idx in
        let expect_id = Printf.sprintf "c%d-%d" ci idx in
        if resp.Serve.Protocol.rs_id <> expect_id then
          fail
            (Printf.sprintf "response order: got id %S, want %S" resp.Serve.Protocol.rs_id
               expect_id)
        else
          match resp.Serve.Protocol.rs_result with
          | Error msg -> fail (Printf.sprintf "#%d server error: %s" idx msg)
          | Ok (payload, _report) ->
            if payload = Hashtbl.find oracle (Serve.Protocol.query_key q) then
              Atomic.incr verified
            else fail (Printf.sprintf "#%d (%s) payload differs from sequential oracle" idx
                         (Serve.Protocol.query_key q)))
    in
    for i = 0 to serve_queries_per_client - 1 do
      if Queue.length inflight >= serve_pipeline_depth then recv_one ();
      Serve.Client.send c
        Serve.Protocol.
          { rq_id = Printf.sprintf "c%d-%d" ci i; rq_op = Run (serve_query ~ci i) };
      Queue.push (i, Unix.gettimeofday ()) inflight
    done;
    while not (Queue.is_empty inflight) do
      recv_one ()
    done;
    Serve.Client.close c
  with exn ->
    Atomic.incr mismatches;
    Printf.printf "FAIL serve: client %d died: %s\n%!" ci (Printexc.to_string exn)

let stat_float stats path =
  let rec walk j = function
    | [] -> J.to_float j
    | key :: rest -> ( match J.member key j with Some v -> walk v rest | None -> None)
  in
  Option.value (walk stats path) ~default:0.0

let run_serve_gate () =
  let module P = Serve.Protocol in
  let total = serve_clients * serve_queries_per_client in
  let uniq =
    List.filter
      (let seen = Hashtbl.create 16 in
       fun q ->
         let key = P.query_key q in
         if Hashtbl.mem seen key then false else (Hashtbl.add seen key (); true))
      serve_mix
  in
  Printf.printf "serve gate: %d queries (%d unique) from %d clients, pipeline depth %d\n%!" total
    (List.length uniq) serve_clients serve_pipeline_depth;
  let t0 = Unix.gettimeofday () in
  let oracle = Hashtbl.create 16 in
  List.iter
    (fun q ->
      match Serve.Engine.oracle q with
      | Ok payload -> Hashtbl.replace oracle (P.query_key q) payload
      | Error msg ->
        Printf.printf "FAIL serve: oracle %s: %s\n" (P.query_key q) msg;
        exit 1)
    uniq;
  let oracle_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "oracle: %d sequential payloads in %.1f s\n%!" (List.length uniq) oracle_wall;
  (* the served run must start cold so every trace-cache hit it reports
     is a genuine cross-request hit, not oracle leftovers *)
  Simbridge.Runner.trace_cache_clear ();
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "simbridge-bench-%d.sock" (Unix.getpid ()))
  in
  (* trace_capacity 0: live counters and phases (for aggregate MIPS),
     no event-ring memory for a 1000-query run *)
  let reg = Telemetry.Registry.create ~trace_capacity:0 () in
  let srv = Serve.Server.create ~response_cache_capacity:64 ~telemetry:reg (`Unix sock) in
  let srv_thread = Thread.create Serve.Server.run srv in
  let t1 = Unix.gettimeofday () in
  let latencies = Array.init serve_clients (fun _ -> Array.make serve_queries_per_client 0.0) in
  let verified = Atomic.make 0 and mismatches = Atomic.make 0 in
  let clients =
    List.init serve_clients (fun ci ->
        Thread.create
          (serve_client ~addr:(`Unix sock) ~oracle ~ci ~latencies ~verified ~mismatches)
          ())
  in
  List.iter Thread.join clients;
  let serve_wall = Unix.gettimeofday () -. t1 in
  let stats = Serve.Engine.stats_json (Serve.Server.engine srv) in
  Serve.Server.stop srv;
  Thread.join srv_thread;
  let tc = Simbridge.Runner.trace_cache_stats () in
  let tc_lookups = tc.Simbridge.Runner.tc_hits + tc.Simbridge.Runner.tc_misses in
  let all_lat = Array.concat (Array.to_list latencies) in
  Array.sort compare all_lat;
  let p50 = percentile all_lat 0.50 and p99 = percentile all_lat 0.99 in
  let qps = if serve_wall > 0.0 then float_of_int total /. serve_wall else 0.0 in
  let mips = Option.value (Ledger.Run_report.aggregate_mips reg) ~default:0.0 in
  let computed = stat_float stats [ "computed" ] in
  let cached = stat_float stats [ "cached" ] in
  let cache_hit_rate = cached /. float_of_int total in
  let tc_hit_rate =
    if tc_lookups > 0 then float_of_int tc.Simbridge.Runner.tc_hits /. float_of_int tc_lookups
    else 0.0
  in
  Printf.printf
    "served %d queries in %.1f s (%.1f q/s): %.0f computed, %.0f cached; \
     latency p50 %.0f ms / p99 %.0f ms; aggregate %.1f MIPS\n\
     trace cache (cold start): %d hits / %d lookups (%.0f%% cross-request hit rate)\n%!"
    total serve_wall qps computed cached (p50 *. 1e3) (p99 *. 1e3) mips
    tc.Simbridge.Runner.tc_hits tc_lookups (100.0 *. tc_hit_rate);
  write_flat_json "BENCH_serve.json"
    [
      ("queries", float_of_int total);
      ("clients", float_of_int serve_clients);
      ("unique_keys", float_of_int (List.length uniq));
      ("verified", float_of_int (Atomic.get verified));
      ("mismatches", float_of_int (Atomic.get mismatches));
      ("wall_s", serve_wall);
      ("oracle_wall_s", oracle_wall);
      ("qps", qps);
      ("p50_ms", p50 *. 1e3);
      ("p99_ms", p99 *. 1e3);
      ("aggregate_mips", mips);
      ("computed", computed);
      ("cached", cached);
      ("response_cache_hit_rate", cache_hit_rate);
      ("trace_cache_hits", float_of_int tc.Simbridge.Runner.tc_hits);
      ("trace_cache_misses", float_of_int tc.Simbridge.Runner.tc_misses);
      ("trace_cache_hit_rate", tc_hit_rate);
    ];
  let ok = Atomic.get mismatches = 0 && Atomic.get verified = total in
  let computed_ok = computed = float_of_int (List.length uniq) in
  let tc_ok = tc.Simbridge.Runner.tc_hits > 0 in
  let report =
    Ledger.Run_report.build
      ~wall_s:(Unix.gettimeofday () -. t0)
      ~exit_status:(if ok && computed_ok && tc_ok then 0 else 1)
      ~command:"bench serve" ~config:[ ("clients", J.Num (float_of_int serve_clients)) ]
      ~telemetry:reg
      ~extra:
        [
          ( "serve_bench",
            J.Obj
              [
                ("queries", J.Num (float_of_int total));
                ("verified", J.Num (float_of_int (Atomic.get verified)));
                ("qps", J.Num qps);
                ("p50_ms", J.Num (p50 *. 1e3));
                ("p99_ms", J.Num (p99 *. 1e3));
                ("aggregate_mips", J.Num mips);
                ("trace_cache_hit_rate", J.Num tc_hit_rate);
              ] );
          ("serve", stats);
        ]
      ()
  in
  Ledger.Run_report.write ~path:"run-report.json" report;
  Printf.printf "run report    : run-report.json (%s)\n%!" (Ledger.Run_report.summary_line report);
  if not ok then begin
    Printf.printf "FAIL serve: %d/%d payloads verified, %d mismatches\n" (Atomic.get verified)
      total (Atomic.get mismatches);
    exit 1
  end;
  if not computed_ok then begin
    Printf.printf "FAIL serve: %.0f computations for %d unique keys (each must be computed once)\n"
      computed (List.length uniq);
    exit 1
  end;
  if not tc_ok then begin
    Printf.printf "FAIL serve: no cross-request trace-cache hits (hit rate must be > 0)\n";
    exit 1
  end;
  Printf.printf
    "serve gate: PASS (%d/%d byte-identical to the sequential oracle at any interleaving, \
     %d keys computed once each, trace-cache hit rate %.0f%%)\n%!"
    (Atomic.get verified) total (List.length uniq) (100.0 *. tc_hit_rate)

(* ------------------------------------------------------ soc-reuse gate *)

(* `bench/main.exe soc-reuse`: 3,000 cold cells in a row, as a serve
   daemon computes them: the fig1/fig2 grid at scale 2 without MIP (the
   serve-hol workload's cold cells), round and round.  Each cell builds a
   SoC from the components the previous cell released (Util.Spare), so
   once every config has been seen no cell leaves major-heap garbage of
   its own, and the heap must stay flat: fails if [heap_words] after
   3,000 cells exceeds its value after 500 by more than 1%. *)
let run_soc_reuse_gate () =
  let module Cat = Platform.Catalog in
  let platforms =
    [ Cat.banana_pi_hw; Cat.banana_pi_sim; Cat.fast_banana_pi_sim; Cat.milkv_hw; Cat.boom_small;
      Cat.boom_medium; Cat.boom_large; Cat.milkv_sim ]
  in
  let kernels =
    List.filter (fun (k : Workloads.Workload.kernel) -> k.name <> "MIP") Workloads.Microbench.evaluated
  in
  let cells = Array.of_list (List.concat_map (fun k -> List.map (fun p -> (p, k)) platforms) kernels) in
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  let t0 = Unix.gettimeofday () in
  let at500 = ref 0 in
  for i = 1 to 3000 do
    let p, k = cells.((i - 1) mod Array.length cells) in
    ignore (Simbridge.Runner.run_kernel ~scale:2.0 p k);
    if i = 500 then at500 := heap ();
    if i mod 500 = 0 then
      Printf.printf "soc-reuse: %4d cells  heap %.1f MB  (%.1f s)\n%!" i
        (float_of_int (heap () * (Sys.word_size / 8)) /. 1e6)
        (Unix.gettimeofday () -. t0)
  done;
  let growth = float_of_int (heap () - !at500) /. float_of_int !at500 in
  Printf.printf "soc-reuse: heap %+.2f%% from 500 to 3000 cells (bound +1%%)\n" (100.0 *. growth);
  if growth > 0.01 then begin
    print_endline "soc-reuse: FAIL";
    exit 1
  end

(* ----------------------------------------------------------- bechamel *)

let staged = Bechamel.Staged.stage

(* One Test.make per table/figure, each timing a *representative slice*
   of that experiment's machinery (one kernel or app comparison at small
   scale) so Bechamel can iterate within its quota. *)
let figure_tests =
  let t name f = Bechamel.Test.make ~name (staged f) in
  let module Cat = Platform.Catalog in
  let krel name = 
    ignore
      (Simbridge.Runner.kernel_relative ~scale:0.05 ~sim:Cat.banana_pi_sim ~hw:Cat.banana_pi_hw
         (Workloads.Microbench.find name))
  in
  let arel ?(scale = 0.15) app ~sim ~hw =
    ignore (Simbridge.Runner.app_relative ~scale ~ranks:1 ~sim ~hw app)
  in
  [
    t "table1" (fun () -> ignore (Simbridge.Experiments.table1 ()));
    t "table2" (fun () -> ignore (Simbridge.Experiments.table2 ()));
    t "table3" (fun () -> ignore (Simbridge.Experiments.table3 ()));
    t "table4" (fun () -> ignore (Simbridge.Experiments.table4 ()));
    t "table5" (fun () -> ignore (Simbridge.Experiments.table5 ()));
    t "fig1-slice(Cca)" (fun () -> krel "Cca");
    t "fig2-slice(EI)" (fun () ->
        ignore
          (Simbridge.Runner.kernel_relative ~scale:0.05 ~sim:Cat.milkv_sim ~hw:Cat.milkv_hw
             (Workloads.Microbench.find "EI")));
    t "fig3-slice(EP)" (fun () -> arel Workloads.Npb.ep ~sim:Cat.banana_pi_sim ~hw:Cat.banana_pi_hw);
    t "fig4-slice(CG)" (fun () -> arel Workloads.Npb.cg ~sim:Cat.milkv_sim ~hw:Cat.milkv_hw);
    t "fig5-slice(UME)" (fun () ->
        arel ~scale:0.3 Workloads.Ume.app ~sim:Cat.banana_pi_sim ~hw:Cat.banana_pi_hw);
    t "fig6-slice(LJ)" (fun () ->
        arel ~scale:0.2 Workloads.Lammps.lj ~sim:Cat.milkv_sim ~hw:Cat.milkv_hw);
    t "fig7-slice(Chain)" (fun () ->
        arel ~scale:0.2 Workloads.Lammps.chain ~sim:Cat.banana_pi_sim ~hw:Cat.banana_pi_hw);
  ]

(* Component micro-benchmarks: the building blocks' own costs. *)
let component_tests =
  let t name f = Bechamel.Test.make ~name (staged f) in
  let rng = Util.Rng.create 1 in
  let predictor =
    Branch.Predictor.create
      (Branch.Predictor.Tage { base_entries = 512; tables = 4; table_entries = 256; max_history = 32 })
  in
  let cache = Cache.create (Cache.config ~name:"bench" ~sets:64 ~ways:8 ()) in
  let next : Cache.next_level = fun ~cycle ~addr:_ ~write:_ -> cycle + 50 in
  let dram = Dram.create (Dram.ddr3_2000_fr_fcfs ~channels:1) in
  let bus = Interconnect.Bus.create (Interconnect.Bus.config ~name:"b" ~width_bits:128 ()) in
  let counter = ref 0 in
  let alu_insn = Isa.Insn.make ~dst:5 ~src1:5 ~pc:0 Isa.Insn.Int_alu in
  let inorder = Uarch.Inorder.create (Uarch.Inorder.rocket ()) (Uarch.Memsys.ideal ~latency:2) in
  let ooo = Uarch.Ooo.create (Uarch.Ooo.boom_large ()) (Uarch.Memsys.ideal ~latency:2) in
  [
    t "rng/bits64" (fun () -> ignore (Util.Rng.bits64 rng));
    t "predictor/tage-update" (fun () ->
        incr counter;
        ignore (Branch.Predictor.predict predictor ~pc:0x400);
        Branch.Predictor.update predictor ~pc:0x400 ~taken:(!counter land 3 <> 0));
    t "cache/hit" (fun () ->
        incr counter;
        ignore (Cache.access cache ~next ~cycle:!counter ~addr:(!counter land 0x1FF8) ~write:false));
    t "dram/request" (fun () ->
        incr counter;
        ignore (Dram.request dram ~time_ns:(float_of_int !counter) ~addr:(!counter * 64) ~write:false));
    t "bus/transfer" (fun () ->
        incr counter;
        ignore (Interconnect.Bus.transfer bus ~cycle:!counter ~bytes:64));
    t "uarch/inorder-feed" (fun () -> Uarch.Inorder.feed inorder alu_insn);
    t "uarch/ooo-feed" (fun () -> Uarch.Ooo.feed ooo alu_insn);
    t "workload/kernel-stream-100" (fun () ->
        ignore
          (Prog.Gen.length
             (Prog.Gen.take 100
                ((Workloads.Microbench.find "Cca").Workloads.Workload.stream ~scale:0.02))));
  ]

let run_bechamel () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let run_group name tests =
    Printf.printf "--- bechamel: %s ---\n%!" name;
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg instances (Test.make_grouped ~name tests) in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    let rows =
      Hashtbl.fold
        (fun test_name ols acc ->
          let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan in
          (test_name, ns) :: acc)
        results []
      |> List.sort compare
    in
    List.iter (fun (test_name, ns) -> Printf.printf "  %-42s %12.1f ns/run\n" test_name ns) rows;
    print_newline ()
  in
  run_group "components" component_tests;
  run_group "figure-drivers" figure_tests

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    List.iter (fun (id, _, _) -> run_experiment id) Simbridge.Experiments.all;
    run_bechamel ()
  | [ _; "bechamel" ] -> run_bechamel ()
  | [ _; "budget" ] -> run_budget_gate ()
  | [ _; "parallel" ] -> run_parallel_gate ()
  | [ _; "perf" ] -> run_perf_gate ~identity_only:false ()
  | [ _; "perf-identity" ] -> run_perf_gate ~identity_only:true ()
  | [ _; "serve" ] -> run_serve_gate ()
  | [ _; "soc-reuse" ] -> run_soc_reuse_gate ()
  | [ _; id ] -> run_experiment id
  | _ ->
    prerr_endline
      "usage: main.exe [experiment-id | bechamel | budget | parallel | perf | perf-identity | \
       serve | soc-reuse]";
    exit 1
