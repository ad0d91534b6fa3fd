(* The per-layer metrics of a traced run: their catalog, and the
   component costs that turn model event counts into host-time
   estimates.  Layers are named after the lib/ modules. *)

(* Every per-layer metric, with its unit.  Each traced run reports all
   of them; a layer a workload leaves idle reads 0. *)
let catalog =
  [
    ("workloads.gen_s", "s");
    ("trace.compile_s", "s");
    ("trace.compile_mips", "Minsn/s");
    ("trace.words_mib", "MiB");
    ("trace.blocks_s", "s");
    ("trace.cache_hit_ratio", "ratio");
    ("runner.cell_setup_s", "s");
    ("runner.measure_s", "s");
    ("uarch.ns_per_insn", "ns");
    ("cache.l1i.accesses", "count");
    ("cache.l1i.misses", "count");
    ("cache.l1d.accesses", "count");
    ("cache.l1d.misses", "count");
    ("cache.l2.accesses", "count");
    ("cache.l2.misses", "count");
    ("cache.llc.accesses", "count");
    ("cache.llc.misses", "count");
    ("tlb.dtlb.misses", "count");
    ("tlb.itlb.misses", "count");
    ("dram.requests", "count");
    ("dram.row_hits", "count");
    ("bus.transfers", "count");
    ("core.mispredicts", "count");
    ("core.branches", "count");
    ("cache.ns_per_access", "ns");
    ("dram.ns_per_request", "ns");
    ("cache.est_s", "s");
    ("dram.est_s", "s");
    ("branch.est_s", "s");
    ("tlb.est_s", "s");
    ("uarch.unattributed_s", "s");
    ("smpi.messages", "count");
    ("smpi.bytes_moved", "count");
    ("smpi.recv_wait_cycles", "count");
    ("smpi.r4_over_r1", "ratio");
    ("serve.codec_us", "us");
    ("serve.queue_wait_p50_ms", "ms");
    ("serve.queue_wait_tail_ms", "ms");
    ("serve.compute_ms", "ms");
    ("serve.cold_p50_ms", "ms");
    ("serve.cold_tail_ms", "ms");
    ("serve.qps", "req/s");
    ("serve.cached_ratio", "ratio");
    ("serve.requests_per_batch", "count");
    ("gen.late_ms", "ms");
    ("gc.alloc_bytes_per_insn", "B/insn");
    ("gc.promoted_mib", "MiB");
    ("gc.major_collections", "count");
    ("telemetry.overhead_pct", "%");
    ("self.workloads.gen_s", "s");
    ("self.trace.compile_s", "s");
    ("self.trace.blocks_s", "s");
    ("self.runner.cell_s", "s");
    ("self.runner.setup_s", "s");
    ("self.runner.measure_s", "s");
    ("self.runner.run_app_s", "s");
    ("self.serve.codec_s", "s");
    ("self.serve.socket_s", "s");
    ("self.bench_s", "s");
  ]

(* Span names whose self time is reported, by metric: the benchmark's
   own spans plus the ones simbridge records inside a traced cell. *)
let self_spans =
  [
    ("self.workloads.gen_s", "workloads.gen");
    ("self.trace.compile_s", "trace.compile");
    ("self.trace.blocks_s", "trace.blocks");
    ("self.runner.cell_s", "runner.cell");
    ("self.runner.setup_s", "setup");
    ("self.runner.measure_s", "measure");
    ("self.runner.run_app_s", "run");
    ("self.serve.codec_s", "serve.codec");
    ("self.serve.socket_s", "serve.socket");
    ("self.bench_s", "bench");
  ]

let metrics values =
  List.map
    (fun (name, unit) ->
      Measure.metric name unit (Option.value ~default:0.0 (Hashtbl.find_opt values name)))
    catalog

let add_self_times values tel =
  let self = Tracer.self_times tel in
  List.iter
    (fun (metric, span) ->
      let _, s, _ = self span in
      Hashtbl.replace values metric s)
    self_spans

(* Host ns per call of the model components, measured with Bechamel:
   cache access, DRAM request, branch predict+update, TLB translate. *)
let component_ns () =
  let cache = Cache.create (Cache.config ~name:"bench" ~sets:64 ~ways:8 ()) in
  let next : Cache.next_level = fun ~cycle ~addr:_ ~write:_ -> cycle + 50 in
  let dram = Dram.create (Dram.ddr3_2000_fr_fcfs ~channels:1) in
  let predictor =
    Branch.Predictor.create
      (Branch.Predictor.Tage { base_entries = 512; tables = 4; table_entries = 256; max_history = 32 })
  in
  let tlb = Platform.Tlb.create Platform.Tlb.firesim_boom in
  let counter = ref 0 in
  let test name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f) in
  let tests =
    [
      test "cache" (fun () ->
          incr counter;
          ignore (Cache.access cache ~next ~cycle:!counter ~addr:(!counter land 0x1FF8) ~write:false));
      test "dram" (fun () ->
          incr counter;
          ignore (Dram.request dram ~time_ns:(float_of_int !counter) ~addr:(!counter * 64) ~write:false));
      test "branch" (fun () ->
          incr counter;
          ignore (Branch.Predictor.predict predictor ~pc:0x400);
          Branch.Predictor.update predictor ~pc:0x400 ~taken:(!counter land 3 <> 0));
      test "tlb" (fun () ->
          incr counter;
          ignore (Platform.Tlb.translate tlb ~addr:((!counter land 0xFF) * 4096)));
    ]
  in
  let clock = Bechamel.Toolkit.Instance.monotonic_clock in
  (* No GC stabilisation between samples: with the workload's heap still
     live it takes so long that the quota runs out after a few samples. *)
  let cfg =
    Bechamel.Benchmark.cfg ~limit:1000 ~quota:(Bechamel.Time.second 0.2) ~kde:None ~stabilize:false
      ~compaction:false ()
  in
  let raw =
    Bechamel.Benchmark.all cfg [ clock ] (Bechamel.Test.make_grouped ~name:"c" ~fmt:"%s/%s" tests)
  in
  let ols = Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Bechamel.Measure.run |] in
  let results = Bechamel.Analyze.all ols clock raw in
  fun name ->
    match Hashtbl.find_opt results ("c/" ^ name) with
    | Some o -> (
      match Bechamel.Analyze.OLS.estimates o with
      | Some (ns :: _) -> ns
      | _ -> 0.0)
    | None -> 0.0
