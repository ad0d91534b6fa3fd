let log = Logs.Src.create "simbridge.runner" ~doc:"workload runs"

module Log = (val Logs.src_log log : Logs.LOG)

module Registry = Telemetry.Registry

(* Publish the measured region's counters: [before] is the Soc.counters
   snapshot taken after any setup stream, [after] the one at the end.
   Counters are monotone, so the difference is exactly the measured
   region — matching the differenced Soc.result the runner returns. *)
let publish_counters reg ~before ~after =
  if Registry.enabled reg then
    Registry.set_all reg (List.map2 (fun (n, a) (_, b) -> (n, a - b)) after before)

let phase_args (r : Platform.Soc.result) =
  [
    ("cycles", Telemetry.Trace.Int r.Platform.Soc.cycles);
    ("instructions", Telemetry.Trace.Int r.Platform.Soc.instructions);
    ("l1d_misses", Telemetry.Trace.Int r.Platform.Soc.l1d_misses);
    ("dram_requests", Telemetry.Trace.Int r.Platform.Soc.dram_requests);
  ]

type timed = {
  result : Platform.Soc.result;
  complete : bool;
  setup_wall_s : float;
  measure_wall_s : float;
}

type engine = [ `Trace ]

(* ------------------------------------------------------- trace cache *)

type trace_cache_stats = { tc_hits : int; tc_misses : int; tc_evictions : int }

(* Compiled traces shared across grid cells: fig1–fig7 run every kernel
   on several platform columns, and kernels are platform-independent, so
   one compilation serves the whole column set.  Keyed by (kernel, scale,
   setup-vs-measured-stream, budget); bounded both by entry count and by total
   resident words, LRU-evicted; a global mutex guards the table (traces
   themselves are immutable after compile, so sharing them across worker
   domains is safe). *)
module Trace_cache = struct
  (* Streams may draw from the salted global RNG (e.g. CCh's branch
     outcomes), so a cached trace is only valid for the seed it was
     compiled under.  A budgeted trace holds only the stream's first
     [budget] instructions, so the budget is part of the key too. *)
  type key = { kernel : string; scale : float; setup : bool; budget : int option; seed : int }

  (* A key is [Compiling] from the first miss on it until its trace is
     in: a worker that misses on a key another worker is compiling waits
     for that result instead of compiling it again. *)
  type slot = Ready of Trace.t * int ref | Compiling

  let mutex = Mutex.create ()
  let compiled = Condition.create ()
  let table : (key, slot) Hashtbl.t = Hashtbl.create 64
  let tick = ref 0
  let words_cached = ref 0
  let hits = Atomic.make 0
  let misses = Atomic.make 0
  let evictions = Atomic.make 0

  (* The figure grids iterate platform-major, so a figure's working set is
     every (kernel, setup/measure) pair — ~42 keys for fig1/fig2.  The
     entry bound only caps Hashtbl bookkeeping; the word bound
     (~3 words/instruction) is what keeps large-scale sweeps from pinning
     gigabytes of compiled traces.  Both are refs so a process that keeps
     the cache for its whole lifetime (the serve daemon) can size it at
     startup; they are startup-only, like the pool's default job count —
     resizing while cells are in flight would race the eviction scan. *)
  let max_entries = ref 128
  let max_words = ref 24_000_000

  (* Caller holds [mutex].  Evicts the least recently used ready trace;
     false when there is none (only keys being compiled are left). *)
  let evict_lru () =
    let victim =
      Hashtbl.fold
        (fun k slot acc ->
          match (slot, acc) with
          | Compiling, _ -> acc
          | Ready (_, last), Some (_, _, l) when l <= !last -> acc
          | Ready (tr, last), _ -> Some (k, tr, !last))
        table None
    in
    match victim with
    | None -> false
    | Some (k, tr, _) ->
      words_cached := !words_cached - Trace.words tr;
      Hashtbl.remove table k;
      Atomic.incr evictions;
      true

  (* Caller holds [mutex]: a finished compile takes its key out of
     [Compiling], enters the table if it fits, and wakes the waiters. *)
  let settle key tr =
    Hashtbl.remove table key;
    (match tr with
    | Some tr ->
      let w = Trace.words tr in
      if w <= !max_words then begin
        while
          (Hashtbl.length table >= !max_entries || !words_cached + w > !max_words) && evict_lru ()
        do
          ()
        done;
        Hashtbl.add table key (Ready (tr, ref !tick));
        words_cached := !words_cached + w
      end
    | None -> ());
    Condition.broadcast compiled

  (* Returns the trace and whether it came from the cache, so callers
     can annotate their telemetry spans with hit/miss.  One compile per
     key however many workers miss on it at once, so the hit and miss
     counts do not depend on the job count. *)
  let find_or_compile ~kernel ~scale ~setup ~budget f =
    let key = { kernel; scale; setup; budget; seed = Util.Rng.get_global_seed () } in
    let rec look () =
      match Hashtbl.find_opt table key with
      | Some (Ready (tr, last)) ->
        last := !tick;
        Some tr
      | Some Compiling ->
        Condition.wait compiled mutex;
        look ()
      | None ->
        Hashtbl.replace table key Compiling;
        None
    in
    match
      Mutex.protect mutex (fun () ->
          incr tick;
          look ())
    with
    | Some tr ->
      Atomic.incr hits;
      (tr, true)
    | None ->
      Atomic.incr misses;
      (* Compile outside the lock; a failed compile frees the key, and
         a waiter then compiles it itself. *)
      let tr =
        try f ()
        with exn ->
          Mutex.protect mutex (fun () -> settle key None);
          raise exn
      in
      Mutex.protect mutex (fun () -> settle key (Some tr));
      (tr, false)

  let stats () =
    {
      tc_hits = Atomic.get hits;
      tc_misses = Atomic.get misses;
      tc_evictions = Atomic.get evictions;
    }

  let clear () =
    Mutex.protect mutex (fun () ->
        Hashtbl.reset table;
        words_cached := 0);
    Atomic.set hits 0;
    Atomic.set misses 0;
    Atomic.set evictions 0
end

let trace_cache_stats = Trace_cache.stats
let trace_cache_clear = Trace_cache.clear

let set_trace_cache_limits ?entries ?words () =
  (match entries with
  | Some n when n < 1 -> invalid_arg "set_trace_cache_limits: entries must be >= 1"
  | Some n -> Trace_cache.max_entries := n
  | None -> ());
  match words with
  | Some n when n < 1 -> invalid_arg "set_trace_cache_limits: words must be >= 1"
  | Some n -> Trace_cache.max_words := n
  | None -> ()

let publish_trace_cache_stats reg =
  if Registry.enabled reg then begin
    let s = Trace_cache.stats () in
    Registry.set_all reg
      [
        ("trace.cache.hits", s.tc_hits);
        ("trace.cache.misses", s.tc_misses);
        ("trace.cache.evictions", s.tc_evictions);
      ]
  end

let cache_attr hit = ("trace_cache", Telemetry.Trace.Str (if hit then "hit" else "miss"))

(* ------------------------------------------------------------ replay *)

(* Instructions fed to the core model between two [Thread.yield]s.  The
   serve daemon answers cached queries on other systhreads of the domain
   that replays cold cells, and they can run only when the replaying
   thread lets go of the runtime lock; without a yield they wait for the
   50 ms systhread tick.  serve-hol on a 2-vCPU VM (perfbench, 30 s
   runs, 10 seeds) reads a hot p95 of 18.9 ms (median) with one feed per
   trace and 2.5 ms at 8,192-instruction slices, mips, setup and RSS
   unchanged; a 20 s sweep read 4.35 ms at 32,768 and 1.95 ms at 2,048,
   so smaller slices buy little more.  A yield with no thread waiting
   returns at once, so batch runs pay one C call per slice. *)
let replay_slice = 8192

let replay soc tr =
  let n = Trace.length tr in
  let rec go lo =
    if lo < n then begin
      let hi = Int.min n (lo + replay_slice) in
      Platform.Soc.feed_trace soc tr ~lo ~hi;
      Thread.yield ();
      go hi
    end
  in
  go 0

let run_kernel_timed ?(scale = 1.0) ?(telemetry = Registry.disabled) ?budget
    ?engine:(_ : engine = `Trace) config (kernel : Workloads.Workload.kernel) =
  (match budget with
  | Some b when b <= 0 -> invalid_arg "Runner.run_kernel_timed: budget must be positive"
  | _ -> ());
  Log.info (fun m ->
      m "kernel %s on %s (scale %.2f%s)" kernel.Workloads.Workload.name
        config.Platform.Config.name scale
        (match budget with None -> "" | Some b -> Printf.sprintf ", budget %d" b));
  (* A kernel runs on core 0.  The other cores would sit idle, touching
     no shared cache, bus or DRAM state, so a one-core SoC simulates the
     same machine, without building three more cores' TLBs, predictors
     and L1s for every cell (garbage the major GC must then sweep). *)
  let soc = Platform.Soc.create (Platform.Config.with_cores config 1) in
  let trace ~setup ~budget stream =
    Trace_cache.find_or_compile ~kernel:kernel.Workloads.Workload.name ~scale ~setup ~budget
      (fun () -> Trace.compile ?limit:budget (stream ~scale))
  in
  (* Setup (working-set initialization) runs on the same SoC but is not
     timed.  It always runs in full: a budget bounds the measured stream
     only. *)
  let t0 = Unix.gettimeofday () in
  (* The setup span covers exactly the [setup_wall_s] region: the setup
     stream plus acquiring the measured stream's trace below. *)
  let sp_setup = Registry.span_start telemetry "setup" in
  let setup_cache = ref ("trace_cache", Telemetry.Trace.Str "off") in
  let before =
    match kernel.Workloads.Workload.setup with
    | None -> None
    | Some setup ->
      let ph = Registry.phase_start telemetry ~ts:0 "setup" in
      let tr, hit = trace ~setup:true ~budget:None setup in
      setup_cache := cache_attr hit;
      replay soc tr;
      let b = Platform.Soc.collect_result soc ~ranks:1 ~comm:None in
      Registry.phase_end telemetry ph ~ts:b.Platform.Soc.cycles ~args:(phase_args b) ();
      Some b
  in
  (* Acquiring the measured stream's trace (cache fetch or compile)
     counts as setup, not as measured time: it happens once per (kernel,
     scale, budget) and is shared by every grid cell replaying that
     stream, so it belongs with working-set preparation rather than
     simulation speed.  Under a budget only the stream's first [budget]
     instructions are ever forced or compiled. *)
  let tr, measure_hit = trace ~setup:false ~budget kernel.Workloads.Workload.stream in
  let setup_wall_s = Unix.gettimeofday () -. t0 in
  Registry.span_end telemetry sp_setup
    ~args:
      [
        !setup_cache;
        ( "cycles",
          Telemetry.Trace.Int (match before with None -> 0 | Some b -> b.Platform.Soc.cycles) );
      ]
    ();
  let snapshot = if Registry.enabled telemetry then Platform.Soc.counters soc else [] in
  let ts0 = match before with None -> 0 | Some b -> b.Platform.Soc.cycles in
  let ph = Registry.phase_start telemetry ~ts:ts0 "measure" in
  let sp_measure = Registry.span_start telemetry "measure" in
  let t1 = Unix.gettimeofday () in
  let now = (Platform.Soc.core_iface soc 0).Smpi.now in
  let c0 = now () in
  replay soc tr;
  (* The measured region's cycles are its completion-frontier delta. *)
  let cycles = now () - c0 in
  let measure_wall_s = Unix.gettimeofday () -. t1 in
  (* A prefix that reached the budget may have cut the stream short,
     even when it ends exactly on the stream's last instruction. *)
  let complete = match budget with None -> true | Some n -> Trace.length tr < n in
  let r = Platform.Soc.collect_result soc ~ranks:1 ~comm:None in
  Registry.phase_end telemetry ph ~ts:r.Platform.Soc.cycles ~args:(phase_args r) ();
  Registry.span_end telemetry sp_measure
    ~args:
      [
        cache_attr measure_hit;
        ("cycles", Telemetry.Trace.Int cycles);
        ("instructions", Telemetry.Trace.Int r.Platform.Soc.instructions);
      ]
    ();
  let freq = Platform.Config.freq_hz config in
  let diffed =
    match before with
    | None -> r
    | Some b ->
      (* Report only the measured region: every cumulative counter is
         differenced against the post-setup snapshot. *)
      {
        r with
        Platform.Soc.instructions = r.Platform.Soc.instructions - b.Platform.Soc.instructions;
        l1d_misses = r.Platform.Soc.l1d_misses - b.Platform.Soc.l1d_misses;
        l1d_accesses = r.Platform.Soc.l1d_accesses - b.Platform.Soc.l1d_accesses;
        l2_misses = r.Platform.Soc.l2_misses - b.Platform.Soc.l2_misses;
        l2_accesses = r.Platform.Soc.l2_accesses - b.Platform.Soc.l2_accesses;
        dram_requests = r.Platform.Soc.dram_requests - b.Platform.Soc.dram_requests;
        tlb_walks = r.Platform.Soc.tlb_walks - b.Platform.Soc.tlb_walks;
      }
  in
  let result =
    {
      diffed with
      Platform.Soc.cycles;
      seconds = Util.Units.cycles_to_seconds ~freq_hz:freq cycles;
    }
  in
  publish_counters telemetry ~before:snapshot
    ~after:(if Registry.enabled telemetry then Platform.Soc.counters soc else []);
  Platform.Soc.release soc;
  { result; complete; setup_wall_s; measure_wall_s }

let run_kernel ?scale ?telemetry config kernel =
  (run_kernel_timed ?scale ?telemetry config kernel).result

let run_app ?(scale = 1.0) ?(codegen = Workloads.Codegen.default) ?(telemetry = Registry.disabled)
    ~ranks config (app : Workloads.Workload.app) =
  Log.info (fun m ->
      m "app %s x%d on %s (scale %.2f, %s)" app.Workloads.Workload.app_name ranks
        config.Platform.Config.name scale codegen.Workloads.Codegen.name);
  let soc = Platform.Soc.create config in
  let ph = Registry.phase_start telemetry ~ts:0 "run" in
  let sp = Registry.span_start telemetry "run" in
  let r = Platform.Soc.run_ranks ~telemetry soc (app.Workloads.Workload.make ~codegen ~ranks ~scale) in
  Registry.span_end telemetry sp
    ~args:
      [
        ("cycles", Telemetry.Trace.Int r.Platform.Soc.cycles);
        ("instructions", Telemetry.Trace.Int r.Platform.Soc.instructions);
      ]
    ();
  Registry.phase_end telemetry ph ~ts:r.Platform.Soc.cycles ~args:(phase_args r) ();
  if Registry.enabled telemetry then Registry.set_all telemetry (Platform.Soc.counters soc);
  Platform.Soc.release soc;
  r

(* ------------------------------------------------------- pooled grids *)

let kernel_cell_label (config : Platform.Config.t) (kernel : Workloads.Workload.kernel) =
  config.Platform.Config.name ^ "/" ^ kernel.Workloads.Workload.name

let run_kernel_grid ?scale ?budget ?jobs ?telemetry grid =
  Parallel.Pool.run ?jobs ?telemetry
    (List.map
       (fun (config, kernel) ->
         Parallel.Pool.cell ~label:(kernel_cell_label config kernel) (fun (ctx : Parallel.Pool.ctx) ->
             run_kernel_timed ?scale ~telemetry:ctx.Parallel.Pool.telemetry ?budget config kernel))
       grid)

let run_app_grid ?scale ?jobs ?telemetry grid =
  Parallel.Pool.run ?jobs ?telemetry
    (List.map
       (fun (config, codegen, ranks, (app : Workloads.Workload.app)) ->
         let label =
           Printf.sprintf "%s/%s x%d" config.Platform.Config.name app.Workloads.Workload.app_name
             ranks
         in
         Parallel.Pool.cell ~label (fun (ctx : Parallel.Pool.ctx) ->
             run_app ?scale ~codegen ~telemetry:ctx.Parallel.Pool.telemetry ~ranks config app))
       grid)

let relative_speedup ~(sim : Platform.Soc.result) ~(hw : Platform.Soc.result) =
  if sim.Platform.Soc.seconds <= 0.0 then invalid_arg "relative_speedup: empty simulation run";
  hw.Platform.Soc.seconds /. sim.Platform.Soc.seconds

let kernel_relative ?scale ~sim ~hw kernel =
  let s = run_kernel ?scale sim kernel in
  let h = run_kernel ?scale hw kernel in
  relative_speedup ~sim:s ~hw:h

let app_relative ?scale ?(mismatched_codegen = true) ~ranks ~sim ~hw app =
  (* The paper's setup (Table 3): the FireSim image carries GCC 9.4
     binaries, the boards GCC 13.2 ones. *)
  let sim_cg = if mismatched_codegen then Workloads.Codegen.gcc_9_4 else Workloads.Codegen.default in
  let hw_cg = if mismatched_codegen then Workloads.Codegen.gcc_13_2 else Workloads.Codegen.default in
  let s = run_app ?scale ~codegen:sim_cg ~ranks sim app in
  let h = run_app ?scale ~codegen:hw_cg ~ranks hw app in
  relative_speedup ~sim:s ~hw:h
