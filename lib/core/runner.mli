(** Running workloads on platforms and comparing the results.

    This is the paper's measurement harness: run the identical instruction
    stream on a simulation-model platform and on its silicon-reference
    platform, then report the relative speedup

      rel = t_hardware / t_simulated

    so that 1.0 is a perfect match and 1.2 means the simulation ran 20%
    faster than the hardware (the paper's convention, §5). *)

type timed = {
  result : Platform.Soc.result;  (** measured region (the budgeted prefix, under a budget) *)
  complete : bool;  (** false when a budget may have cut the measured stream short *)
  setup_wall_s : float;  (** host wall-clock spent in the setup phase *)
  measure_wall_s : float;  (** host wall-clock spent in the measured phase *)
}

type engine = [ `Trace ]
(** The one way a kernel is timed: its [Seq.t] streams are compiled into
    flat {!Trace.t}s — cached across grid cells sharing (kernel, scale) —
    and replayed allocation-free.  This single-value type and
    {!run_kernel_timed}'s [?engine] exist only because the benchmark
    harness ([perfbench/cells.ml]) still passes [~engine:`Trace]; both go
    away with the next change to that harness. *)

type trace_cache_stats = { tc_hits : int; tc_misses : int; tc_evictions : int }

val trace_cache_stats : unit -> trace_cache_stats
(** Cumulative process-wide compiled-trace cache counters (all domains). *)

val trace_cache_clear : unit -> unit
(** Drop every cached trace and zero the counters (benchmark isolation). *)

val set_trace_cache_limits : ?entries:int -> ?words:int -> unit -> unit
(** Re-size the process-wide compiled-trace cache (defaults: 128
    entries, 24M words ≈ 192 MiB).  A one-shot CLI run never needs
    this; the serve daemon keeps the cache for its whole lifetime and
    sizes it to the deployment at startup ([--trace-cache-mib]).
    {b Startup-only}, like {!Parallel.Pool.set_default_jobs}: must be
    called before any cell runs.  Raises [Invalid_argument] on
    non-positive values. *)

val publish_trace_cache_stats : Telemetry.Registry.t -> unit
(** Snapshot {!trace_cache_stats} into the registry as the
    [trace.cache.hits]/[trace.cache.misses]/[trace.cache.evictions]
    counters, so the cache shows up in summaries, CSV export, and run
    reports.  The counters are process-wide: a key missed by several
    domains at once is compiled by the first and waited for by the
    others, so a run's hits and misses do not depend on [jobs], but
    which cell saw the miss does.  So this is called once at report
    time — never from inside pooled cells, where it would break
    telemetry determinism across job counts. *)

val replay_slice : int
(** Instructions {!replay} feeds between two [Thread.yield]s. *)

val replay : Platform.Soc.t -> Trace.t -> unit
(** Feed a whole trace to core 0 ({!Platform.Soc.feed_trace}) in slices
    of {!replay_slice} instructions, yielding the domain's runtime lock
    between them so other systhreads (a serve daemon's connection
    readers) run while a long replay computes.  The slices cut the loop
    at instruction boundaries only: the SoC ends in the same state as
    after one [feed_trace] over the whole trace. *)

val run_kernel_timed :
  ?scale:float ->
  ?telemetry:Telemetry.Registry.t ->
  ?budget:int ->
  ?engine:engine ->
  Platform.Config.t ->
  Workloads.Workload.kernel ->
  timed
(** {!run_kernel} with per-phase host wall-clock time alongside the
    result.  With [budget] = N only the measured stream's first N
    instructions are compiled (under a trace-cache key that includes N)
    and replayed exactly; the setup stream always runs in full.
    [complete] is [Trace.length < N]: a prefix that reached N may have cut
    the stream, even when N equals its length.  Without a budget the run
    is the whole stream and [complete] is true.  Raises
    [Invalid_argument] on a non-positive budget. *)

val run_kernel :
  ?scale:float ->
  ?telemetry:Telemetry.Registry.t ->
  Platform.Config.t ->
  Workloads.Workload.kernel ->
  Platform.Soc.result
(** Run a microbenchmark on core 0 of a fresh SoC.

    With [telemetry] (default {!Telemetry.Registry.disabled}), records
    "setup"/"measure" phases (target span + host wall time) and publishes
    the full {!Platform.Soc.counters} snapshot *of the measured region
    only* — counters are differenced against the post-setup state, so
    they agree exactly with the returned result's aggregates. *)

val run_app :
  ?scale:float ->
  ?codegen:Workloads.Codegen.t ->
  ?telemetry:Telemetry.Registry.t ->
  ranks:int ->
  Platform.Config.t ->
  Workloads.Workload.app ->
  Platform.Soc.result
(** Run an MPI application with [ranks] ranks on a fresh SoC, built with
    the given compiler quality (default {!Workloads.Codegen.default}).
    [telemetry] additionally reaches the MPI engine: message-size and
    wait-time histograms plus per-op trace events on one lane per rank. *)

(** {2 Pooled grids}

    The figure/table drivers build explicit lists of independent
    simulation cells and submit them here; the {!Parallel.Pool} runs
    them on worker domains (bounded by [jobs]; default: the pool's
    process-wide default, i.e. the CLI's [--jobs]).  Results come back
    in submission order and are bit-identical to a sequential run: every
    cell simulates a fresh SoC from seeded streams, so its output is a
    pure function of the grid entry.  With [telemetry], each cell
    records into a private forked sink, merged back in grid order. *)

val run_kernel_grid :
  ?scale:float ->
  ?budget:int ->
  ?jobs:int ->
  ?telemetry:Telemetry.Registry.t ->
  (Platform.Config.t * Workloads.Workload.kernel) list ->
  timed list
(** {!run_kernel_timed} over a (platform, kernel) grid. *)

val run_app_grid :
  ?scale:float ->
  ?jobs:int ->
  ?telemetry:Telemetry.Registry.t ->
  (Platform.Config.t * Workloads.Codegen.t * int * Workloads.Workload.app) list ->
  Platform.Soc.result list
(** {!run_app} over a (platform, codegen, ranks, app) grid. *)

val relative_speedup : sim:Platform.Soc.result -> hw:Platform.Soc.result -> float
(** t_hw / t_sim in target seconds (clock-aware, not cycle counts). *)

val kernel_relative :
  ?scale:float ->
  sim:Platform.Config.t ->
  hw:Platform.Config.t ->
  Workloads.Workload.kernel ->
  float

val app_relative :
  ?scale:float ->
  ?mismatched_codegen:bool ->
  ranks:int ->
  sim:Platform.Config.t ->
  hw:Platform.Config.t ->
  Workloads.Workload.app ->
  float
(** With [mismatched_codegen] (default true, as in the paper's Table 3)
    the simulation side runs the GCC 9.4 scalar binary while the silicon
    side runs the GCC 13.2 vectorizing one. *)
