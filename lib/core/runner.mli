(** Running workloads on platforms and comparing the results.

    This is the paper's measurement harness: run the identical instruction
    stream on a simulation-model platform and on its silicon-reference
    platform, then report the relative speedup

      rel = t_hardware / t_simulated

    so that 1.0 is a perfect match and 1.2 means the simulation ran 20%
    faster than the hardware (the paper's convention, §5). *)

type timed = {
  result : Platform.Soc.result;  (** measured region; [cycles] from the estimate *)
  estimate : Sampling.Estimate.t;  (** exact for [Full], error-bounded otherwise *)
  setup_wall_s : float;  (** host wall-clock spent in the setup phase *)
  measure_wall_s : float;  (** host wall-clock spent in the measured phase *)
}

type engine = [ `Trace | `Seq ]
(** How the measured stream is driven through the timing model.
    [`Trace] (the default) compiles the kernel's [Seq.t] stream into a
    flat {!Trace.t} once — cached across grid cells sharing (kernel,
    scale) — and replays it allocation-free; [`Seq] re-forces the lazy
    stream per traversal, as the seed did.  [`Trace] and [`Seq] are
    bit-identical; only host throughput differs (see [bench perf]). *)

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
    reports.  The counters are process-wide and scheduling-dependent at
    [jobs > 1] (racing domains may compile the same key twice), so this
    is called once at report time — never from inside pooled cells,
    where it would break telemetry determinism across job counts. *)

val run_kernel_timed :
  ?scale:float ->
  ?telemetry:Telemetry.Registry.t ->
  ?policy:Sampling.Policy.t ->
  ?budget:int ->
  ?engine:engine ->
  Platform.Config.t ->
  Workloads.Workload.kernel ->
  timed
(** {!run_kernel} generalized with a sampling policy (default [Full]) and
    an optional traversal budget (see {!Sampling.Engine.run}), reporting
    per-phase host wall-clock time alongside the result.  The kernel's
    setup stream always runs in full detail; only the measured stream is
    sampled.  With a sampled policy the result's [cycles]/[seconds] are
    the extrapolated estimate and memory-hierarchy counters still cover
    the whole stream (functional warming touches caches and TLBs), but
    core-retire counters cover only the detailed intervals. *)

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
  ?policy:Sampling.Policy.t ->
  ?budget:int ->
  ?jobs:int ->
  ?telemetry:Telemetry.Registry.t ->
  ?engine:engine ->
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
  ?policy:Sampling.Policy.t ->
  ?budget:int ->
  ?engine:engine ->
  sim:Platform.Config.t ->
  hw:Platform.Config.t ->
  Workloads.Workload.kernel ->
  float
(** With a sampled [policy] (and/or [budget]) both sides run under the
    identical schedule and stop at the identical stream position, so the
    ratio of estimated times is directly comparable to the full-run
    relative speedup. *)

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
