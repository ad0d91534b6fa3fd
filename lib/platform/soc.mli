(** SoC instantiation and workload execution.

    [create] assembles the full timing stack described by a {!Config.t}:
    per-core L1I/L1D, the shared banked L2, the optional LLC, the system
    bus between the private and shared levels, and the DRAM channels
    behind everything.  [run_ranks] then co-simulates a multi-rank MPI
    program on it; [run_stream] is the single-stream convenience used by
    the microbenchmarks.

    A fresh [t] should be created per measurement: caches start cold
    (kernels are expected to include their own warmup phase, as the
    MicroBench suite does). *)

type t

type core_stats = {
  instructions : int;
  cycles : int;
  loads : int;
  stores : int;
  mispredicts : int;
}

type result = {
  platform : string;
  ranks : int;
  cycles : int;  (** completion cycle of the slowest rank *)
  seconds : float;  (** target wall-clock: cycles / core frequency *)
  instructions : int;  (** total retired over all ranks *)
  per_core : core_stats array;
  l1d_misses : int;
  l1d_accesses : int;
  l2_misses : int;
  l2_accesses : int;
  dram_requests : int;
  tlb_walks : int;  (** page-table walks over all cores (D + I side) *)
  comm : Smpi.comm_stats option;
}

val create : Config.t -> t

val release : t -> unit
(** Hand the SoC's caches back for reuse by a later [create]
    (Cache.release).  The SoC must not be used afterwards. *)

val config : t -> Config.t

val run_ranks : ?quantum:int -> ?telemetry:Telemetry.Registry.t -> t -> Smpi.program -> result
(** Run an MPI program with as many ranks as the program has (must not
    exceed the platform's core count).  [telemetry] is forwarded to the
    MPI engine (message/wait histograms, per-op trace events). *)

val counters : t -> (string * int) list
(** Named snapshot of every component counter in the SoC: per-level cache
    stats ([cache.l1i.*], [cache.l1d.*], [cache.l2.*], [cache.llc.*]),
    per-channel DRAM row-buffer and queue behaviour ([dram.chanN.*]),
    TLB, bus, and summed core stats.  Cumulative and monotone — difference
    two snapshots to isolate a measured region. *)

val run_stream : t -> Isa.Insn.t Seq.t -> result
(** Run a single instruction stream on core 0. *)

val warm_insn : t -> Isa.Insn.t -> unit
(** Functionally warm core 0 with one instruction: caches, TLBs, and
    branch predictor state advance, pipeline timing and retired counts do
    not (see {!Uarch.Inorder.warm}).  The sampled-simulation engine uses
    this between detailed intervals. *)

val run_trace : t -> Trace.t -> result
(** {!run_stream} over a compiled trace: cycle-identical results, no
    per-instruction allocation. *)

val feed_trace : t -> Trace.t -> lo:int -> hi:int -> unit
(** Detailed-feed trace indices [lo, hi) to core 0. *)

val warm_trace : t -> Trace.t -> lo:int -> hi:int -> unit
(** Functionally warm core 0 with trace indices [lo, hi). *)

val memsys_of_core : t -> int -> Uarch.Memsys.t
(** Expose a core's memory-system interface (for tests and calibration). *)

val core_iface : t -> int -> Smpi.rank_iface
(** Expose core [i] as an MPI rank interface — the building block the
    multi-node engine ({!Firesim.Multinode}) composes across SoCs. *)

val local_transfer : t -> cycle:int -> bytes:int -> int
(** A transfer through this SoC's shared bus (intra-node MPI traffic). *)

val mpi_latency_cycles : t -> int
(** The configured shared-memory MPI latency in this SoC's cycles. *)

val collect_result : t -> ranks:int -> comm:Smpi.comm_stats option -> result
(** Snapshot this SoC's statistics for its first [ranks] cores. *)
