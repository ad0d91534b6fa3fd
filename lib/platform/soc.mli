(** SoC instantiation and workload execution.

    [create] assembles the full timing stack described by a {!Config.t}:
    per-core L1I/L1D, the shared banked L2, the optional LLC, the system
    bus between the private and shared levels, and the DRAM channels
    behind everything.  [run_ranks] then co-simulates a multi-rank MPI
    program on it; [run_trace] replays a compiled single-stream trace
    (a microbenchmark kernel) on core 0.

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
(** Hand the SoC's caches, TLBs and branch predictors back for reuse by a
    later [create] ({!Util.Spare}), which resets them in place: every
    array above the minor heap's size limit that [create] needs then
    comes from a released SoC.  The SoC must not be used afterwards. *)

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

val run_trace : t -> Trace.t -> result
(** Run a compiled trace on core 0, allocation-free. *)

val feed_trace : t -> Trace.t -> lo:int -> hi:int -> unit
(** Detailed-feed trace indices [lo, hi) to core 0. *)

val core_iface : t -> int -> Smpi.rank_iface
(** Expose core [i] as an MPI rank interface — the building block of
    [run_ranks] and of the multi-node engine ({!Firesim.Multinode}),
    which composes it across SoCs.  Its [feed_until] is the core
    model's own burst loop ({!Uarch.Inorder.feed_until},
    {!Uarch.Ooo.feed_until}). *)

val feed_insn : t -> int -> Isa.Insn.t -> unit
(** Retire one instruction on core [i] ({!Uarch.Inorder.feed},
    {!Uarch.Ooo.feed}): the one-at-a-time reference that [core_iface]'s
    burst feed is tested against.  No simulation path calls it. *)

val local_transfer : t -> cycle:int -> bytes:int -> int
(** A transfer through this SoC's shared bus (intra-node MPI traffic). *)

val mpi_latency_cycles : t -> int
(** The configured shared-memory MPI latency in this SoC's cycles. *)

val collect_result : t -> ranks:int -> comm:Smpi.comm_stats option -> result
(** Snapshot this SoC's statistics for its first [ranks] cores. *)
