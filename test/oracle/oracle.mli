(** Reference interpreter for {!Simbridge.Runner.run_kernel_timed}.

    The runner compiles every kernel stream into a {!Trace.t} and
    replays it from packed arrays.  This reference takes the slow,
    obvious route instead — one instruction at a time on a fresh SoC —
    so a disagreement points at the fast path.  It differences the
    measured region against the post-setup state exactly as the runner
    does: aggregate counters are differenced, [per_core] is cumulative,
    and [cycles]/[seconds] come from the measured region's cycle count. *)

val run_kernel :
  ?scale:float -> Platform.Config.t -> Workloads.Workload.kernel -> Platform.Soc.result
(** Full-detail reference: the setup stream, then the measured stream,
    each driven as a lazy [Isa.Insn.t Seq.t] through core 0's
    {!Platform.Soc.core_iface} [feed_until ~horizon:max_int], one lazy
    instruction at a time. *)

module Scan = Scan
(** Reference models of the memory path's bookkeeping ({!Scan.Tlb},
    {!Scan.Cache}, {!Scan.Dram}, {!Scan.Slots}): the linear scans that
    the TLB, caches, DRAM queue and in-flight queues replaced, for
    differential tests. *)
