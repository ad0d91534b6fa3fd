(** Reference interpreters for {!Simbridge.Runner.run_kernel_timed}.

    The runner compiles every kernel stream into a {!Trace.t}, replays
    it in ranges and lets {!Sampling.Engine.run} walk the interval
    schedule segment by segment.  These references take the slow,
    obvious route instead — one instruction at a time on a fresh SoC —
    so a disagreement points at the fast path.  Both difference the
    measured region against the post-setup state exactly as the runner
    does: aggregate counters are differenced, [per_core] is cumulative,
    and [cycles]/[seconds] come from the measured region's cycle count
    (the estimate, for a sampled policy). *)

val run_kernel :
  ?scale:float -> Platform.Config.t -> Workloads.Workload.kernel -> Platform.Soc.result
(** Full-detail reference: the setup stream, then the measured stream,
    each driven as a lazy [Isa.Insn.t Seq.t] through core 0's
    {!Platform.Soc.core_iface} [feed], one instruction at a time. *)

val run_kernel_sampled :
  ?scale:float ->
  ?budget:int ->
  policy:Sampling.Policy.t ->
  Platform.Config.t ->
  Workloads.Workload.kernel ->
  Platform.Soc.result * Sampling.Estimate.t
(** Sampled reference: the setup trace is warmed and each measured
    position is dispatched by {!Sampling.Interval.mode_of} to a
    single-index {!Platform.Soc.feed_trace} or {!Platform.Soc.warm_trace}
    call.  Segments close whenever the (mode, interval) pair changes,
    and the estimate is rebuilt from those segments.  [budget] follows
    the engine's rule: traversal stops at the first interval boundary at
    or past it. *)
