(** The sampled-simulation engine: drives a compiled instruction trace
    through a core in one pass, switching between detailed timing and
    functional warming per the policy's interval schedule. *)

(** The core under simulation, as range-based callbacks over a compiled
    trace (e.g. {!Platform.Soc.feed_trace} / {!Platform.Soc.warm_trace}
    partially applied to one trace).  Keeping the trace behind callbacks
    leaves this library independent of the trace representation. *)
type core = {
  feed_range : lo:int -> hi:int -> unit;  (** detailed timing over [lo, hi) *)
  warm_range : lo:int -> hi:int -> unit;
      (** functional warming over [lo, hi): caches / TLBs / branch
          predictor only *)
  now : unit -> int;  (** completion frontier, cycles *)
}

val run :
  ?telemetry:Telemetry.Registry.t ->
  ?budget:int ->
  policy:Policy.t ->
  core ->
  len:int ->
  Estimate.t
(** [run ~policy core ~len] traverses trace positions [0, len), walking the
    interval schedule segment by segment ({!Interval.segment}): detailed
    intervals and warmup windows go to [core.feed_range], everything else
    to [core.warm_range].  Returns the extrapolated cycle estimate.

    [budget] stops traversal at the first interval boundary at or past
    that many instructions; the estimate is then marked incomplete and its
    {!Estimate.cpi} — not its absolute cycle count — is the comparable
    figure.  With [policy = Full] the whole trace is fed in detail and
    the estimate is exact.  Raises [Invalid_argument] on an invalid
    policy, a negative [len] or a non-positive [budget].

    When [telemetry] is a live registry, publishes ["sampling.*"] counters
    (detailed vs warmed instruction and cycle split, interval counts, and
    the achieved simulated-work speedup x100). *)
