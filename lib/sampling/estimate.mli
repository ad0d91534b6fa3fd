(** Error-bounded cycle estimates from interval samples.

    The estimate decomposes the traversed stream into exactly measured
    cycles (detailed intervals plus warmup windows) and an extrapolated
    term covering the functionally warmed instructions (the engine
    extrapolates each stratum's warmed population by its own detailed
    sample's CPI; see {!Engine.run}).  The 95% confidence interval covers
    the extrapolated term only — the measured part carries no sampling
    error. *)

type t = {
  policy : Policy.t;
  total_insns : int;  (** instructions traversed (= stream length when [complete]) *)
  detailed_insns : int;  (** measured in detailed intervals *)
  warmup_insns : int;  (** detailed-mode but excluded from the statistics *)
  warmed_insns : int;  (** functional warming only *)
  measured_cycles : int;  (** frontier delta across detailed intervals *)
  warmup_cycles : int;  (** frontier delta across warmup windows *)
  intervals_detailed : int;
  intervals_warmed : int;
  mean_cpi : float;  (** mean of per-interval CPI samples *)
  cpi_stddev : float;  (** population stddev of per-interval CPI samples *)
  est_cycles : int;  (** measured + warmup + extrapolated warmed cycles *)
  ci95_cycles : float;  (** +- cycles at 95% confidence *)
  complete : bool;  (** false when an engine budget stopped traversal early *)
}

val of_samples :
  policy:Policy.t ->
  stats:Util.Stats.Online.t ->
  extrapolated:float ->
  total_insns:int ->
  detailed_insns:int ->
  warmup_insns:int ->
  warmed_insns:int ->
  measured_cycles:int ->
  warmup_cycles:int ->
  intervals_detailed:int ->
  intervals_warmed:int ->
  complete:bool ->
  t

val exact : policy:Policy.t -> cycles:int -> insns:int -> t
(** The degenerate estimate of a full (exact) run: no extrapolation, zero
    confidence interval. *)

val cpi : t -> float
(** Estimated overall CPI of the traversed region ([est_cycles] /
    [total_insns]).  For budget-limited (incomplete) estimates this is the
    figure of merit: relative speedups computed from CPI ratios are
    independent of the unseen stream tail. *)

val seconds : freq_hz:float -> t -> float
(** Estimated target time. *)

val rel_ci : t -> float
(** [ci95_cycles] relative to the estimate (0 when exact). *)

val detail_fraction : t -> float
(** Fraction of traversed instructions that ran through the detailed
    timing model (detailed + warmup). *)
