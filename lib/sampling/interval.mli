(** Interval schedule: the pure partition of instruction positions into
    detailed / warmup / warming modes implied by a {!Policy.t}'s knobs. *)

type mode =
  | Detailed  (** full timing model; contributes a CPI sample *)
  | Warmup  (** full timing model, excluded from the statistics *)
  | Warming  (** functional warming only *)

type record = {
  index : int;
  insns : int;
  cycles : int;
  mode : mode;
}

val index_of : interval:int -> int -> int
(** Interval index of instruction position [pos]. *)

val stratum_offset : detail_every:int -> int -> int
(** Offset of the detailed interval within stratum [group]: the
    golden-ratio (Weyl) sequence, equidistributed over [0, detail_every). *)

val detailed : detail_every:int -> int -> bool
(** Is interval [index] a detailed one?  Selection is stratified: exactly
    one interval per consecutive group of [detail_every], at a
    deterministic low-discrepancy offset ({!stratum_offset}) —
    proportional phase coverage without the aliasing a fixed stride
    suffers against periodic kernels.  [detail_every = 1] selects every
    interval. *)

val mode_of : interval:int -> detail_every:int -> warmup:int -> int -> mode
(** Mode of instruction position [pos]: positions in detailed intervals are
    [Detailed]; the last [warmup] positions before a detailed interval are
    [Warmup]; everything else is [Warming].  Exception: interval 0 is
    always [Warmup] — it carries the cold-start transient, which is
    simulated in detail and counted exactly but excluded from the CPI
    statistics (a systematic sample would overweight it by
    [detail_every]). *)

val segment : interval:int -> detail_every:int -> warmup:int -> int -> mode * int
(** [segment pos] is [(mode_of pos, e)] where [e > pos] ends the constant
    run holding [pos]: every position in [[pos, e)] has that mode, and [e]
    never passes the end of [pos]'s interval, so each interval's
    detailed work closes as its own CPI sample.  The sampling driver
    walks the schedule segment by segment through this function. *)

val mode_name : mode -> string
