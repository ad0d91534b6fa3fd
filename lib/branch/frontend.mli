(** Composite frontend prediction: direction predictor + branch target
    buffer + return-address stack, with statistics.

    The timing models call {!resolve} once per retired control-flow
    instruction; the result says whether the frontend would have steered
    fetch correctly, and the models charge the pipeline-specific penalty
    when it would not. *)

type config = {
  direction : Predictor.config;
  btb_entries : int;  (** power of two *)
  ras_entries : int;
}

val rocket_config : config
(** BTB + bimodal BHT + RAS, as in the Rocket frontend. *)

val boom_config : config
(** TAGE-L-style predictor with a larger BTB, as in the BOOM frontend. *)

type t

type stats = {
  ctrl_seen : int;
  mispredicts : int;
  btb_misses : int;
  ras_mispredicts : int;
}

val create : config -> t

val release : t -> unit
(** {!Predictor.release} the direction predictor; [t] is dead after. *)

val resolve : t -> Isa.Insn.t -> bool
(** [resolve t insn] trains the structures with [insn]'s actual outcome and
    returns [true] when the frontend predicted both direction and target
    correctly.  [insn] must be a control-flow instruction. *)

val resolve_ctrl : t -> kind:Isa.Insn.kind -> pc:int -> taken:bool -> target:int -> bool
(** {!resolve} on unpacked scalar fields — the trace-replay form, no
    [Insn.t] required.  [kind] must be a control-flow kind. *)

val stats : t -> stats

val mispredict_rate : t -> float
(** Mispredicts / control-flow instructions seen (0 when none seen). *)
