(** Conditional-branch direction predictors.

    The Rocket frontend uses BTB + BHT (bimodal) + RAS; BOOM uses a TAGE-L
    predictor.  We provide bimodal, gshare and a TAGE-lite (tagged geometric
    history lengths over a bimodal base) so the platform catalog can model
    both generations, plus trivial static predictors for baselines. *)

type t

type config =
  | Static_taken
  | Static_not_taken
  | Bimodal of { entries : int }  (** 2-bit counters indexed by PC *)
  | Gshare of { entries : int; history_bits : int }
  | Tage of { base_entries : int; tables : int; table_entries : int; max_history : int }

val create : config -> t
(** On the tables of a released predictor of an equal config, if any. *)

val release : t -> unit
(** Hand [t] to a later {!create} ({!Util.Spare}); [t] is dead after. *)

val spare_words : unit -> int
(** Heap words held by released predictors ({!Util.Spare.words}). *)

val reset : t -> unit
(** Back to the state {!create} returns. *)

val predict : t -> pc:int -> bool
(** Predicted direction for the branch at [pc] given current history. *)

val update : t -> pc:int -> taken:bool -> unit
(** Train with the resolved outcome and advance global history. *)

val resolve : t -> pc:int -> taken:bool -> bool
(** Fused {!predict} + {!update}: returns the direction that {!predict}
    would have returned, then trains with [taken].  State transitions are
    identical to calling the two separately; the fused form walks the
    predictor tables once and allocates nothing, which is what the replay
    hot loop wants. *)
