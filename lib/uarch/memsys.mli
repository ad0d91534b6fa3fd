(** Interface between a core timing model and its memory system.

    The platform layer assembles the actual hierarchy (L1s, shared L2,
    system bus, optional LLC, DRAM) and hands the core this record of
    timestamped operations.  All cycles are in the core's clock domain. *)

type t = {
  load : cycle:int -> addr:int -> int;
      (** Issue a demand load; returns data-available cycle. *)
  store : cycle:int -> addr:int -> int;
      (** Issue a store (post store-buffer); returns completion cycle. *)
  ifetch : cycle:int -> pc:int -> int;
      (** Fetch the instruction line containing [pc]; returns available
          cycle. *)
}

val ideal : latency:int -> t
(** A memory system with a flat [latency] for every operation — for unit
    tests and calibration baselines. *)
