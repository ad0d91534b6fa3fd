(** Analytic out-of-order window timing model (BOOM-class, SG2042-class).

    A ROB-occupancy model in the interval-simulation tradition: each
    retired instruction is assigned dispatch / execute / complete / retire
    timestamps subject to

    - fetch bandwidth and instruction-cache availability,
    - decode (dispatch) width,
    - ROB capacity (dispatch stalls while the entry [rob_entries] older is
      not yet retired),
    - per-class issue ports (integer / memory / floating point),
    - load-queue and store-queue capacity,
    - register dataflow (renaming removes false dependencies),
    - in-order retirement at [retire_width], and
    - branch-misprediction redirects: fetch resumes only after the
      mispredicted branch executes plus the front-end refill penalty.

    This captures the first-order behaviour that separates Small, Medium
    and Large BOOM in the paper: window size (ROB), widths, LSQ depth and
    predictor quality. *)

type config = {
  name : string;
  freq_hz : float;
  fetch_width : int;
  decode_width : int;
  retire_width : int;
  rob_entries : int;
  int_issue : int;
  mem_issue : int;
  fp_issue : int;
  ldq_entries : int;
  stq_entries : int;
  frontend_penalty : int;  (** redirect-to-dispatch refill, cycles *)
  latencies : Isa.Insn.Latency.table;
  frontend : Branch.Frontend.config;
}

val boom_small : ?name:string -> ?freq_hz:float -> unit -> config
val boom_medium : ?name:string -> ?freq_hz:float -> unit -> config
val boom_large : ?name:string -> ?freq_hz:float -> unit -> config

val sg2042 : ?name:string -> ?freq_hz:float -> unit -> config
(** Reference model of the SOPHON SG2042's C920 core: wider than Large
    BOOM, deeper queues. *)

type stats = {
  instructions : int;
  cycles : int;
  loads : int;
  stores : int;
  mispredicts : int;
  ipc : float;
}

type t

val create : config -> Memsys.t -> t
val feed : t -> Isa.Insn.t -> unit
(** Retire one instruction, advancing the model's clock. *)

val feed_until : t -> Isa.Insn.t Seq.t -> horizon:int -> Isa.Insn.t Seq.t option
(** Retire a stream's instructions in order until it ends ([None]) or
    the clock ({!now}) reaches [horizon] ([Some tail]).  The horizon is
    tested before each element is forced, so [tail] is unforced, and a
    horizon already reached feeds nothing and returns the stream itself.
    Cycle-identical to checking {!now} and calling {!feed} per
    instruction. *)

val feed_trace : t -> Trace.t -> lo:int -> hi:int -> unit
(** Retire trace indices [lo, hi): cycle-identical to {!feed}ing the same
    instructions, but decoding packed trace fields directly — no
    [Insn.t] reconstruction, no allocation in the loop. *)

val now : t -> int
val advance_to : t -> int -> unit

val stats : t -> stats
val config_of : t -> config

val release : t -> unit
(** {!Branch.Frontend.release} the frontend; [t] is dead after. *)
