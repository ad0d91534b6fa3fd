(** Analytic in-order pipeline timing model (Rocket-class, SpacemiT-K1-class).

    Instructions are processed in program order with explicit timestamps:
    a scoreboard tracks when each architectural register's value becomes
    available, an issue-slot allocator enforces the issue width, and
    structural hazards (single memory port, unpipelined divider, store
    buffer capacity) are modeled with availability timestamps.  Loads are
    non-blocking: the core keeps issuing independent instructions under a
    miss and stalls only at the first true dependence (hit-under-miss, as
    in Rocket's HellaCache).

    The branch-misprediction penalty (redirect from execute back to
    fetch) tracks pipeline depth — the 5-stage Rocket vs. 8-stage K1
    difference in the paper is exactly this parameter together with
    [issue_width]. *)

type config = {
  name : string;
  freq_hz : float;
  fetch_width : int;
  issue_width : int;  (** 1 = Rocket, 2 = SpacemiT K1 *)
  pipeline_stages : int;
  mispredict_penalty : int;  (** redirect cost of a mispredicted branch *)
  mem_ports : int;
  store_buffer : int;
  load_queue : int;  (** max outstanding loads before issue stalls *)
  latencies : Isa.Insn.Latency.table;
  frontend : Branch.Frontend.config;
}

val rocket : ?name:string -> ?freq_hz:float -> unit -> config
(** Rocket defaults: 5-stage, single-issue, 2-wide fetch. *)

val k1 : ?name:string -> ?freq_hz:float -> unit -> config
(** SpacemiT K1 defaults: 8-stage, dual-issue. *)

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
(** Current completion frontier in cycles: all work issued so far is done
    by this cycle. *)

val advance_to : t -> int -> unit
(** Idle (e.g. blocked in MPI) until the given cycle. *)

val stats : t -> stats
val config_of : t -> config

val release : t -> unit
(** {!Branch.Frontend.release} the frontend; [t] is dead after. *)
