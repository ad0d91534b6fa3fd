(** Shared instruction-emission helpers for workload construction.

    All workloads (microbenchmarks and applications) build their streams
    from these primitives: smart constructors per instruction kind, a
    fresh-code-region helper, and the canonical counted-loop wrapper that
    appends the loop increment + backward branch every compiled loop has.

    Instructions are immutable, so an emitter builds each instruction
    whose fields do not depend on the iteration once and emits that same
    value every iteration; only addresses and branch outcomes are
    allocated per iteration.  No consumer relies on the physical
    identity of an instruction.

    Register conventions (shared so kernels compose predictably):
    r1 = loop counter, r3 = pointer-chase register, r4..r11 = independent
    accumulators, r12..r15 = temporaries, r20..r23 = load targets. *)

val rctr : int
val rptr : int
val racc : int -> int
(** [racc i] cycles through the 8 accumulator registers. *)

val rtmp : int
val rtmp2 : int
val rval : int
(** First load-target register (r20). *)

val scaled : float -> int -> int
(** [scaled scale n] scales an iteration count (minimum 16). *)

val fresh_region : slots:int -> Prog.Code.region
(** Allocate an isolated static code region. *)

val alu : pc:int -> ?dst:int -> ?src1:int -> ?src2:int -> unit -> Isa.Insn.t
val mul : pc:int -> dst:int -> src1:int -> unit -> Isa.Insn.t
val fp : pc:int -> kind:Isa.Insn.kind -> dst:int -> src1:int -> ?src2:int -> unit -> Isa.Insn.t
val load : pc:int -> dst:int -> addr:int -> ?src1:int -> unit -> Isa.Insn.t
val store : pc:int -> addr:int -> ?src1:int -> ?src2:int -> unit -> Isa.Insn.t
val branch : pc:int -> taken:bool -> target:int -> ?src1:int -> unit -> Isa.Insn.t
val jump : pc:int -> target:int -> unit -> Isa.Insn.t
val call : pc:int -> target:int -> unit -> Isa.Insn.t
val ret : pc:int -> target:int -> unit -> Isa.Insn.t

val with_loop :
  Prog.Code.region ->
  iters:int ->
  body_slots:int ->
  body:(int -> Isa.Insn.t list) ->
  Isa.Insn.t Seq.t
(** Counted loop: per iteration [body pos] plus increment + backward
    branch (taken except on the last iteration).  [body_slots] is the
    first free slot in the region for the loop overhead.  The increment
    and the two branch outcomes are single shared values. *)

val overhead : Codegen.t -> base:int -> (int -> Isa.Insn.t list) -> index:int -> Isa.Insn.t list
(** [overhead codegen ~base build ~index] is [build k], where [k] is
    [Codegen.ops_at codegen ~index ~base]: the instructions around a
    loop's dithered integer overhead of [k] ops.  [build] runs once per
    possible count, when the function is partially applied, and its
    lists are shared by every index that asks for the same count. *)
