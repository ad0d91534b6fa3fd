(** Lazy instruction-stream generation.

    A workload is a value of type [t] — a lazy, re-traversable sequence of
    retired instructions.  Laziness matters: traces run to millions of
    instructions and are replayed once per platform, so they are regenerated
    on demand rather than materialized.  All combinators preserve
    re-traversability: traversing a stream twice yields identical
    instructions provided the underlying producers are deterministic (which
    every workload in this project guarantees by seeding its own {!Util.Rng}
    stream). *)

type t = Isa.Insn.t Seq.t

val empty : t
val of_list : Isa.Insn.t list -> t
val append : t -> t -> t
val concat : t list -> t

val repeat : int -> t -> t
(** [repeat n s] is [s] concatenated [n] times. *)

val iterate : int -> (int -> t) -> t
(** [iterate n f] is [f 0 @ f 1 @ ... @ f (n-1)], built lazily so only one
    iteration's instructions are live at a time. *)

val bursts : ?latch:(int -> Isa.Insn.t list) -> int -> (int -> Isa.Insn.t list) -> t
(** [bursts ~latch n f] is [f 0 @ latch 0 @ f 1 @ latch 1 @ ... @ latch
    (n-1)] ([latch] defaults to no instructions), walked lazily as one
    [Seq] layer: no list is appended and no per-burst sequence is built.
    The lists may share instructions and tails across bursts. *)

val unfold : 's -> ('s -> (Isa.Insn.t list * 's) option) -> t
(** General lazy producer: step the state, emitting a burst of instructions
    each time, until the stepper returns [None]. *)

val length : t -> int
(** Forces the stream.  Intended for tests and reporting, not hot paths. *)

val take : int -> t -> t

val count_kind : (Isa.Insn.kind -> bool) -> t -> int
(** Forces the stream and counts matching instructions. *)
