(** Compiled struct-of-arrays instruction traces.

    Workloads generate lazy streams ([Isa.Insn.t Seq.t]) that cost a
    record allocation, two option boxes, and a [Seq] node per instruction
    each time they are forced.  [compile] forces a stream once and packs
    it into two words per instruction (PC and packed metadata in one,
    address-or-target in the other), stored as fixed-size chunks of
    {!chunk_len} instructions; the timing models replay the chunks
    directly, allocating nothing per instruction, and the compiled trace
    can be replayed any number of times (setup, warming, detailed pass,
    multiple platforms).  Every microbenchmark kernel is timed this way.

    {b Sharing contract.}  Traces are immutable after [compile] and safe
    to share across domains and threads without synchronization; only
    the {e table} that maps keys to traces needs locking, never the
    traces themselves.  {!Simbridge.Runner}'s cross-cell LRU relies on
    this: its mutex guards table lookups and evictions, compilation
    happens outside the lock (a key's first miss compiles it, later ones
    wait for that trace), and an evicted trace stays valid for every holder
    that already fetched it — eviction only drops the table's reference.
    The same contract is what lets a persistent service ([simbridge
    serve]) keep one process-lifetime cache serving concurrent client
    requests: a compiled trace handed to an in-flight request can never
    be invalidated under it. *)

type t

val compile : ?limit:int -> Isa.Insn.t Seq.t -> t
(** One pass over the stream, or over its first [limit] instructions:
    nothing past the limit is forced.  Fills chunks in place and never
    concatenates them, and calls [Thread.yield] after each filled chunk,
    so other systhreads of the domain run while a long stream compiles.
    Raises [Invalid_argument] on a non-positive [limit], or if an
    instruction cannot be represented losslessly: a memory access on a
    non-memory kind, a control outcome on a non-control kind, a missing
    access/outcome on a kind that requires one, a memory access wider
    than {!max_mem_size} bytes, or a pc outside [0, {!max_pc}]. *)

val length : t -> int
(** O(1) — compare [Gen.length], which forces a full traversal. *)

val count_kind : (Isa.Insn.kind -> bool) -> t -> int
(** O(number of kinds), from the histogram filled at compile time. *)

(** {2 Packed access}

    The replay hot loops index the chunks below directly.  Instruction [i]
    is element [i mod chunk_len] of chunk [i / chunk_len]; every chunk
    holds [chunk_len] instructions but the last, which may hold fewer.
    An op word is [(pc lsl pc_shift) lor meta], the meta word using the
    layout exposed by the [*_of_meta] accessors; an aux word holds the
    memory address for memory kinds, the branch target for control kinds
    (the two are mutually exclusive), and 0 otherwise. *)

val chunk_len : int
(** Instructions per chunk (8,192), and so per {!Simbridge.Runner.replay}
    slice between two yields of the runtime lock. *)

val chunks : t -> int
(** Number of chunks: [length] divided by [chunk_len], rounded up. *)

val ops : t -> int -> int array
(** [ops t c] is chunk [c]'s op words.  Do not mutate. *)

val auxs : t -> int -> int array
(** [auxs t c] is chunk [c]'s aux words.  Do not mutate. *)

val kind_of_meta : int -> Isa.Insn.kind
val dst_of_meta : int -> int
val src1_of_meta : int -> int
val src2_of_meta : int -> int

(** Raw layout, for replay loops that want to decode inline rather than
    through the accessors above: the pc is [op lsr pc_shift] and the meta
    word [op land meta_mask]; the kind code is
    [meta land kind_mask] (an index into [kind_table]); registers are
    [(meta lsr *_shift) land reg_mask]; [taken] is [meta land taken_bit
    <> 0]; the size is [(meta lsr size_shift) land size_mask].  The
    meta fields are the op word's low bits, so each of these decodes the
    op word as it decodes the meta word.  Do not mutate [kind_table]. *)

val kind_table : Isa.Insn.kind array
val kind_mask : int
val dst_shift : int
val src1_shift : int
val src2_shift : int
val reg_mask : int
val taken_bit : int
val size_shift : int
val size_mask : int
val pc_shift : int
val meta_mask : int

val taken_of_meta : int -> bool
(** Control kinds only; [false] otherwise. *)

val size_of_meta : int -> int
(** Memory kinds only; 0 otherwise. *)

val max_mem_size : int
(** Largest representable memory-access size in bytes. *)

val max_pc : int
(** Largest representable pc: [2{^35} - 1]. *)

(** {2 Element access} *)

val pc : t -> int -> int
val meta : t -> int -> int
(** The meta word alone, without the pc. *)

val aux : t -> int -> int

val insn : t -> int -> Isa.Insn.t
(** Reconstruct the instruction at an index (allocates; for tests and
    non-hot consumers). *)

val iter : (Isa.Insn.t -> unit) -> t -> unit
val to_seq : t -> Isa.Insn.t Seq.t

val words : t -> int
(** Resident host size in words (two per instruction plus headers and
    chunk tables), for cache budgeting. *)

(** {2 Basic-block structure}

    [Blocks] segments a compiled trace into dynamic basic-block instances
    and interns them into a block table: instances with identical
    instruction content (pc, packed metadata, and — for control kinds —
    branch target; memory addresses excluded, since they vary per
    iteration) share one block id.  Leaders are the trace start, every
    instruction after a control instruction, every pc that is ever a
    taken control target, and a length cap.

    No timing model consumes the analysis.  Its one remaining user is
    the perfbench harness, which times it as the [trace.blocks_s]
    per-layer metric. *)
module Blocks : sig
  type trace := t

  type t = {
    n_blocks : int;  (** distinct blocks in the table *)
    n_instances : int;  (** dynamic block instances; they partition the trace *)
    ids : int array;  (** instance -> block id, [n_instances] long *)
    starts : int array;  (** instance -> first trace index, ascending *)
    lens : int array;  (** block -> instruction count, [n_blocks] long *)
    loads : int array;  (** block -> loads (incl. AMOs) per instance *)
    stores : int array;  (** block -> stores per instance *)
    occurs : int array;  (** block -> number of instances *)
    digests : int array;  (** block -> content digest *)
  }

  val default_max_len : int

  val analyze : ?max_len:int -> trace -> t
  (** Two passes over the packed chunks; block identity is exact (digest
      collisions fall back to content comparison).  Raises
      [Invalid_argument] if [max_len < 1]. *)
end
