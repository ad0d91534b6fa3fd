(** Simulated message passing (MPI-style) for rank programs.

    A parallel workload is an array of rank programs; each rank program is
    a list of segments, alternating lazy compute streams with communication
    operations.  The {!Engine} co-simulates all ranks over the caller's
    per-rank clocks: compute segments advance a rank's clock through its
    core timing model, and communication completes according to message
    matching plus a fabric cost model supplied by the platform (on-chip
    shared-memory MPI: latency plus bandwidth through the memory system).

    Simplifications (documented in DESIGN.md): sends are eager (buffered),
    so symmetric Send/Recv halo exchanges do not deadlock; matching is by
    (source, tag) in posting order; collectives are matched by per-rank
    collective index and costed as log2(n)-stage trees. *)

type op =
  | Send of { dst : int; bytes : int; tag : int }
  | Recv of { src : int; bytes : int; tag : int }
  | Sendrecv of { peer : int; send_bytes : int; recv_bytes : int; tag : int }
  | Barrier
  | Bcast of { root : int; bytes : int }
  | Reduce of { root : int; bytes : int }
  | Allreduce of { bytes : int }
  | Alltoall of { bytes_per_rank : int }
  | Allgather of { bytes : int }

type segment =
  | Compute of Isa.Insn.t Seq.t
  | Comm of op

type program = segment list array
(** One segment list per rank. *)

val pp_op : Format.formatter -> op -> unit

(** Fabric cost model, supplied by the platform.  [transfer] is
    route-aware: a single-SoC fabric ignores [src]/[dst]; a multi-node
    fabric (see {!Firesim}) charges the NIC/switch path when they live on
    different nodes.  Collectives probe representative pairs per
    recursive-doubling stage (distance 2^s), so node boundaries surface in
    their cost too. *)
type fabric = {
  latency_cycles : int;  (** per-message software+wakeup latency *)
  transfer : src:int -> dst:int -> cycle:int -> bytes:int -> int;
      (** Move [bytes] from rank [src] to rank [dst] starting no earlier
          than [cycle]; returns completion cycle.  Stateful: concurrent
          transfers contend. *)
}

(** Per-rank execution interface, supplied by the platform from its core
    timing models. *)
type rank_iface = {
  feed_until : Isa.Insn.t Seq.t -> horizon:int -> Isa.Insn.t Seq.t option;
      (** Retire a compute burst on this rank's core, one instruction at
          a time in order, until the stream ends ([None]) or the core's
          clock ([now]) reaches [horizon] ([Some tail]).  The yield rule:
          the clock is tested against [horizon] before each element is
          forced, so a burst that ends exactly as the clock reaches the
          horizon yields its (empty, unforced) tail rather than [None],
          and a horizon already reached feeds nothing and hands the
          stream back as is.  No element past the last one fed is
          forced, so each instruction is generated in the quantum that
          feeds it.  The engine calls it once per rank per lockstep
          quantum, only while the rank's clock is below the horizon;
          [~horizon:max_int] feeds a whole stream. *)
  now : unit -> int;
  advance_to : int -> unit;
}

type comm_stats = {
  messages : int;
  bytes_moved : int;
  collectives : int;
  comm_cycles_max : int;  (** upper bound: cycles any rank spent blocked *)
}

exception Deadlock of string

module Engine : sig
  val run :
    ?quantum:int ->
    ?telemetry:Telemetry.Registry.t ->
    fabric ->
    rank_iface array ->
    program ->
    comm_stats
  (** Co-simulate all ranks to completion.  Compute advances in lockstep
      cycle windows of [quantum] cycles (default 100): every rank runs
      until its clock crosses the shared horizon, then the horizon moves.
      This bounds the timestamp skew seen by the shared caches, bus and
      DRAM, so their contention models stay meaningful under concurrency.
      Raises {!Deadlock} when no rank can make progress (mismatched
      program).

      With [telemetry], fills message-size and wait-time histograms
      ([smpi.msg_bytes], [smpi.recv_wait_cycles], [smpi.coll_wait_cycles]),
      publishes the {!comm_stats} as [smpi.*] counters, and records one
      trace event per communication operation (lane = rank). *)
end
