(** TLB timing model.

    Table 5 of the paper specifies the simulation models' translation
    structures: 32-entry fully associative L1 D/I TLBs, plus (on the
    MILK-V model) a 1024-entry direct-mapped L2 TLB.  The vendor parts'
    TLB geometries are undisclosed ("N/A"), so the silicon references get
    generously sized structures.

    The model charges cycles only: an L1 TLB hit is free (folded into the
    cache hit latency), an L1 miss that hits the L2 TLB pays
    [l2_latency], and a full miss pays [walk_latency] (a page-table walk
    through cached tables — a fixed-cost approximation, documented in
    DESIGN.md). *)

type config = {
  name : string;
  l1_entries : int;  (** fully associative, LRU *)
  l2_entries : int;  (** direct mapped; 0 = no L2 TLB *)
  page_bytes : int;  (** power of two, typically 4096 *)
  l2_latency : int;
  walk_latency : int;
}

val config :
  ?page_bytes:int ->
  ?l2_latency:int ->
  ?walk_latency:int ->
  name:string ->
  l1_entries:int ->
  l2_entries:int ->
  unit ->
  config

val firesim_rocket : config
(** 32-entry fully associative L1, no L2 (Table 5, Banana Pi Sim Model). *)

val firesim_boom : config
(** 32-entry L1 + 1024-entry direct-mapped L2 (Table 5, MILK-V Sim
    Model). *)

val silicon : config
(** Generous structures for the undisclosed vendor parts. *)

type stats = {
  accesses : int;
  l1_misses : int;
  walks : int;
}

type t

val create : config -> t
(** On the arrays of a released TLB of an equal config, if any. *)

val release : t -> unit
(** Hand [t] to a later {!create} ({!Util.Spare}); [t] is dead after. *)

val spare_words : unit -> int
(** Heap words held by released TLBs ({!Util.Spare.words}). *)

val reset : t -> unit
(** Back to the state {!create} returns. *)

val translate : t -> addr:int -> int
(** Extra cycles the translation adds to an access (0 on an L1 TLB hit). *)

val stats : t -> stats
val reach_bytes : config -> int
(** Memory covered by the L1 TLB (entries x page size). *)
