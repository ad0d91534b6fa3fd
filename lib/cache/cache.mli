(** Set-associative cache timing model.

    The model is timestamp-driven rather than cycle-stepped: every access
    arrives with the cycle at which the core (or the upstream cache) issues
    it and returns the cycle at which the data is available.  State —
    tags, LRU order, dirty bits, bank availability, MSHR occupancy — is
    updated as a side effect.  This matches the analytic core models, which
    advance instruction-by-instruction with explicit timestamps.

    Banking: an access occupies its bank for one cycle (pipelined); two
    accesses racing for one bank serialize, which is counted as a bank
    conflict.  MSHRs bound miss-level parallelism: when all MSHRs are
    outstanding a new miss waits for the earliest to retire (the FireSim
    LLC/DRAM token throttling has the same effect at the memory boundary).

    The last-level-cache simplification the paper describes (the FireSim
    LLC "behaves like an SRAM", no tag/data latency detail) is expressed by
    instantiating a cache with [latency = 1] and a single bank. *)

type config = {
  name : string;
  sets : int;  (** power of two *)
  ways : int;
  line : int;  (** line size in bytes, power of two *)
  hit_latency : int;  (** cycles from issue to data on a hit *)
  mshrs : int;  (** max outstanding misses; >= 1 *)
  banks : int;  (** power of two *)
  write_back : bool;
  prefetch_next : int;
      (** next-line prefetch depth on demand misses (0 = off).  Prefetched
          lines install immediately but carry their fill-completion
          timestamp: a demand hit on a still-in-flight line waits for the
          fill, so streams remain coupled to downstream bandwidth. *)
}

val config :
  ?hit_latency:int ->
  ?mshrs:int ->
  ?banks:int ->
  ?write_back:bool ->
  ?line:int ->
  ?prefetch_next:int ->
  name:string ->
  sets:int ->
  ways:int ->
  unit ->
  config

val size_bytes : config -> int
(** Capacity implied by sets × ways × line. *)

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;  (** valid lines displaced by a fill (demand or prefetch) *)
  writebacks : int;
  bank_conflicts : int;
  mshr_stalls : int;
  prefetches : int;
}

type t

type next_level = cycle:int -> addr:int -> write:bool -> int
(** Downstream fetch: issue a line refill at [cycle], get the completion
    cycle back. *)

val create : config -> t
(** A cold cache.  Its line arrays may be those of a released cache with
    the same number of lines (sets × ways), in any geometry.  Taking them
    over costs O(1), not a clear of every line: a way is valid only if
    it was touched after the cache was made cold, so whatever the
    arrays held before reads as invalid.  The cache behaves exactly like
    one on fresh arrays. *)

val release : t -> unit
(** [release t] hands [t]'s line arrays to a later [create] of the same
    number of lines, on any domain ({!Util.Spare}).  [t] must not be used
    afterwards.  The arrays are not cleared here either; see {!create}. *)

val reset : t -> unit
(** Back to the state {!create} returns: {!flush} and zeroed stats. *)

val access :
  ?prefetchable:bool -> t -> next:next_level -> cycle:int -> addr:int -> write:bool -> int
(** [access t ~next ~cycle ~addr ~write] returns the completion cycle of a
    demand access.  Writes allocate (write-allocate policy); dirty
    evictions send a write-back refill downstream without extending the
    demand access's critical path.  [prefetchable] (default true) says
    whether this access may train the stream prefetcher — instruction
    fetches do not (stream prefetchers train on data-side demand
    misses). *)

val probe : t -> addr:int -> bool
(** Would [addr] hit right now?  (No state change; for tests.) *)

val flush : t -> unit
(** Invalidate all lines (in O(1), as {!create} does) and reset
    bank/MSHR availability and the stream table (not stats). *)

val stats : t -> stats
val reset_stats : t -> unit
val miss_rate : t -> float
