(** Released components for a later create to reset in place, so that a
    grid run (one SoC per cell) leaves no large arrays to a lagging major
    GC.  Keyed by what a component can stand in for (its size, or its
    config); a key is held at most as often as it was live at once.
    Safe across domains. *)

type ('k, 'a) t

val create : unit -> ('k, 'a) t
val put : ('k, 'a) t -> 'k -> 'a -> unit

val take : ('k, 'a) t -> 'k -> 'a option
(** A value put under a structurally equal key, removed from the pool. *)

val words : ('k, 'a) t -> int
(** Heap words reachable from the pool's keys and values, headers
    included ([Obj.reachable_words]): a walk of everything held, for heap
    accounting, not for hot paths. *)
