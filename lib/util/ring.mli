(** A fixed-size multiset of ints kept sorted in a circular buffer: the
    completion times of in-flight operations (MSHRs, load/store queues,
    store buffers), where a new one waits for the earliest and takes its
    place.  The replacement, a later time, usually settles at the tail
    without moving anything: O(1) where an argmin scan is O(n), with the
    same results (which slot held the minimum is not observable). *)

type t

val create : int -> t
(** [create n]: [n] zeros.  Raises [Invalid_argument] if [n <= 0]. *)

val reset : t -> unit
(** Back to the state {!create} returns. *)

val min : t -> int

val replace_min : t -> int -> unit
(** Remove one copy of the minimum and insert the given value. *)
