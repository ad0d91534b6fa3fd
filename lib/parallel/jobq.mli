(** Thread-safe blocking job queue — the async front half of the
    service stack.

    The {!Pool} runs a {e fixed} grid of cells and joins; a persistent
    service ([simbridge serve]) instead has producer threads (one per
    client connection) feeding an open-ended stream of requests to a
    single dispatcher thread, which takes them one at a time.  This
    queue is that seam: multi-producer, single-or-multi-consumer,
    blocking, with close-and-drain semantics for graceful shutdown.

    Unlike the pool, the queue makes no determinism promises by itself —
    arrival order depends on client scheduling.  Determinism of the
    {e payloads} is the serve engine's contract (every response is a
    pure function of its query); the queue only guarantees that no
    pushed element is lost: everything accepted before {!close} is
    returned by some {!pop} call, in push order. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> bool
(** Enqueue one element and wake a blocked consumer.  Returns [false]
    (and drops the element) when the queue has been closed — producers
    use this to answer "shutting down" instead of enqueueing. *)

val pop : 'a t -> 'a option
(** Block until an element is available (or the queue is closed), then
    remove and return the oldest.  Returns [None] only when the queue is
    closed and empty — the consumer's signal to exit. *)

val close : 'a t -> unit
(** Refuse further pushes and wake every blocked consumer.  Elements
    already queued remain poppable ({!pop} keeps returning them until
    empty), so close-then-drain loses nothing.  Idempotent. *)
