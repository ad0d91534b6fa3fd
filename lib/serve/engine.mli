(** The serve execution engine: turns decoded requests into responses,
    independently of any socket machinery (the {!Server} owns sockets;
    tests drive the engine directly).

    One engine instance lives for the daemon's whole process, holding the
    two layers of reuse the service is built around:

    + the process-lifetime compiled-trace cache ({!Simbridge.Runner}) —
      shared implicitly, sized at daemon startup;
    + a response LRU keyed by {!Protocol.query_key} — valid because a
      served payload is a pure function of [(query, global seed)] and the
      seed is fixed for the daemon's lifetime.  It is also what
      deduplicates: a request for a key already computed is answered
      from the LRU, never recomputed while the entry stays.

    {b Threading.}  {!execute} must only ever be called from one thread
    at a time (the server's dispatcher) — it writes the daemon telemetry
    registry, which is single-writer.  {!answer_now}, {!enqueue},
    {!refuse}, {!reject}, {!stats_json} and the counters are safe from
    any thread, including while {!execute} runs: a computation yields
    the runtime lock between replay slices, so the server's reader
    threads answer while it runs. *)

type t

val create :
  ?jobs:int ->
  ?response_cache_capacity:int ->
  ?telemetry:Telemetry.Registry.t ->
  unit ->
  t
(** [jobs] bounds the pool workers per computation (default 0 = the
    pool's process default); [response_cache_capacity] bounds the
    response LRU (default 64 entries; 0 disables response caching);
    [telemetry] is the daemon registry every computation's forked sink
    merges into (default {!Telemetry.Registry.disabled}). *)

type pending = private { p_req : Protocol.request; p_enqueued_s : float }
(** A decoded request plus the wall-clock instant it entered the queue
    (for the report's [queue_wait_s]). *)

val enqueue : t -> Protocol.request -> pending
(** The pending form of a request that enters the queue now.  It counts
    in {!stats_json}'s [queued] until {!execute} or {!refuse} takes it,
    so a client can tell when a request it sent has reached the queue. *)

val refuse : t -> pending -> string -> Protocol.response
(** The error response for a pending request the server could not queue
    after all (it is draining): {!reject} under the request's id, and
    the request leaves [queued]. *)

val execute : t -> pending -> Protocol.response
(** Answer one request (which leaves [queued]).  Never raises: unknown
    figures/platforms/kernels and computation failures become [Error]
    responses.

    The response's report section records how it was served:
    ["computed"] (ran here, as one root [compute:<key>] span, and was
    added to the response LRU), ["cached"] (response LRU hit), or
    ["inline"] (ping/stats/shutdown — no simulation).  Its
    [queue_wait_s] is the time from [p_enqueued_s] to this call. *)

val answer_now : t -> Protocol.request -> Protocol.response option
(** Answer a request that needs no computation, or return [None] (the
    caller queues it for {!execute}).  [Ping] and [Stats] are answered
    ["inline"], a [Run] whose {!Protocol.query_key} is in the response
    LRU ["cached"] with the compute fields of the cached entry; [Shutdown]
    and LRU misses give [None].  {!execute} answers these cases the same
    way.  The report's [queue_wait_s] is 0.

    {b Threading.}  Callable from any thread while {!execute} runs on
    another: it takes the engine mutex for the LRU look-up and the
    counters, and never writes the telemetry registry.  The server calls
    it on each connection's reader thread. *)

val reject : t -> id:string -> string -> Protocol.response
(** The error response [Error msg] for a frame refused before it reached
    the engine (unparseable, oversized, or arriving while draining),
    counted in [requests] and [errors].  Safe from any thread. *)

val oracle : Protocol.query -> (string, string) result
(** The sequential reference payload: the same computation run with
    [jobs = 1], no caching layer consulted, telemetry disabled —
    byte-for-byte what the one-shot CLI prints.  The bench gate diffs
    every served payload against this. *)

val stats_json : t -> Util.Jsonx.t
(** Service counters: uptime, requests by served-kind, errors,
    computations running, requests queued, response-cache occupancy,
    trace-cache counters, jobs. *)

val requests_served : t -> int
(** Total requests answered (any op), for the shutdown summary. *)
