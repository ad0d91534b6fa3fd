(** The serve execution engine: turns batches of decoded requests into
    responses, independently of any socket machinery (the {!Server} owns
    sockets; tests drive the engine directly).

    One engine instance lives for the daemon's whole process, holding the
    three layers of reuse the service is built around:

    + the process-lifetime compiled-trace cache ({!Simbridge.Runner}) —
      shared implicitly, sized at daemon startup;
    + a response LRU keyed by {!Protocol.query_key} — valid because a
      served payload is a pure function of [(query, global seed)] and the
      seed is fixed for the daemon's lifetime;
    + batch coalescing — within one {!execute} call, requests with equal
      keys are answered by a single computation, and distinct [Cell]
      queries at the same scale are submitted to the pool as {e one}
      {!Simbridge.Runner.run_kernel_grid} dispatch.

    {b Threading.}  {!execute} must only ever be called from one thread
    at a time (the server's dispatcher) — it writes the daemon telemetry
    registry, which is single-writer.  {!answer_now}, {!reject},
    {!stats_json} and the counters are safe from any thread, including
    while {!execute} runs. *)

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

type pending = { p_req : Protocol.request; p_enqueued_s : float }
(** A decoded request plus the wall-clock instant it entered the queue
    (for the report's [queue_wait_s]). *)

val execute : t -> pending list -> Protocol.response list
(** Answer one batch.  Returns exactly one response per pending, in the
    same order.  Never raises: unknown figures/platforms/kernels and
    computation failures become [Error] responses for the requests
    concerned, leaving the rest of the batch intact.

    Each response's report section records how it was served:
    ["computed"] (first request for its key, ran here), ["coalesced"]
    (same key as an earlier request in this batch), ["cached"] (response
    LRU hit from an earlier batch), or ["inline"] (ping/stats/shutdown —
    no simulation). *)

val answer_now : t -> Protocol.request -> Protocol.response option
(** Answer a request that needs no computation, or return [None] (the
    caller queues it for {!execute}).  [Ping] and [Stats] are answered
    ["inline"], a [Run] whose {!Protocol.query_key} is in the response
    LRU ["cached"] with the compute fields of the cached entry; [Shutdown]
    and LRU misses give [None].  The report's [queue_wait_s] is 0.

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
    [jobs = 1], no batching, no caching layer consulted, telemetry
    disabled — byte-for-byte what the one-shot CLI prints.  The bench
    gate diffs every served payload against this. *)

val stats_json : t -> Validate.Jsonx.t
(** Service counters: uptime, batches, requests by served-kind, errors,
    response-cache occupancy, trace-cache counters, jobs. *)

val requests_served : t -> int
(** Total requests answered (any op), for the shutdown summary. *)
