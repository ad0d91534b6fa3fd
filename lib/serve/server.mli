(** The serve daemon's socket front end.

    One accept loop (the thread that calls {!run}), one reader thread
    per connection, and one dispatcher thread draining the shared
    {!Parallel.Jobq} into {!Engine.execute} batches.  Requests arriving
    close together — from one pipelining client or from many concurrent
    clients — land in the same batch and are coalesced by the engine.

    {b Answered on the reader thread.}  A [ping], a [stats], or a query
    already in the response cache is answered by the connection's own
    reader thread ({!Engine.answer_now}) when that connection has no
    request queued and the server is not stopping, so it does not wait
    behind another client's computation.  Anything else, or anything
    behind a queued request of the same connection, goes through the
    dispatcher; either way a connection's responses come back in its
    request order.

    {b Misbehaving peers.}  Accepted sockets carry a send timeout of
    {!send_timeout_s}: a client whose unread responses fill its socket
    buffer for that long is disconnected, and its remaining responses
    are dropped, so it cannot stall the dispatcher.  A request frame
    longer than {!max_frame_bytes} gets one error frame, and the server
    reads nothing more from that connection; it is closed once its
    queued requests are answered.  Unparseable frames are answered with
    an error frame with id [""].  These two error frames are written at
    once, so they may overtake responses still queued for that
    connection.

    {b Graceful shutdown.}  {!stop} (also triggered by a [shutdown]
    request frame; the CLI wires SIGTERM/SIGINT to it) drains rather
    than kills: the listener closes first (new connections refused),
    then the queue closes (late requests get a one-line ["server is
    draining"] error frame), the dispatcher finishes every queued
    request and writes every response, and only then are client sockets
    shut down and reader threads joined.  Responses are serialized
    fully before a single locked write+flush, so a client never
    observes a partial frame — even across a mid-batch shutdown.
    {!run} returns after the drain; the CLI then writes the final run
    report from the daemon registry. *)

type t

val create :
  ?jobs:int ->
  ?response_cache_capacity:int ->
  ?max_batch:int ->
  ?telemetry:Telemetry.Registry.t ->
  Protocol.addr ->
  t
(** Bind and listen immediately (raises [Unix.Unix_error] on failure; a
    stale Unix-socket path is unlinked first).  [max_batch] caps how
    many queued requests one {!Engine.execute} call may take (default
    64); the remaining options are passed to {!Engine.create}. *)

val engine : t -> Engine.t

val send_timeout_s : float
(** 2 s. *)

val max_frame_bytes : int
(** 1 MiB; real request frames are under 1 KiB. *)

val run : t -> unit
(** Serve until {!stop}: accepts in the calling thread (polling the
    stop flag every 250 ms), then performs the full drain sequence
    before returning.  Call once. *)

val stop : t -> unit
(** Request shutdown.  Only sets an atomic flag — safe from signal
    handlers and any thread; idempotent. *)

val stopped : t -> bool
