(** A minimal blocking client for the serve protocol — what [simbridge
    query] and the bench/test harnesses use; [nc] works just as well for
    humans (the protocol is plain NDJSON).

    A client may pipeline: several {!send}s before the first {!recv}.
    Responses come back in request order on one connection (the server
    answers a request on the connection's reader thread only when none
    of that connection's requests is queued, and the dispatcher answers
    queued requests one at a time in arrival order), so matching by
    [id] is a safety net,
    not a necessity. *)

type t

val connect : Protocol.addr -> t
(** Raises [Unix.Unix_error] when the endpoint is not listening. *)

val send : t -> Protocol.request -> unit
(** Write one request frame and flush. *)

val recv : t -> (Protocol.response, string) result
(** Block for the next response frame.  [Error] on connection close or
    an unparseable frame. *)

val rpc : t -> Protocol.request -> (Protocol.response, string) result
(** {!send} then {!recv} — one in-flight request. *)

val close : t -> unit
