(** The serve wire protocol: newline-delimited JSON frames (schema
    ["simbridge-serve/1"]) over a Unix or TCP socket, encoded with the
    repo's own {!Util.Jsonx} — no external JSON dependency.

    One request frame per line, one response frame per line; a client
    may pipeline requests and match responses by the echoed [id].
    Frames never contain raw newlines (Jsonx escapes them), so a line is
    always a complete frame — the server's no-partial-frame guarantee is
    "every line either fully written or not written at all".

    {b Determinism contract.}  For a [Figure] query, the [payload] of a
    successful response is byte-identical to the one-shot CLI's stdout
    for the same query ([simbridge csv FIG --scale S] for [`Csv]) at any
    [--jobs] and any client interleaving: figures are
    pure functions of [(figure, scale, global seed)] and the pool
    reassembles cells in grid order.  The [report] section is the only
    part that varies run-to-run (wall-clock, cache temperatures). *)

val schema : string
(** ["simbridge-serve/1"].  Frames carrying any other value are
    rejected — bump the suffix on a breaking change. *)

type query =
  | Figure of { fmt : [ `Csv | `Render ]; figure : string; scale : float }
      (** One figure panel ({!Simbridge.Experiments.figure_ids}); [`Csv]
          is the machine payload ([figure_csv]), [`Render] the ASCII
          chart ([render_figure]). *)
  | Cell of { platform : string; kernel : string; scale : float }
      (** A single microbench grid cell, computed as a one-cell grid;
          its payload is the cell's CSV row under a header. *)

type op =
  | Ping  (** liveness probe; payload ["pong"] *)
  | Stats  (** service counters as a JSON payload *)
  | Shutdown  (** begin graceful drain; payload ["draining"] *)
  | Run of query

type request = { rq_id : string; rq_op : op }
(** [rq_id] is client-chosen, non-empty, echoed verbatim in the
    response. *)

type report = Util.Jsonx.t
(** The per-request run-report-shaped section: request id, computation
    key, served-from (computed / cached / inline), queue wait,
    compute wall, phase breakdown, trace-cache delta, span id. *)

type response = { rs_id : string; rs_result : (string * report, string) result }
(** [Ok (payload, report)] or [Error message].  [rs_id] is [""] only on
    the error answer to a frame that could not be parsed. *)

(** {2 Encoding}  ([print_*] emits a single line without the trailing
    newline; [parse_*] accepts exactly one frame.) *)

val print_request : request -> string
val parse_request : string -> (request, string) result

val print_response : response -> string
val parse_response : string -> (response, string) result

val query_key : query -> string
(** Canonical computation key: two requests with the same key are
    answered by one computation (the response cache's index).  Scales are keyed by their exact bit
    pattern (hex float), so distinct floats never alias. *)

(** {2 Endpoints} *)

type addr = [ `Unix of string | `Tcp of string * int ]

val addr_of_string : string -> (addr, string) result
(** ["unix:PATH"] or a bare path → [`Unix]; ["tcp:HOST:PORT"] →
    [`Tcp].  The CLI's [--listen]/[--connect] syntax. *)

val addr_to_string : addr -> string
