(** Telemetry registry: named counters, histograms, and per-phase timers,
    plus a bounded event-trace ring ({!Trace}).

    Design constraints (see ISSUE 1):

    - {b Zero-cost when disabled.}  Instrumentation sites receive a
      registry handle; {!disabled} is a shared no-op sink.  Handles
      created against it are dead cells — updates are a single store on a
      throwaway record, nothing registers, no wall clock is read — so
      benchmark numbers are unaffected by the instrumentation.
    - {b Deterministic.}  Counters, histograms, and trace timestamps are
      functions of the simulated execution only (target cycles, token
      counts), never of host time.  Wall-clock readings are confined to
      {!phase_start}/{!phase_end} and reported separately, so tests can
      assert telemetry invariance across host scheduling policies.

    Naming convention: dot-separated paths, component first —
    ["cache.l1d.misses"], ["dram.chan0.row_hits"],
    ["firesim.model.core.fired"].  Counters under ["firesim.host."] are
    host-level (scheduler iterations, per-model stall polls) and are the
    only ones allowed to vary with the host scheduling policy. *)

type t

type counter
type histogram

type hist_stats = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

type phase_info = {
  ph_name : string;
  ph_ts0 : int;  (** target-cycle start *)
  ph_ts1 : int;  (** target-cycle end *)
  ph_wall_s : float;  (** host wall-clock spent in the phase *)
}

val create : ?trace_capacity:int -> unit -> t
(** A live registry.  [trace_capacity] bounds the event ring (default
    65536; 0 disables tracing while keeping counters live). *)

val disabled : t
(** The shared no-op sink: never registers, never allocates per event,
    never reads the clock.  Exporting it yields empty reports. *)

val enabled : t -> bool
val trace : t -> Trace.t

(** {2 Counters} *)

val counter : t -> string -> counter
(** Find-or-create.  Call once at setup and keep the handle; updates on
    the handle are branch-free stores. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : counter -> int -> unit
val value : counter -> int

val set_all : t -> (string * int) list -> unit
(** [set_all t kvs] sets each named counter to the given absolute value
    (creating it if needed).  Components publish stat snapshots this
    way. *)

val counters : t -> (string * int) list
(** All registered counters, sorted by name. *)

val find_counter : t -> string -> int option

(** {2 Histograms} *)

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit

val hist_stats : histogram -> hist_stats
(** Raises [Invalid_argument] on an empty histogram. *)

val histograms : t -> (string * hist_stats) list
(** All non-empty registered histograms, sorted by name. *)

(** {2 Phases} *)

type phase

val phase_start : t -> ?ts:int -> string -> phase
(** Open a phase at target cycle [ts] (default 0).  Reads the wall clock
    only on a live registry. *)

val phase_end : t -> phase -> ?ts:int -> ?args:(string * Trace.arg) list -> unit -> unit
(** Close a phase at target cycle [ts]: records a {!phase_info} and a
    Chrome 'X' (complete) event spanning [ts0, ts] in the trace. *)

val phases : t -> phase_info list
(** Completed phases, in completion order. *)

(** {2 Spans}

    Spans are the wall-clock complement of phases: hierarchical 'X'
    trace events (category ["span"]) on a process-global microsecond
    timeline, carrying their own id and their parent's id in [args] so
    the merged Chrome/Perfetto trace reconstructs the run tree even
    though parent and child were recorded into different forked sinks
    on different domains.

    Ids are deterministic — [<ns>s<seq>] where [ns] is the sink's
    namespace (empty for a root registry, ["c<i>."] for cell [i]'s
    {!fork}ed sink) — so the span {e tree} is identical across job
    counts; only timestamps and lanes vary with scheduling.

    Recording is context-gated: unless opened with [~root:true], a span
    only records when an enclosing span is active (locally or inherited
    from the parent at {!fork} time).  Plain library calls with no root
    span therefore record no span events at all, which keeps
    deterministic-trace tests (equal event lists across job counts)
    valid for callers that never opt in. *)

type span

val span_start : t -> ?root:bool -> string -> span
(** Open a span.  Returns a dead span (recording nothing) when the
    registry is disabled, or when no parent is active and [root] is
    false (default). *)

val span_end : t -> span -> ?args:(string * Trace.arg) list -> unit -> unit
(** Close a span: records one 'X' event with [("span", id)] and
    [("parent", parent_id)] prepended to [args]. *)

val span_id : span -> string
(** The span's deterministic id ([""] for a dead span) — callers that
    publish results outside the trace (e.g. the serve daemon's
    per-request response sections) use it to cross-link a payload to
    its subtree in the Perfetto timeline. *)

val span_with : t -> ?root:bool -> ?args:(string * Trace.arg) list -> string -> (unit -> 'a) -> 'a
(** [span_with t name f] wraps [f] in {!span_start}/{!span_end}; the
    span is closed (and recorded) even when [f] raises. *)

val span_current : t -> string
(** Innermost open span id, or the fork-inherited parent id, or [""]. *)

val set_span_lane : t -> int -> unit
(** Set the worker lane recorded as the [tid] of subsequent span
    events (default 0); {!Parallel.Pool} tags each cell's sink with the
    worker that ran it so the trace shows real lane occupancy. *)

(** {2 Per-domain sinks}

    A registry is single-domain mutable state: it must never be written
    from two domains at once.  Parallel experiment runs
    ({!Parallel.Pool}) give every cell a {!fork}ed private sink, record
    into it on whichever worker domain runs the cell, and {!merge} the
    sinks back into the parent {e in cell-index order after the workers
    join} — so the combined counters, histograms, phases, and trace are
    deterministic and identical to a sequential run, never interleaved
    by the host scheduler. *)

val fork : ?ns:string -> ?span_parent:string -> t -> t
(** A fresh, empty child sink: live iff [t] is live (forking
    {!disabled} returns {!disabled} — no allocation), with the same
    trace capacity.  The child shares no state with [t]; hand it to
    exactly one domain.

    [ns] (default [""]) is appended to [t]'s span-id namespace; give
    concurrent forks distinct namespaces (the pool uses ["c<i>."]) so
    their span ids cannot collide.  [span_parent] (default
    [span_current t]) is the parent id child spans attach to. *)

val merge : into:t -> t -> unit
(** [merge ~into child] folds a forked sink back into its parent:
    counter values are {e added}, histogram observations and completed
    phases appended, and trace events replayed in order
    ({!Trace.append}).  No-op when either side is {!disabled} (or both
    are the same registry).  Call only after the domain that wrote
    [child] has been joined. *)
