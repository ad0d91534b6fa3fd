(** Machine-readable run reports (schema ["simbridge-run-report/1"]).

    Every CLI invocation (and the bench gates) distills its telemetry
    registry into one JSON document: run identity (id, time, git rev,
    host fingerprint), the echoed config, a per-phase wall/target-cycle
    breakdown, the counter snapshot (including the [trace.cache.*]
    counters, published here), cache hit rates, optional fidelity
    totals, and the exit status.  Reports are what
    {!History} appends to [results/history.jsonl] and what CI uploads
    as an artifact. *)

val schema : string

val run_id : unit -> string
(** ["YYYYMMDDThhmmssZ-p<pid>"] — sortable and unique enough for a
    ledger of sequential local runs. *)

val git_rev : ?root:string -> unit -> string
(** HEAD's commit sha, resolved by reading [.git/HEAD] (and the ref
    file or [.git/packed-refs]) under [root] (default ["."]) — no [git]
    binary required.  ["unknown"] when unresolvable. *)

val build :
  ?run_id:string ->
  ?wall_s:float ->
  ?fidelity:Util.Jsonx.t ->
  ?exit_status:int ->
  ?extra:(string * Util.Jsonx.t) list ->
  ?metrics:(string * Util.Jsonx.t) list ->
  command:string ->
  config:(string * Util.Jsonx.t) list ->
  telemetry:Telemetry.Registry.t ->
  unit ->
  Util.Jsonx.t
(** Assemble a report from a (merged) registry.  [wall_s] is the
    invocation's total wall time; [fidelity] is the validate totals
    ([Validate.Fidelity.summary_json]); [extra] appends caller-specific
    top-level sections (the bench gates put their own metrics there);
    [metrics] overrides/extends the report's [metrics] object — benches
    without a telemetry registry use it to record the
    ["aggregate_mips"] that {!History} trends and gates on.
    Calls {!Simbridge.Runner.publish_trace_cache_stats} on [telemetry]
    first, so cache counters are part of the snapshot.  Works on
    {!Telemetry.Registry.disabled} too (metrics degrade to [null]). *)

val write : path:string -> Util.Jsonx.t -> unit
(** Write the report, pretty-printed and newline-terminated, through
    {!Util.Outfile.write} (parent directories are created; failures
    raise [Sys_error] naming the path). *)

val summary_line : Util.Jsonx.t -> string
(** One human line: id, command, MIPS, wall, fidelity totals. *)

(** {2 Aggregates} (exposed for {!History} and tests) *)

type phase_row = {
  pr_name : string;
  pr_count : int;
  pr_target_cycles : int;
  pr_wall_s : float;
}

val phase_breakdown : Telemetry.Registry.t -> phase_row list
(** Completed phases grouped by name, in first-completion order. *)

val phases_json : phase_row list -> Util.Jsonx.t
(** The [phases] array of a run report (and of a serve request's
    report): [{name, count, target_cycles, wall_s}] per row. *)

val trace_cache_json : Simbridge.Runner.trace_cache_stats -> Util.Jsonx.t
(** [{hits, misses, evictions}]: the trace-cache object of serve's
    request reports and stats payload. *)

val measured_wall_s : Telemetry.Registry.t -> float
(** Total wall seconds in "measure"/"run" phases — the MIPS denominator. *)

val aggregate_mips : Telemetry.Registry.t -> float option
(** [core.instructions / measured_wall_s / 1e6]; [None] without both. *)
