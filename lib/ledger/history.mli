(** Cross-run regression history: a JSONL ledger of {!Run_report}
    documents ([results/history.jsonl]) with trend rendering and a
    machine-checkable perf/fidelity gate.

    The ledger is append-only and self-contained — each line is a full
    run report, so the history survives schema-tolerant readers and a
    single line can be replayed as a report. *)

type entry = {
  h_run_id : string;
  h_time : string;
  h_rev : string;  (** git commit sha at run time *)
  h_command : string;  (** e.g. ["run fig1"] — trend series key *)
  h_host : string;  (** {!Host.fingerprint} — MIPS comparability key *)
  h_mips : float option;
  h_wall_s : float;
  h_cells : int option;  (** fidelity cells checked *)
  h_exact : int option;
  h_drifted : int option;
  h_cache_hit_rate : float option;
  h_json : Util.Jsonx.t;  (** the full report *)
}

val entry_of_report : Util.Jsonx.t -> (entry, string) result
(** Validate the schema tag and extract the trend fields. *)

val load : path:string -> (entry list, string) result
(** Parse the ledger, oldest first.  A missing file is [Ok []]; a
    malformed line is an [Error] naming the line. *)

val append : path:string -> Util.Jsonx.t -> unit
(** Append one report as a compact JSON line through
    {!Util.Outfile.write} (parent directories are created; failures
    raise [Sys_error] naming the path). *)

val render : entry list -> string
(** Text trend table (time, run, rev, command, MIPS, wall, fidelity,
    cache hits). *)

val to_csv : entry list -> string
(** RFC-4180 trend table for plotting. *)

val compare_ : entry -> entry -> string
(** Two-run diff table: MIPS/wall deltas in percent, fidelity delta in
    cells; flags command/host mismatches rather than pretending the
    numbers are comparable. *)

type check_result = {
  ck_ok : bool;
  ck_lines : string list;  (** FAIL/PASS/note lines, for humans and CI logs *)
}

val default_mips_drop : float
(** 0.15 — the >15% aggregate-MIPS regression threshold. *)

val check : ?mips_drop:float -> entry list -> check_result
(** Gate the newest entry against its recorded trajectory: fails when
    it reports drifted cells, when its Exact-cell count fell vs the
    most recent same-command entry with fidelity totals, or when its
    aggregate MIPS dropped more than [mips_drop] vs the most recent
    same-command {e same-host} entry.  An empty history passes. *)
