(** The fidelity-regression engine: recompute figures through the
    {!Simbridge.Runner} grid drivers, compare every cell against the
    golden CSVs ({!Verdict}), evaluate the transcribed paper expectations
    ({!Expectations}), and emit a machine-readable JSON report plus a
    human diff table.

    This is the correctness backstop every perf PR runs against: the
    engines may be rewritten freely (sampling, domains, trace replay),
    but [simbridge validate] must keep reporting [Exact]/[Within_band]
    for every fig1-fig7 cell, and [--update-golden] is the single
    sanctioned way to refresh [results/*.csv]. *)

type cell_check = {
  cc_x : string;
  cc_series : string;
  cc_verdict : Verdict.t;
}

type band_check = {
  bc_x : string;
  bc_series : string;
  bc_value : float;
  bc_lo : float;
  bc_hi : float;
  bc_ok : bool;
  bc_prov : string;
}

type shape_check = {
  sc_desc : string;
  sc_ok : bool;
  sc_detail : string;  (** offending cells / computed aggregates *)
  sc_prov : string;
}

type figure_report = {
  fr_id : string;
  fr_golden : string;  (** golden CSV path checked against *)
  fr_updated : bool;  (** golden file rewritten this run *)
  fr_structural : string list;  (** missing/extra rows or series *)
  fr_cells : cell_check list;
  fr_bands : band_check list;
  fr_shapes : shape_check list;
}

type totals = {
  t_cells : int;
  t_exact : int;
  t_within : int;
  t_drifted : int;
  t_bands : int;
  t_band_misses : int;
  t_shapes : int;
  t_shape_misses : int;
  t_structural : int;
}

type report = {
  r_figures : figure_report list;
  r_totals : totals;
}

val expand_spec : string -> (string list, string) result
(** Parse the CLI's [--figures] spec: a comma list of figure numbers
    ([1], [3]) or ids ([fig4b]); numbers and bare [fig3]/[fig4] expand
    to both panels; ["all"] (or [""]) is every id of
    {!Simbridge.Experiments.figure_ids}.  The result preserves check
    order and dedupes. *)

val check_figure :
  ?telemetry:Telemetry.Registry.t ->
  expectations:Expectations.t ->
  golden_path:string ->
  updated:bool ->
  Simbridge.Experiments.figure ->
  figure_report
(** Verdict every cell of the (already recomputed) figure against the
    golden CSV at [golden_path], then evaluate the figure's expectation
    bands and shapes.  A missing or unreadable golden file is a
    structural failure.  Telemetry counters ([validate.cells.*],
    [validate.bands.*], [validate.shapes.*], [validate.structural])
    record what was checked. *)

val run :
  ?telemetry:Telemetry.Registry.t ->
  ?jobs:int ->
  ?update_golden:bool ->
  results_dir:string ->
  expectations:Expectations.t ->
  string list ->
  report
(** Recompute the listed figure ids at scale 1 (the golden scale) with
    {!Simbridge.Experiments.figures}, so fig3/fig4 panels share one grid
    run, and check them.  With [update_golden]
    (default false) each recomputed figure is first written back to its
    golden CSV — making the refresh an explicit, reviewable diff — and
    then checked against what was just written (so a successful update
    always reports [Exact]). *)

val ok : ?strict:bool -> report -> bool
(** Gate predicate: no drifted cells, band misses, shape misses, or
    structural mismatches.  [strict] additionally rejects [Within_band]
    cells — the simulator is deterministic, so a healthy tree is fully
    [Exact] and CI runs the strict form. *)

val render : ?strict:bool -> report -> string
(** Human summary: one line per figure plus a diff table of every
    non-exact cell, missed band, and violated shape. *)

val to_json : ?strict:bool -> report -> Util.Jsonx.t
(** The machine-readable fidelity report (schema
    ["simbridge-validate/1"]), uploaded as a CI artifact. *)

val summary_json : strict:bool -> report -> Util.Jsonx.t
(** The totals alone ([ok], [strict], cells, exact, within-band,
    drifted, band/shape misses, structural): the [fidelity] section of a
    run report, which the history ledger trends and gates on. *)
