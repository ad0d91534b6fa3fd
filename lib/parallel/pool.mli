(** Domain-based worker pool for independent simulation cells.

    The paper's result set is a grid of independent (platform, workload,
    core count) simulations; this pool runs those cells concurrently on
    host cores (OCaml 5 Domains) while keeping every observable output
    bit-identical to a sequential run:

    - {b Deterministic ordering.}  Cells carry their grid index; results
      are reassembled in submission order, so consumers see exactly the
      list a sequential loop would have produced.
    - {b Deterministic randomness.}  Each cell receives a generator
      derived from [(global seed, cell index)] ({!Util.Rng.for_cell}) —
      a pure function of the grid position, independent of which domain
      runs the cell or in what order.
    - {b Deterministic telemetry.}  Each cell records into a private
      forked sink ({!Telemetry.Registry.fork}); sinks are merged into
      the parent registry in cell-index order at join time
      ({!Telemetry.Registry.merge}), so counters, histograms, phases and
      trace events never interleave or race.  The sequential [jobs = 1]
      path uses the identical fork/merge code, so telemetry too is
      bit-identical across job counts.

    Cells must not touch process-global mutable state unless it guards
    itself.  The {!Util.Rng} global seed is read-only after startup, and
    its permutation memo table is domain-local; process-wide caches such
    as the LAMMPS trajectory memo hold a mutex and return the same
    values whichever domain fills them. *)

type ctx = {
  cell_index : int;  (** the cell's position in the submitted grid *)
  rng : Util.Rng.t;  (** per-cell generator, {!Util.Rng.for_cell}[ cell_index] *)
  telemetry : Telemetry.Registry.t;
      (** private sink, merged into the parent registry at join time *)
}
(** Execution context handed to every cell. *)

type 'r cell = {
  label : string;  (** diagnostic label, e.g. ["milkv-sim/MM"] *)
  run : ctx -> 'r;
}

val cell : ?label:string -> (ctx -> 'r) -> 'r cell
(** Wrap a thunk as a cell (default label ["cell"]). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the host's useful parallelism. *)

val physical_cores : unit -> int option
(** Physical (non-SMT) core count: the number of distinct
    [(physical id, core id)] pairs in [/proc/cpuinfo].  [None] when the
    file is missing or holds no such topology (non-Linux hosts, some
    containers).  Distinct from {!recommended_jobs}, which counts
    hyperthreads: two cells of this simulator on one physical core
    contend for the same execution units, so speedup gates should bar
    on physical cores, not logical ones. *)

val resolve_jobs : int -> int
(** [resolve_jobs jobs] maps the user-facing jobs count to a worker
    count: [0] (auto) becomes {!recommended_jobs}, positive values pass
    through.  Raises [Invalid_argument] on a negative count. *)

val set_default_jobs : int -> unit
(** Set the process-wide default used when {!run} is called without
    [?jobs] (the CLI's [--jobs] flag).  [0] = auto.  Raises
    [Invalid_argument] on a negative count.  Must only be called at
    startup, before any pool runs — like the {!Util.Rng} global seed it
    is read-only once cells may be in flight. *)

val default_jobs : unit -> int
(** The resolved process-wide default ({!recommended_jobs} unless
    {!set_default_jobs} chose otherwise). *)

(** {2 Progress observation} *)

type progress_event = {
  pe_total : int;  (** cells in the submitted grid *)
  pe_done : int;  (** cells completed so far *)
  pe_label : string;  (** the cell this event concerns *)
  pe_started : bool;  (** [true] = cell picked up, [false] = completed *)
  pe_elapsed_s : float;  (** wall time since the grid was submitted *)
}

val set_progress_hook : (progress_event -> unit) option -> unit
(** Install (or clear) the process-wide progress observer, called from
    {e worker domains} as cells start and finish — it must be
    thread-safe and fast.  Exceptions it raises are swallowed.  Meant
    for the CLI's TTY progress line ({!Ledger.Progress}); when unset
    (the default) the pool reads no wall clock on the disabled-telemetry
    path. *)

val run : ?jobs:int -> ?telemetry:Telemetry.Registry.t -> 'r cell list -> 'r list
(** [run cells] executes every cell and returns their results in
    submission order.  [jobs] (default: the {!set_default_jobs} value)
    bounds the worker-domain count; [jobs = 1] — or a single cell —
    degrades to in-process sequential execution with no domain spawned.
    Workers pull cells from a shared queue, so long cells don't convoy
    short ones.

    [telemetry] (default {!Telemetry.Registry.disabled}) is the parent
    registry: each cell records into a private fork, merged back in cell
    order after the workers join.  When the caller has an open span on
    a live registry ({!Telemetry.Registry.span_current} is not [""]),
    every cell additionally records a span (namespace ["c<i>."], parent
    = the caller's current span, [tid] = worker lane) annotated with its
    queue wait, so the merged Chrome trace shows the real fan-out
    timeline.

    If any cell raises, remaining unstarted cells are skipped
    (best-effort), every sink that did run is still merged, and the
    exception of the lowest-indexed failing cell is re-raised with its
    backtrace. *)

val map : ?jobs:int -> ?telemetry:Telemetry.Registry.t -> ('a -> 'r) -> 'a list -> 'r list
(** [map f xs] is [run] over [List.map f xs] for cells that need no
    {!ctx}: results are in input order. *)
