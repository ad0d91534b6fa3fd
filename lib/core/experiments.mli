(** The experiment registry: one entry per table and figure of the paper,
    plus the ablations called out in DESIGN.md.

    Figure functions run the required simulations and return structured
    series; [render_figure] turns one into an ASCII chart + data table.
    The [scale] argument shrinks or grows workload sizes (1.0 = the
    defaults documented in the workloads library). *)

type series = {
  label : string;
  points : (string * float) list;  (** (x label, relative speedup) *)
}

type figure = {
  id : string;
  title : string;
  note : string;
  reference : float option;  (** target line, 1.0 for relative speedups *)
  series : series list;
}

val render_figure : figure -> string
val figure_csv : figure -> string

(* Tables 1-5 are descriptive: they render the suite / platform catalog. *)
val table1 : unit -> string
val table2 : unit -> string
val table3 : unit -> string
val table4 : unit -> string
val table5 : unit -> string

(** Figures build explicit (platform, workload, ranks) cell grids and run
    them on the {!Parallel.Pool} worker domains: [jobs] bounds the worker
    count (default: the pool's process-wide setting, i.e. the CLI's
    [--jobs]; [1] = sequential in-process).  Results are reassembled in
    grid order and are bit-identical for every [jobs] value.

    [telemetry] (default {!Telemetry.Registry.disabled}) is the parent
    registry the grid's per-cell sinks merge into; when the caller holds
    an active span (the CLI's root run span), each figure additionally
    records a ["figure:<id>"] span whose children are the pool's
    per-cell spans. *)

val fig1 :
  ?scale:float ->
  ?budget:int ->
  ?jobs:int ->
  ?telemetry:Telemetry.Registry.t ->
  unit ->
  figure
(** MicroBench on Banana Pi Sim Model and Fast model vs Banana Pi HW.
    [budget] replays only each kernel's first [budget] measured
    instructions (see {!Runner.run_kernel_timed}). *)

val fig2 :
  ?scale:float ->
  ?budget:int ->
  ?jobs:int ->
  ?telemetry:Telemetry.Registry.t ->
  unit ->
  figure
(** MicroBench on Small/Medium/Large BOOM and MILK-V Sim Model vs MILK-V
    HW. *)

(** {2 Budgeted-vs-full evaluation}

    Regenerates a microbench figure twice — in full and with every
    kernel cut to its first [budget] measured instructions — each side
    from a cleared trace cache, and compares every relative speedup plus
    the two sides' host wall-clock.  This is the fast mode's acceptance
    harness ([bench/main.exe budget]).

    The default scale is 8 (not the headline figures' 1): a budget's
    wall-clock win is a long-stream property — the budgeted side's work
    is capped while a full run grows with the stream. *)

val default_budget : int
(** 160 000 instructions: the smallest round budget at which every fig1
    and fig2 cell at scale 8 stays within 5% of the full run. *)

type budget_row = {
  br_series : string;  (** simulation-model platform name *)
  br_kernel : string;
  br_full : float;  (** full-run relative speedup *)
  br_budget : float;  (** budgeted relative speedup *)
  br_rel_err : float;  (** |budget - full| / full *)
}

type budget_eval = {
  be_id : string;
  be_budget : int;
  be_rows : budget_row list;
  be_wall_full_s : float;
  be_wall_budget_s : float;
  be_max_rel_err : float;
  be_speedup : float;  (** host wall-clock ratio: full / budgeted *)
}

val budget_eval_fig1 : ?scale:float -> ?budget:int -> unit -> budget_eval
val budget_eval_fig2 : ?scale:float -> ?budget:int -> unit -> budget_eval
val render_budget_eval : budget_eval -> string

val budget_report : ?scale:float -> unit -> string
(** The [budget] registry entry: both evaluations rendered. *)

val fig3 : ?scale:float -> ?jobs:int -> ?telemetry:Telemetry.Registry.t -> unit -> figure list
(** NPB on the Rocket-family configs vs Banana Pi HW; [single; four]. *)

val fig4 : ?scale:float -> ?jobs:int -> ?telemetry:Telemetry.Registry.t -> unit -> figure list
(** NPB on BOOM configs vs MILK-V HW; [(a) stock BOOMs; (b) tuned model
    1 and 4 ranks]. *)

val fig5 : ?scale:float -> ?jobs:int -> ?telemetry:Telemetry.Registry.t -> unit -> figure
(** UME relative speedup over 1/2/4 ranks, both platform pairs. *)

val fig6 : ?scale:float -> ?jobs:int -> ?telemetry:Telemetry.Registry.t -> unit -> figure
(** LAMMPS Lennard-Jones. *)

val fig7 : ?scale:float -> ?jobs:int -> ?telemetry:Telemetry.Registry.t -> unit -> figure
(** LAMMPS Chain. *)

val figure_ids : string list
(** Every per-panel figure id: [fig1; fig2; fig3a; fig3b; fig4a; fig4b;
    fig5; fig6; fig7] — the vocabulary shared by [simbridge csv], the
    golden CSVs, and the serve protocol. *)

val figures :
  ?scale:float ->
  ?jobs:int ->
  ?telemetry:Telemetry.Registry.t ->
  string list ->
  (string * figure) list
(** Compute the listed panels by id, in list order.  The two panels of
    fig3 (fig4) share one grid run, so asking for both costs one run.
    Raises [Invalid_argument] on an id not in {!figure_ids}. *)

val figure_by_id :
  ?scale:float ->
  ?jobs:int ->
  ?telemetry:Telemetry.Registry.t ->
  string ->
  figure option
(** Compute one panel by id ([None] for an unknown id).  [fig3a]
    etc. compute the parent two-panel figure and return the requested
    panel, exactly as the one-shot CLI does — so a served payload built
    from this function is byte-identical to [simbridge csv ID]. *)

val app_runtime_table :
  ?scale:float -> ?jobs:int -> ?telemetry:Telemetry.Registry.t -> Workloads.Workload.app -> string
(** Absolute target runtimes (seconds) for 1/2/4 ranks on all four
    platforms — the numbers quoted in §5.3/§5.4. *)

val ablation_l1 : ?scale:float -> unit -> string
(** §5.2.2: Large BOOM with 32 vs 64 KiB L1 on CG (expected ~25-30%
    runtime reduction). *)

val ablation_clock : ?scale:float -> unit -> string
(** §5.1: per-category MicroBench geomean at 1.6 vs 3.2 GHz. *)

val ablation_bus : ?scale:float -> unit -> string
(** §4: L2 banks 1 -> 4 and bus 64 -> 128 bit across Rocket configs. *)

val ablation_tlb : ?scale:float -> unit -> string
(** Table 5's translation structures on the DRAM-chase kernel: FireSim
    Rocket TLB vs FireSim BOOM TLB vs an idealized TLB. *)

val ablation_prefetch : ?scale:float -> unit -> string
(** Modeling choice: the L2 stream prefetcher on vs off (MG, Banana Pi
    pair). *)

val ablation_quantum : ?scale:float -> unit -> string
(** Modeling choice: the multicore co-simulation quantum (CG, 4 ranks). *)

val simrate : ?scale:float -> unit -> string
(** §3.2.2: FireSim host simulation rate and slowdown for a Rocket and a
    BOOM target. *)

val multinode : ?scale:float -> unit -> string
(** §7 future work: strong scaling of EP and CG over 1-8 simulated nodes
    connected by a FireSim-style switch ({!Firesim.Multinode}). *)

val all : (string * string * (Telemetry.Registry.t -> string)) list
(** (id, description, render) for every experiment, in paper order.  The
    render function records into the given registry (figures thread it
    to their grids; pass {!Telemetry.Registry.disabled} for plain
    output). *)
