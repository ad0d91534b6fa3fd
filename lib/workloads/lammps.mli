(** Mini-LAMMPS: parallel molecular dynamics with the two benchmarks the
    paper runs — the Lennard-Jones fluid ("lj") and the polymer Chain
    ("chain", FENE bonds + WCA pair repulsion).

    The physics is real: atoms are initialized on a perturbed lattice (or
    as random-walk chains), velocities are Maxwell-distributed, and a
    velocity-Verlet integrator advances the system with cell-list /
    Verlet-neighbor-list force evaluation under periodic boundaries.  The
    full trajectory is computed at program-construction time; the
    instruction streams then replay each rank's share of the recorded
    per-step pair work (cutoff branches follow the real distances), with
    position halo exchanges and a per-step thermo allreduce, matching
    LAMMPS's spatial-decomposition communication skeleton.

    Default 500 atoms / 4 steps (paper: 32 000 atoms / 100 steps); the
    relative-speedup metric is size-invariant to first order (DESIGN.md). *)

type style = Lj | Chain

type trajectory = {
  atoms : int;
  steps : int;
  box : float;
  potential_energy : float array;  (** per recorded step *)
  kinetic_energy : float array;
  pair_count : int array;  (** accepted (within-cutoff) pairs per step *)
}

val simulate : ?seed:int -> style:style -> atoms:int -> steps:int -> unit -> trajectory
(** Run the MD engine alone (no emission) — used by tests to check
    conservation and by the examples. *)

val program : ?codegen:Codegen.t -> style:style -> ranks:int -> scale:float -> unit -> Smpi.program
(** The trajectory a program replays is memoized on (style, atoms,
    steps), keeping the two most recently used sizes per style, so
    programs built at one scale run the MD once between them; each
    rank's pair and bond selections are memoized with it.  Safe to call
    from several domains at once. *)

val md_runs : unit -> int
(** MD runs the program builder has made so far in this process. *)

val selection_builds : unit -> int
(** Rank selections (the indices of the pairs, or bonds, whose first
    atom a rank owns) the program builder has built so far in this
    process.  Each is kept with its memoized trajectory, one per
    distinct neighbor list (or the bond list) and rank atom range. *)

val memoized : unit -> (style * int * int) list
(** The memoized (style, atoms, steps) keys, most recently used first. *)

val lj : Workload.app
val chain : Workload.app
