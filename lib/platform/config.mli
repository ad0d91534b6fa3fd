(** Full-platform (SoC) configuration: cores, cache hierarchy, system bus,
    DRAM, and the MPI fabric latency.  Instances for every platform in the
    paper live in {!Catalog}. *)

type core_model =
  | Inorder of Uarch.Inorder.config
  | Ooo of Uarch.Ooo.config

type t = {
  name : string;
  description : string;
  cores : int;
  core : core_model;
  l1i : Cache.config;
  l1d : Cache.config;
  l2 : Cache.config;  (** shared across the cluster *)
  llc : Cache.config option;  (** last-level cache, if present *)
  bus : Interconnect.Bus.config;
  dram : Dram.config;
  dtlb : Tlb.config;
  itlb : Tlb.config;
  mpi_latency_us : float;  (** shared-memory MPI per-message latency *)
}

val freq_hz : t -> float
val core_name : t -> string

val with_freq : t -> float -> t
(** Same platform with the core clock scaled (the paper's "Fast Banana Pi
    Sim Model" doubles the clock to mimic dual issue). *)

val with_cores : t -> int -> t

val pp_summary : Format.formatter -> t -> unit
