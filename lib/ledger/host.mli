(** Host fingerprinting for run reports: what machine and runtime
    produced a measurement, so cross-run perf comparisons can refuse to
    compare numbers from different hosts. *)

type t = {
  hostname : string;
  logical_cores : int;  (** {!Parallel.Pool.recommended_jobs} *)
  physical_cores : int option;  (** {!Parallel.Pool.physical_cores} *)
  ocaml_version : string;
  word_size : int;
  os_type : string;
}

val detect : unit -> t
(** Best-effort; never raises (unknown fields degrade to ["unknown"] /
    [None]). *)

val fingerprint : t -> string
(** Compact identity string, e.g. ["ci-runner/8c/ocaml-5.2.0/Unix"];
    equal fingerprints are a precondition for comparing MIPS across
    history entries. *)

val to_json : t -> Util.Jsonx.t
