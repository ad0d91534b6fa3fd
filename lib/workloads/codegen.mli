(** Compiler-quality knob.

    The paper runs GCC 9.4 binaries inside FireSim but GCC 13.2 binaries
    on the boards (Table 3) and flags the disparity as a confound it could
    not remove.  We expose it as a controlled parameter instead: the
    application workloads multiply their per-statement integer-overhead
    instruction counts by [overhead], so experiments can be run matched
    (same codegen on both sides — the default) or mismatched (as in the
    paper). *)

type t = {
  name : string;
  overhead : float;
      (** relative dynamic integer-op overhead; 1.0 = best known code *)
  unroll : int;  (** innermost-loop unroll factor the compiler achieves *)
  vector_width : float;
      (** effective SIMD width the compiler achieves on vectorizable FP
          inner loops (1.0 = scalar).  The FireSim targets ran without
          vector units; the boards' GCC 13.2 autovectorizes. *)
}

val gcc_13_2 : t
(** Modern compiler, as on the boards: autovectorizes SIMD-friendly FP
    loops at an effective width of 4 doubles (256-bit RVV). *)

val gcc_9_4 : t
(** The FireSim image's compiler: ~8% more dynamic overhead, less
    unrolling. *)

val default : t
(** Used on both sides unless an experiment overrides it: {!gcc_13_2}. *)

val vector_ops : t -> int -> int
(** [vector_ops t n] is the dynamic op count for [n] scalar FP operations
    in a vectorizable inner loop under [t]'s SIMD width (ceiling, >= 1). *)

val ops_at : t -> index:int -> base:int -> int
(** Per-iteration overhead-op count at loop iteration [index], dithered
    deterministically so the long-run average is [base * overhead] even
    when the product is fractional (e.g. base 1 at 1.08x emits a 4th op on
    ~8% of iterations). *)
