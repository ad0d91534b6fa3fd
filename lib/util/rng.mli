(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the simulator flows through this module so
    that every simulation is reproducible bit-for-bit.  The generator is
    SplitMix64 (Steele, Lea, Flood 2014): tiny state, excellent statistical
    quality for simulation purposes, and cheap splitting for deriving
    independent streams per (workload, rank, purpose). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of the
    remainder of [t]'s stream. *)

val derive : t -> string -> t
(** [derive t label] derives a generator deterministically keyed by [label],
    without disturbing [t]'s own stream.  Use this to give sub-components
    stable streams that do not depend on call order elsewhere. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box–Muller. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of 0..n-1. *)

val shared_permutation : t -> int -> Bytes.t
(** Like {!permutation}, but memoized on (generator state, n), and packed
    as [n] little-endian int32 entries: entry [i] is
    [Bytes.get_int32_le b (4 * i)], equal to element [i] of {!permutation}
    on the same state.  Callers replaying the same seeded stream share
    one buffer instead of re-running the Fisher–Yates shuffle (the
    multi-MiB pointer-chase workloads rebuild ~2M-entry permutations once
    per platform otherwise).  The returned buffer MUST be treated as
    read-only.  The generator state advances exactly as a non-memoized
    call would.  Raises [Invalid_argument] unless [0 <= n <= 2{^31} - 1].

    The memo table is {e domain-local} (one table per worker domain, via
    [Domain.DLS]) rather than mutex-guarded: concurrent cells in the
    experiment pool hit this path, and a per-domain table needs no
    locking and never shares buffers across domains.  Each domain pays at
    most one rebuild per distinct (state, n); the memoized result is a
    pure function of those, so which domain computed it can never be
    observed in the output. *)

val shared_permutation_bytes : unit -> int
(** Bytes held by the calling domain's permutation memo. *)

(** {2 Global seed override}

    All baked-in workload seeds flow through {!salted}.  The default
    global seed 0 is the identity — every stream is bit-identical to the
    historical fixed-seed behaviour.  Setting a nonzero global seed
    deterministically re-keys every seeded stream in the process, enabling
    sampling-error experiments across seeds (the CLI's [--seed] flag).

    {b Parallel-safety contract:} the global seed is {e read-only after
    startup}.  {!set_global_seed} must only be called before any worker
    domain exists (the CLI sets it while still single-domain); every
    domain then reads it without synchronization.  Worker cells never
    re-seed — they derive per-cell generators from
    [(global seed, cell index)] via {!for_cell}. *)

val set_global_seed : int -> unit
val get_global_seed : unit -> int

val for_cell : int -> t
(** [for_cell i] is the generator for grid cell [i] of a parallel
    experiment run: a pure function of [(global seed, i)], independent of
    call order, of which domain evaluates it, and of every other stream
    in the process — so pooled and sequential executions draw identical
    randomness per cell.  Raises [Invalid_argument] on a negative
    index. *)

val salted : int -> int
(** [salted seed] mixes the global seed into a workload-local seed;
    identity when the global seed is 0. *)
