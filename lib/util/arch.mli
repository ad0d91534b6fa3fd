(** Architectural constants shared across layers.

    Every place that assumes a cache-line granularity — the cache model's
    default line size, {!Prog.Code}'s region alignment, the core models'
    fetch-line tracking — draws it from here, so a future non-64-byte-line
    platform has a single constant to generalize instead of scattered
    magic numbers. *)

val cache_line_bytes : int
(** Line size in bytes shared by all cache levels (64). *)

val cache_line_shift : int
(** [log2 cache_line_bytes]: shift that maps a byte address to its line
    index. *)

val is_pow2 : int -> bool

val log2 : int -> int
(** Rounded down: the shift that divides by a power-of-two field. *)
