(** Descriptive statistics over float samples, used by the analysis layer
    (relative speedups, per-category aggregation) and by tests. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val geomean : float array -> float
(** Geometric mean; all samples must be positive. *)

val stddev : float array -> float
(** Population standard deviation. *)

val median : float array -> float
(** Median (does not mutate its argument). *)

val percentile : float array -> float -> float
(** [percentile xs p] for p in [0,100], linear interpolation between ranks. *)

val min_max : float array -> float * float
(** Smallest and largest sample. *)

val sum : float array -> float
(** Kahan-compensated sum. *)

val harmonic_mean : float array -> float
(** Harmonic mean; all samples must be nonzero. *)
