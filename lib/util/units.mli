(** Frequency / time unit helpers shared by all timing models.

    Internally the simulator counts integer core cycles; converting between
    cycles, nanoseconds, and clock domains is centralized here to keep the
    rounding conventions consistent (always round latencies *up*: a partial
    cycle still occupies a whole cycle). *)

val ghz : float -> float
(** [ghz f] is the frequency in Hz of [f] GHz. *)

val ns_to_cycles : freq_hz:float -> float -> int
(** [ns_to_cycles ~freq_hz ns] is the number of whole cycles covering [ns]
    nanoseconds at [freq_hz] (ceiling, at least 1 for positive input). *)

val cycles_to_ns : freq_hz:float -> int -> float
(** Inverse conversion (exact, as a float). *)

val cycles_to_seconds : freq_hz:float -> int -> float
(** Target-time in seconds for a cycle count. *)

val rescale_cycles : from_hz:float -> to_hz:float -> int -> int
(** [rescale_cycles ~from_hz ~to_hz c] re-expresses a duration measured in
    cycles of one clock domain in cycles of another (ceiling). *)

val bytes_per_cycle : bandwidth_bytes_per_s:float -> freq_hz:float -> float
(** Sustained bytes deliverable per core cycle at a given bandwidth. *)
