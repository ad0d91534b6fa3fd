(** DRAM channel timing model (FR-FCFS flavoured).

    The model works in nanoseconds; the platform layer converts between
    core cycles and ns.  Each channel has [ranks × banks_per_rank] banks
    with an open-row policy: a request to the open row pays CAS only; a
    closed bank pays RCD+CAS; a conflicting open row pays RP+RCD+CAS
    (precharge first).  The shared per-channel data bus serializes bursts,
    and a bounded request queue models controller back-pressure — when the
    queue is full, new arrivals wait, which is exactly the "longer queues
    and increased latencies" regime the paper reports for the Fast Banana
    Pi model.

    [ctrl_latency_ns] is the constant front-end cost (controller pipeline,
    PHY, and — for the FireSim presets — the conservative token-based
    path between LLC and the DRAM model that the paper identifies as a
    fidelity limit).  It is the main knob distinguishing the simulated
    DDR3 models from the silicon LPDDR4/DDR4 parts. *)

type timing = {
  t_cas_ns : float;
  t_rcd_ns : float;
  t_rp_ns : float;
}

type config = {
  name : string;
  data_rate_mts : float;  (** mega-transfers per second (DDR3-2000 => 2000.) *)
  bus_bytes : int;  (** data bus width per channel, bytes (64-bit => 8) *)
  channels : int;
  ranks : int;
  banks_per_rank : int;
  row_bytes : int;
  timing : timing;
  ctrl_latency_ns : float;
  queue_depth : int;  (** outstanding requests per channel *)
  line_bytes : int;  (** transfer granularity (cache line) *)
}

type stats = {
  requests : int;
  reads : int;
  writes : int;
  row_hits : int;
  row_empty : int;
  row_conflicts : int;
  queue_stalls : int;
  data_bus_ns : float;  (** accumulated bus occupancy, for bandwidth accounting *)
}

type chan_stats = {
  chan_requests : int;
  chan_row_hits : int;
  chan_row_empty : int;
  chan_row_conflicts : int;
  chan_queue_stalls : int;
  chan_occupancy_sum : int;
      (** in-flight requests summed over admissions; divide by
          [chan_requests] for the mean queue occupancy a request sees *)
  chan_occupancy_max : int;
}

type t

val create : config -> t

val request : t -> time_ns:float -> addr:int -> write:bool -> float
(** [request t ~time_ns ~addr ~write] returns the time (ns) at which the
    line transfer completes.  The channel is chosen by line-interleaving
    on the address. *)

val request_cycles : t -> freq_hz:float -> cycle:int -> addr:int -> write:bool -> int
(** {!request} for a client clocked at [freq_hz]: the request is issued at
    [cycle] and the completion time comes back in cycles, rounded up as
    {!Util.Units.ns_to_cycles} does.  Equal to converting with
    {!Util.Units} around {!request}, without boxing a time. *)

val stats : t -> stats

val channel_stats : t -> chan_stats array
(** Per-channel row-buffer and queue behaviour, index = channel. *)

val reset_stats : t -> unit

val peak_bandwidth_gbs : config -> float
(** Aggregate peak bandwidth over all channels, GB/s. *)

val idle_latency_ns : config -> float
(** Load-to-use latency of an isolated row-empty read (ctrl + RCD + CAS +
    one burst). *)

(** Presets used by the platform catalog (Table 5). *)

val ddr3_2000_fr_fcfs : channels:int -> config
(** FireSim's DDR3-2000 FR-FCFS quad-rank model; conservative controller
    path. *)

val lpddr4_2666_dual32 : config
(** Banana Pi: dual 32-bit LPDDR4-2666. *)

val ddr4_3200 : channels:int -> config
(** MILK-V Pioneer: DDR4-3200, [channels] channels. *)
