type timing = {
  t_cas_ns : float;
  t_rcd_ns : float;
  t_rp_ns : float;
}

type config = {
  name : string;
  data_rate_mts : float;
  bus_bytes : int;
  channels : int;
  ranks : int;
  banks_per_rank : int;
  row_bytes : int;
  timing : timing;
  ctrl_latency_ns : float;
  queue_depth : int;
  line_bytes : int;
}

type stats = {
  requests : int;
  reads : int;
  writes : int;
  row_hits : int;
  row_empty : int;
  row_conflicts : int;
  queue_stalls : int;
  data_bus_ns : float;
}

type chan_stats = {
  chan_requests : int;
  chan_row_hits : int;
  chan_row_empty : int;
  chan_row_conflicts : int;
  chan_queue_stalls : int;
  chan_occupancy_sum : int;
  chan_occupancy_max : int;
}

(* Per-bank state lives in parallel arrays rather than an array of
   {open_row; ready_ns} records: a float field in a mixed record is boxed,
   so every ready-time update would allocate.  Flat [float array] storage
   keeps the hot path allocation-free with bit-identical arithmetic. *)
type channel = {
  bank_open_row : int array;  (* -1 = no open row *)
  bank_ready_ns : float array;
  bus_free_ns : float array;  (* 1 element; same boxing rationale *)
  queue_done : float array;  (* completion times of in-flight requests *)
  (* Per-channel telemetry: localizes row-buffer behaviour and queue
     pressure to the channel the paper's DRAM-bound kernels saturate. *)
  mutable c_requests : int;
  mutable c_row_hits : int;
  mutable c_row_empty : int;
  mutable c_row_conflicts : int;
  mutable c_queue_stalls : int;
  mutable c_occ_sum : int;  (* in-flight requests observed at each admission *)
  mutable c_occ_max : int;
}

type t = {
  cfg : config;
  burst : float;  (* [burst_ns cfg], computed once *)
  chans : channel array;
  mutable s_requests : int;
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_row_hits : int;
  mutable s_row_empty : int;
  mutable s_row_conflicts : int;
  mutable s_queue_stalls : int;
  s_data_bus_ns : float array;  (* 1 element; accumulated per request *)
}

let burst_ns cfg =
  (* Time to move one cache line over the channel's data bus. *)
  let bytes_per_us = cfg.data_rate_mts *. float_of_int cfg.bus_bytes in
  float_of_int cfg.line_bytes /. bytes_per_us *. 1000.0

let create cfg =
  if cfg.channels <= 0 then invalid_arg "Dram.create: channels";
  if cfg.queue_depth <= 0 then invalid_arg "Dram.create: queue_depth";
  let mk_chan _ =
    {
      bank_open_row = Array.make (cfg.ranks * cfg.banks_per_rank) (-1);
      bank_ready_ns = Array.make (cfg.ranks * cfg.banks_per_rank) 0.0;
      bus_free_ns = Array.make 1 0.0;
      queue_done = Array.make cfg.queue_depth 0.0;
      c_requests = 0;
      c_row_hits = 0;
      c_row_empty = 0;
      c_row_conflicts = 0;
      c_queue_stalls = 0;
      c_occ_sum = 0;
      c_occ_max = 0;
    }
  in
  {
    cfg;
    burst = burst_ns cfg;
    chans = Array.init cfg.channels mk_chan;
    s_requests = 0;
    s_reads = 0;
    s_writes = 0;
    s_row_hits = 0;
    s_row_empty = 0;
    s_row_conflicts = 0;
    s_queue_stalls = 0;
    s_data_bus_ns = Array.make 1 0.0;
  }

(* [Float.max] for the times below, which are never NaN and never -0.0:
   the stdlib's also tests sign bits, a C call per use. *)
let[@inline] fmax (a : float) b = if b > a then b else a

(* The request model, on unboxed floats.  Inlined into both entry points
   below so that neither boxes a time on the way in or out (a float
   crossing a call is boxed). *)
let[@inline] serve t ~time_ns ~addr ~write =
  let cfg = t.cfg in
  let line = addr / cfg.line_bytes in
  let chan = t.chans.(line mod cfg.channels) in
  let nbanks = Array.length chan.bank_open_row in
  let per_chan_line = line / cfg.channels in
  let bank_i = per_chan_line mod nbanks in
  let row = per_chan_line / nbanks * cfg.line_bytes / cfg.row_bytes in
  t.s_requests <- t.s_requests + 1;
  chan.c_requests <- chan.c_requests + 1;
  if write then t.s_writes <- t.s_writes + 1 else t.s_reads <- t.s_reads + 1;
  (* Controller queue admission: wait for a slot when all are in flight.
     The same pass over the queue counts the in-flight requests, i.e. the
     queue occupancy this request observes on arrival. *)
  let slot = ref 0 in
  let in_flight = ref (if chan.queue_done.(0) > time_ns then 1 else 0) in
  for i = 1 to cfg.queue_depth - 1 do
    if chan.queue_done.(i) < chan.queue_done.(!slot) then slot := i;
    if chan.queue_done.(i) > time_ns then incr in_flight
  done;
  chan.c_occ_sum <- chan.c_occ_sum + !in_flight;
  if !in_flight > chan.c_occ_max then chan.c_occ_max <- !in_flight;
  let admitted =
    if chan.queue_done.(!slot) <= time_ns then time_ns
    else begin
      t.s_queue_stalls <- t.s_queue_stalls + 1;
      chan.c_queue_stalls <- chan.c_queue_stalls + 1;
      chan.queue_done.(!slot)
    end
  in
  let open_row = Array.unsafe_get chan.bank_open_row bank_i in
  let issue =
    fmax admitted (fmax (Array.unsafe_get chan.bank_ready_ns bank_i) 0.0) +. cfg.ctrl_latency_ns
  in
  let array_ns =
    if open_row = row then begin
      t.s_row_hits <- t.s_row_hits + 1;
      chan.c_row_hits <- chan.c_row_hits + 1;
      cfg.timing.t_cas_ns
    end
    else if open_row = -1 then begin
      t.s_row_empty <- t.s_row_empty + 1;
      chan.c_row_empty <- chan.c_row_empty + 1;
      cfg.timing.t_rcd_ns +. cfg.timing.t_cas_ns
    end
    else begin
      t.s_row_conflicts <- t.s_row_conflicts + 1;
      chan.c_row_conflicts <- chan.c_row_conflicts + 1;
      cfg.timing.t_rp_ns +. cfg.timing.t_rcd_ns +. cfg.timing.t_cas_ns
    end
  in
  Array.unsafe_set chan.bank_open_row bank_i row;
  let data_ready = issue +. array_ns in
  let burst = t.burst in
  let xfer_start = fmax data_ready (Array.unsafe_get chan.bus_free_ns 0) in
  let completion = xfer_start +. burst in
  Array.unsafe_set chan.bus_free_ns 0 completion;
  Array.unsafe_set t.s_data_bus_ns 0 (Array.unsafe_get t.s_data_bus_ns 0 +. burst);
  Array.unsafe_set chan.bank_ready_ns bank_i data_ready;
  chan.queue_done.(!slot) <- completion;
  completion

let request t ~time_ns ~addr ~write = serve t ~time_ns ~addr ~write

(* [Util.Units.cycles_to_ns] in, [Util.Units.ns_to_cycles] out, written
   out here so that the times stay unboxed floats. *)
let request_cycles t ~freq_hz ~cycle ~addr ~write =
  let time_ns = float_of_int cycle /. freq_hz *. 1e9 in
  let ns = serve t ~time_ns ~addr ~write in
  if ns <= 0.0 then 0
  else
    let c = int_of_float (Float.ceil (ns *. 1e-9 *. freq_hz)) in
    if c >= 1 then c else 1

let stats t =
  {
    requests = t.s_requests;
    reads = t.s_reads;
    writes = t.s_writes;
    row_hits = t.s_row_hits;
    row_empty = t.s_row_empty;
    row_conflicts = t.s_row_conflicts;
    queue_stalls = t.s_queue_stalls;
    data_bus_ns = t.s_data_bus_ns.(0);
  }

let channel_stats t =
  Array.map
    (fun c ->
      {
        chan_requests = c.c_requests;
        chan_row_hits = c.c_row_hits;
        chan_row_empty = c.c_row_empty;
        chan_row_conflicts = c.c_row_conflicts;
        chan_queue_stalls = c.c_queue_stalls;
        chan_occupancy_sum = c.c_occ_sum;
        chan_occupancy_max = c.c_occ_max;
      })
    t.chans

let reset_stats t =
  t.s_requests <- 0;
  t.s_reads <- 0;
  t.s_writes <- 0;
  t.s_row_hits <- 0;
  t.s_row_empty <- 0;
  t.s_row_conflicts <- 0;
  t.s_queue_stalls <- 0;
  t.s_data_bus_ns.(0) <- 0.0;
  Array.iter
    (fun c ->
      c.c_requests <- 0;
      c.c_row_hits <- 0;
      c.c_row_empty <- 0;
      c.c_row_conflicts <- 0;
      c.c_queue_stalls <- 0;
      c.c_occ_sum <- 0;
      c.c_occ_max <- 0)
    t.chans

let peak_bandwidth_gbs cfg =
  cfg.data_rate_mts *. float_of_int cfg.bus_bytes *. float_of_int cfg.channels /. 1000.0

let idle_latency_ns cfg =
  cfg.ctrl_latency_ns +. cfg.timing.t_rcd_ns +. cfg.timing.t_cas_ns +. burst_ns cfg

(* Presets.

   The FireSim DDR3 path is deliberately conservative: the token-based
   LLC<->DRAM protocol adds a fixed cost per request that silicon
   controllers do not pay.  The paper measures the resulting gap as
   memory-bound kernels reaching only 28-43% of silicon performance; the
   [ctrl_latency_ns] values below encode that structural difference. *)

let ddr3_2000_fr_fcfs ~channels =
  {
    name = Printf.sprintf "DDR3-2000 FR-FCFS quad-rank x%d" channels;
    data_rate_mts = 2000.0;
    bus_bytes = 8;
    channels;
    ranks = 4;
    banks_per_rank = 8;
    row_bytes = 8192;
    timing = { t_cas_ns = 13.75; t_rcd_ns = 13.75; t_rp_ns = 13.75 };
    ctrl_latency_ns = 265.0;
    (* latency is conservative (token path) but the FR-FCFS scheduler
       still streams: deep request queue *)
    queue_depth = 48;
    line_bytes = 64;
  }

let lpddr4_2666_dual32 =
  {
    name = "LPDDR4-2666 dual 32-bit";
    data_rate_mts = 2666.0;
    bus_bytes = 4;
    channels = 2;
    ranks = 1;
    banks_per_rank = 8;
    row_bytes = 4096;
    timing = { t_cas_ns = 21.0; t_rcd_ns = 18.0; t_rp_ns = 18.0 };
    ctrl_latency_ns = 32.0;
    queue_depth = 32;
    line_bytes = 64;
  }

let ddr4_3200 ~channels =
  {
    name = Printf.sprintf "DDR4-3200 x%d" channels;
    data_rate_mts = 3200.0;
    bus_bytes = 8;
    channels;
    ranks = 2;
    banks_per_rank = 16;
    row_bytes = 8192;
    timing = { t_cas_ns = 13.75; t_rcd_ns = 13.75; t_rp_ns = 13.75 };
    ctrl_latency_ns = 26.0;
    queue_depth = 48;
    line_bytes = 64;
  }
