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
  (* Completion times of in-flight requests, ascending from [queue_head]
     and wrapping ({!Util.Ring} over floats).  A channel issues them in
     order (each is past [bus_free_ns]), so replacing the minimum is
     overwriting the head and moving it on. *)
  queue_done : float array;
  mutable queue_head : int;
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
  (* Address decode by shifts and masks: log2 of line_bytes, channels,
     banks per channel and row_bytes, all powers of two ([create]). *)
  line_shift : int;
  chan_shift : int;
  bank_shift : int;
  row_shift : int;
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
  let pow2 what n =
    if not (Util.Arch.is_pow2 n) then invalid_arg ("Dram.create: " ^ what ^ " must be a power of two")
  in
  pow2 "channels" cfg.channels;
  pow2 "ranks * banks_per_rank" (cfg.ranks * cfg.banks_per_rank);
  pow2 "row_bytes" cfg.row_bytes;
  pow2 "line_bytes" cfg.line_bytes;
  if not (cfg.data_rate_mts > 0.0 && cfg.bus_bytes > 0) then
    invalid_arg "Dram.create: data_rate_mts and bus_bytes must be positive";
  if cfg.queue_depth <= 0 then invalid_arg "Dram.create: queue_depth";
  let mk_chan _ =
    {
      bank_open_row = Array.make (cfg.ranks * cfg.banks_per_rank) (-1);
      bank_ready_ns = Array.make (cfg.ranks * cfg.banks_per_rank) 0.0;
      bus_free_ns = Array.make 1 0.0;
      queue_done = Array.make cfg.queue_depth 0.0;
      queue_head = 0;
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
    line_shift = Util.Arch.log2 cfg.line_bytes;
    chan_shift = Util.Arch.log2 cfg.channels;
    bank_shift = Util.Arch.log2 (cfg.ranks * cfg.banks_per_rank);
    row_shift = Util.Arch.log2 cfg.row_bytes;
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
  let line = addr lsr t.line_shift in
  let chan = Array.unsafe_get t.chans (line land (cfg.channels - 1)) in
  let per_chan_line = line lsr t.chan_shift in
  let bank_i = per_chan_line land (Array.length chan.bank_open_row - 1) in
  (* Parenthesized: [lsl] and [lsr] associate to the right. *)
  let row = ((per_chan_line lsr t.bank_shift) lsl t.line_shift) lsr t.row_shift in
  t.s_requests <- t.s_requests + 1;
  chan.c_requests <- chan.c_requests + 1;
  if write then t.s_writes <- t.s_writes + 1 else t.s_reads <- t.s_reads + 1;
  (* Controller queue admission: wait for the earliest in-flight request
     to finish when all slots are in flight.  The occupancy this request
     observes on arrival, the completions after it, by binary search. *)
  let q = chan.queue_done in
  let n = Array.length q in
  let head = chan.queue_head in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let p = head + mid in
    if Array.unsafe_get q (if p >= n then p - n else p) > time_ns then hi := mid else lo := mid + 1
  done;
  let in_flight = n - !lo in
  chan.c_occ_sum <- chan.c_occ_sum + in_flight;
  if in_flight > chan.c_occ_max then chan.c_occ_max <- in_flight;
  let earliest = Array.unsafe_get q head in
  let admitted =
    if earliest <= time_ns then time_ns
    else begin
      t.s_queue_stalls <- t.s_queue_stalls + 1;
      chan.c_queue_stalls <- chan.c_queue_stalls + 1;
      earliest
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
  Array.unsafe_set q head completion;
  chan.queue_head <- (if head + 1 = n then 0 else head + 1);
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
