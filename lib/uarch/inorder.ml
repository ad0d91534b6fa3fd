type config = {
  name : string;
  freq_hz : float;
  fetch_width : int;
  issue_width : int;
  pipeline_stages : int;
  mispredict_penalty : int;
  mem_ports : int;
  store_buffer : int;
  load_queue : int;  (* max loads outstanding before issue stalls *)
  latencies : Isa.Insn.Latency.table;
  frontend : Branch.Frontend.config;
}

let rocket ?(name = "rocket") ?(freq_hz = 1.6e9) () =
  {
    name;
    freq_hz;
    fetch_width = 2;
    issue_width = 1;
    pipeline_stages = 5;
    mispredict_penalty = 3;
    mem_ports = 1;
    store_buffer = 8;
    load_queue = 4;
    latencies = Isa.Insn.Latency.default;
    frontend = Branch.Frontend.rocket_config;
  }

let k1 ?(name = "spacemit-k1") ?(freq_hz = 1.6e9) () =
  {
    name;
    freq_hz;
    fetch_width = 4;
    issue_width = 2;
    pipeline_stages = 8;
    (* deep pipe but branches resolve early; redirect is cheaper than
       depth-2 would suggest *)
    mispredict_penalty = 4;
    mem_ports = 1;
    store_buffer = 12;
    load_queue = 8;
    latencies = Isa.Insn.Latency.default;
    frontend = { Branch.Frontend.rocket_config with btb_entries = 64; ras_entries = 16 };
  }

type stats = {
  instructions : int;
  cycles : int;
  loads : int;
  stores : int;
  mispredicts : int;
  ipc : float;
}

type t = {
  cfg : config;
  mem : Memsys.t;
  frontend : Branch.Frontend.t;
  reg_ready : int array;
  issue_slots : Slots.t;
  mem_port : Slots.t;
  store_buf : Util.Ring.t;  (* completion times of buffered stores *)
  load_q : Util.Ring.t;  (* completion times of outstanding loads *)
  mutable fetch_line : int;  (* icache line currently streaming *)
  mutable fetch_ready : int;  (* cycle the current fetch group is available *)
  mutable restart : int;  (* pipeline restart barrier after mispredicts/fences *)
  mutable div_free : int;  (* unpipelined long-latency unit *)
  mutable frontier : int;  (* max completion seen *)
  mutable n_insns : int;
  mutable n_loads : int;
  mutable n_stores : int;
}

(* Int-specialized max — see {!Ooo.imax}: [Stdlib.max] is polymorphic and
   costs a call plus a generic comparison at every hot-loop use. *)
let imax (a : int) (b : int) = if a >= b then a else b

let create cfg mem =
  {
    cfg;
    mem;
    frontend = Branch.Frontend.create cfg.frontend;
    reg_ready = Array.make Isa.Insn.num_regs 0;
    issue_slots = Slots.create ~width:cfg.issue_width;
    mem_port = Slots.create ~width:cfg.mem_ports;
    store_buf = Util.Ring.create (imax 1 cfg.store_buffer);
    load_q = Util.Ring.create (imax 1 cfg.load_queue);
    fetch_line = -1;
    fetch_ready = 0;
    restart = 0;
    div_free = 0;
    frontier = 0;
    n_insns = 0;
    n_loads = 0;
    n_stores = 0;
  }

let bump t c = if c > t.frontier then t.frontier <- c

(* Demand-fetch the icache line holding [pc] if the frontend moved to a new
   line; a taken transfer also restarts line streaming. *)
let[@inline] fetch t pc earliest =
  let line = pc lsr Util.Arch.cache_line_shift in
  if line <> t.fetch_line then begin
    t.fetch_line <- line;
    t.fetch_ready <- t.mem.Memsys.ifetch ~cycle:earliest ~pc
  end;
  imax earliest t.fetch_ready

(* The timing step on unpacked scalar fields — the single implementation
   behind both [feed] (unpacking an [Insn.t]) and [feed_trace] (decoding
   packed trace words); keeping one body guarantees the two paths stay
   cycle-identical.  [addr] is meaningful for memory kinds,
   [taken]/[target] for control kinds; others pass zeros. *)
let feed_scalar t ~pc ~(kind : Isa.Insn.kind) ~dst ~src1 ~src2 ~addr ~taken ~target =
  t.n_insns <- t.n_insns + 1;
  let r1 = if src1 = Isa.Insn.zero_reg then 0 else t.reg_ready.(src1) in
  let r2 = if src2 = Isa.Insn.zero_reg then 0 else t.reg_ready.(src2) in
  let earliest = imax t.restart (imax r1 r2) in
  let earliest = fetch t pc earliest in
  let issue = Slots.alloc t.issue_slots earliest in
  let lat = Isa.Insn.Latency.of_kind t.cfg.latencies kind in
  match kind with
  | Load | Amo ->
    t.n_loads <- t.n_loads + 1;
    (* A full load queue backs the whole pipeline up: nothing younger
       issues until an outstanding load completes. *)
    let qready = imax issue (Util.Ring.min t.load_q) in
    if qready > issue then Slots.advance t.issue_slots qready;
    let slot = Slots.alloc t.mem_port qready in
    let extra = if kind = Amo then t.cfg.latencies.amo else 0 in
    let done_ = t.mem.Memsys.load ~cycle:(slot + 1) ~addr + extra in
    Util.Ring.replace_min t.load_q done_;
    if dst <> Isa.Insn.zero_reg then t.reg_ready.(dst) <- done_;
    bump t done_
  | Store ->
    t.n_stores <- t.n_stores + 1;
    let slot = Slots.alloc t.mem_port issue in
    let drain_start = imax (slot + 1) (Util.Ring.min t.store_buf) in
    (* A full store buffer likewise stalls the pipeline. *)
    if drain_start > slot + 1 then Slots.advance t.issue_slots drain_start;
    let done_ = t.mem.Memsys.store ~cycle:drain_start ~addr in
    Util.Ring.replace_min t.store_buf done_;
    (* The store leaves the pipeline once buffered; completion is off the
       critical path unless the buffer backs up. *)
    bump t (slot + 1)
  | Branch | Jump | Call | Ret ->
    let correct = Branch.Frontend.resolve_ctrl t.frontend ~kind ~pc ~taken ~target in
    let resolve = issue + 1 in
    if not correct then t.restart <- imax t.restart (resolve + t.cfg.mispredict_penalty);
    (if taken then begin
       (* A correctly predicted taken transfer was already steered by the
          BTB: fetch follows seamlessly, paying the icache only when the
          target sits on a different line.  A mispredict refetches after
          resolution. *)
       let tline = target lsr Util.Arch.cache_line_shift in
       if (not correct) || tline <> t.fetch_line then begin
         t.fetch_line <- tline;
         let at = if correct then issue else resolve in
         t.fetch_ready <- t.mem.Memsys.ifetch ~cycle:at ~pc:target
       end
     end);
    if dst <> Isa.Insn.zero_reg then t.reg_ready.(dst) <- resolve;
    bump t resolve
  | Int_div | Fp_div | Fp_long ->
    (* Unpipelined unit: one in flight. *)
    let start = imax issue t.div_free in
    let done_ = start + lat in
    t.div_free <- done_;
    if dst <> Isa.Insn.zero_reg then t.reg_ready.(dst) <- done_;
    bump t done_
  | Fence ->
    let done_ = imax issue t.frontier + lat in
    t.restart <- imax t.restart done_;
    bump t done_
  | Int_alu | Int_mul | Fp_add | Fp_mul | Fp_cvt | Nop ->
    let done_ = issue + lat in
    if dst <> Isa.Insn.zero_reg then t.reg_ready.(dst) <- done_;
    bump t done_

let[@inline] feed t (i : Isa.Insn.t) =
  let addr = match i.mem with Some m -> m.addr | None -> 0 in
  let taken = match i.ctrl with Some c -> c.taken | None -> false in
  let target = match i.ctrl with Some c -> c.target | None -> 0 in
  feed_scalar t ~pc:i.pc ~kind:i.kind ~dst:i.dst ~src1:i.src1 ~src2:i.src2 ~addr ~taken ~target

(* A rank's compute burst up to the lockstep horizon: the horizon is
   tested before each element is forced, so the tail handed back is
   unforced and an already-passed horizon feeds nothing. *)
let rec feed_until t (s : Isa.Insn.t Seq.t) ~horizon =
  if t.frontier >= horizon then Some s
  else
    match s () with
    | Seq.Nil -> None
    | Seq.Cons (i, tl) ->
      feed t i;
      feed_until t tl ~horizon

let feed_trace t tr ~lo ~hi =
  if lo < 0 || hi > Trace.length tr || lo > hi then invalid_arg "Inorder.feed_trace: bad range";
  let kinds = Trace.kind_table in
  let j = ref lo in
  while !j < hi do
    let c = !j / Trace.chunk_len in
    let base = c * Trace.chunk_len in
    let ops = Trace.ops tr c and auxs = Trace.auxs tr c in
    let stop = Int.min hi (base + Trace.chunk_len) in
    for k = !j - base to stop - base - 1 do
      let op = Array.unsafe_get ops k and aux = Array.unsafe_get auxs k in
      feed_scalar t ~pc:(op lsr Trace.pc_shift)
        ~kind:(Array.unsafe_get kinds (op land Trace.kind_mask))
        ~dst:((op lsr Trace.dst_shift) land Trace.reg_mask)
        ~src1:((op lsr Trace.src1_shift) land Trace.reg_mask)
        ~src2:((op lsr Trace.src2_shift) land Trace.reg_mask)
        ~addr:aux
        ~taken:(op land Trace.taken_bit <> 0)
        ~target:aux
    done;
    j := stop
  done

let now t = t.frontier

let advance_to t cycle =
  if cycle > t.frontier then begin
    t.frontier <- cycle;
    t.restart <- imax t.restart cycle
  end

let stats t =
  let fs = Branch.Frontend.stats t.frontend in
  {
    instructions = t.n_insns;
    cycles = t.frontier;
    loads = t.n_loads;
    stores = t.n_stores;
    mispredicts = fs.Branch.Frontend.mispredicts;
    ipc = (if t.frontier = 0 then 0.0 else float_of_int t.n_insns /. float_of_int t.frontier);
  }

let config_of t = t.cfg
let release t = Branch.Frontend.release t.frontend
