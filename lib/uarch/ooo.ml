type config = {
  name : string;
  freq_hz : float;
  fetch_width : int;
  decode_width : int;
  retire_width : int;
  rob_entries : int;
  int_issue : int;
  mem_issue : int;
  fp_issue : int;
  ldq_entries : int;
  stq_entries : int;
  frontend_penalty : int;
  latencies : Isa.Insn.Latency.table;
  frontend : Branch.Frontend.config;
}

(* Table 4 of the paper: Small / Medium / Large BOOM. *)

let boom_small ?(name = "boom-small") ?(freq_hz = 2.0e9) () =
  {
    name;
    freq_hz;
    fetch_width = 4;
    decode_width = 1;
    retire_width = 1;
    rob_entries = 32;
    int_issue = 1;
    mem_issue = 1;
    fp_issue = 1;
    ldq_entries = 8;
    stq_entries = 8;
    frontend_penalty = 8;
    latencies = { Isa.Insn.Latency.default with int_mul = 4 };
    frontend = Branch.Frontend.boom_config;
  }

let boom_medium ?(name = "boom-medium") ?(freq_hz = 2.0e9) () =
  {
    name;
    freq_hz;
    fetch_width = 4;
    decode_width = 2;
    retire_width = 2;
    rob_entries = 64;
    int_issue = 2;
    mem_issue = 1;
    fp_issue = 1;
    ldq_entries = 16;
    stq_entries = 16;
    frontend_penalty = 9;
    latencies = { Isa.Insn.Latency.default with int_mul = 4 };
    frontend = Branch.Frontend.boom_config;
  }

let boom_large ?(name = "boom-large") ?(freq_hz = 2.0e9) () =
  {
    name;
    freq_hz;
    fetch_width = 8;
    decode_width = 3;
    retire_width = 3;
    rob_entries = 96;
    int_issue = 3;
    mem_issue = 1;
    fp_issue = 1;
    ldq_entries = 24;
    stq_entries = 24;
    frontend_penalty = 10;
    latencies = { Isa.Insn.Latency.default with int_mul = 4 };
    frontend = Branch.Frontend.boom_config;
  }

(* Reference model of the SG2042's XuanTie C920 cores.  Wider and deeper
   than Large BOOM where public information says so (dual memory pipes,
   bigger windows); this is the structural headroom the paper infers from
   the dependency-chain microbenchmarks ("the MILK-V Hardware likely
   contains more fetch and decode units than were modeled"). *)
let sg2042 ?(name = "sg2042-c920") ?(freq_hz = 2.0e9) () =
  {
    name;
    freq_hz;
    fetch_width = 8;
    decode_width = 4;
    retire_width = 4;
    rob_entries = 192;
    int_issue = 3;
    mem_issue = 2;
    fp_issue = 2;
    ldq_entries = 32;
    stq_entries = 32;
    frontend_penalty = 9;
    latencies =
      {
        Isa.Insn.Latency.default with
        int_div = 12;
        fp_div = 12;
        fp_add = 3;
        fp_mul = 3;
        fp_cvt = 1;
        fp_long = 45;
      };
    frontend = { Branch.Frontend.boom_config with btb_entries = 256; ras_entries = 8 };
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
  fetch_slots : Slots.t;
  dispatch_slots : Slots.t;
  retire_slots : Slots.t;
  int_ports : Slots.t;
  mem_ports : Slots.t;
  fp_ports : Slots.t;
  rob : int array;  (* retire cycle of instruction (i mod rob_entries) *)
  ldq : Util.Ring.t;  (* completion cycles of in-flight loads *)
  stq : Util.Ring.t;
  mutable rob_ptr : int;  (* dynamic instruction index mod rob_entries *)
  mutable fetch_line : int;
  mutable fetch_ready : int;
  mutable redirect : int;  (* fetch barrier after mispredict / fence *)
  mutable last_retire : int;
  mutable div_free : int;
  mutable frontier : int;
  mutable n_insns : int;
  mutable n_loads : int;
  mutable n_stores : int;
}

let create cfg mem =
  {
    cfg;
    mem;
    frontend = Branch.Frontend.create cfg.frontend;
    reg_ready = Array.make Isa.Insn.num_regs 0;
    fetch_slots = Slots.create ~width:cfg.fetch_width;
    dispatch_slots = Slots.create ~width:cfg.decode_width;
    retire_slots = Slots.create ~width:cfg.retire_width;
    int_ports = Slots.create ~width:cfg.int_issue;
    mem_ports = Slots.create ~width:cfg.mem_issue;
    fp_ports = Slots.create ~width:cfg.fp_issue;
    rob = Array.make cfg.rob_entries 0;
    ldq = Util.Ring.create cfg.ldq_entries;
    stq = Util.Ring.create cfg.stq_entries;
    rob_ptr = 0;
    fetch_line = -1;
    fetch_ready = 0;
    redirect = 0;
    last_retire = 0;
    div_free = 0;
    frontier = 0;
    n_insns = 0;
    n_loads = 0;
    n_stores = 0;
  }

(* Int-specialized max: [Stdlib.max] is polymorphic, which costs a call
   plus a generic comparison at every use — feed_scalar makes ~10 such
   comparisons per simulated instruction. *)
let imax (a : int) (b : int) = if a >= b then a else b

let bump t c = if c > t.frontier then t.frontier <- c

(* The load/store queues track only the multiset of in-flight completion
   cycles: each memory instruction waits on the earliest-completing entry
   and replaces it with its own completion ({!Util.Ring}). *)

let[@inline] fetch t pc earliest =
  let line = pc lsr Util.Arch.cache_line_shift in
  if line <> t.fetch_line then begin
    t.fetch_line <- line;
    t.fetch_ready <- t.mem.Memsys.ifetch ~cycle:earliest ~pc
  end;
  imax earliest t.fetch_ready

(* The timing step on unpacked scalar fields — single implementation
   behind [feed] and [feed_trace]; see {!Inorder.feed_scalar} for the
   field conventions. *)
let feed_scalar t ~pc ~(kind : Isa.Insn.kind) ~dst ~src1 ~src2 ~addr ~taken ~target =
  t.n_insns <- t.n_insns + 1;
  let cfg = t.cfg in
  (* Fetch: bounded by fetch width, icache, and any pending redirect. *)
  let f = fetch t pc t.redirect in
  let f = Slots.alloc t.fetch_slots f in
  (* Dispatch: decode width + ROB occupancy (entry of the instruction
     rob_entries older must have retired).  [rob_ptr] is the dynamic
     index pre-reduced mod rob_entries — the wrap below replaces an
     integer division per instruction. *)
  let rob_slot = t.rob_ptr in
  let d = Slots.alloc t.dispatch_slots (imax (f + 2) t.rob.(rob_slot)) in
  (* Execute. *)
  let r1 = if src1 = Isa.Insn.zero_reg then 0 else t.reg_ready.(src1) in
  let r2 = if src2 = Isa.Insn.zero_reg then 0 else t.reg_ready.(src2) in
  let ready = imax d (imax r1 r2) in
  let lat = Isa.Insn.Latency.of_kind cfg.latencies kind in
  let complete =
    match kind with
    | Load | Amo ->
      t.n_loads <- t.n_loads + 1;
      let qready = imax ready (Util.Ring.min t.ldq) in
      let port = Slots.alloc t.mem_ports qready in
      let extra = if kind = Amo then cfg.latencies.amo else 0 in
      let c = t.mem.Memsys.load ~cycle:(port + 1) ~addr + extra in
      Util.Ring.replace_min t.ldq c;
      c
    | Store ->
      t.n_stores <- t.n_stores + 1;
      let qready = imax ready (Util.Ring.min t.stq) in
      let port = Slots.alloc t.mem_ports qready in
      let c = t.mem.Memsys.store ~cycle:(port + 1) ~addr in
      Util.Ring.replace_min t.stq c;
      (* Address generation completes quickly; the write drains post-retire.
         The store occupies its STQ slot until the line is written. *)
      port + 1
    | Branch | Jump | Call | Ret ->
      let port = Slots.alloc t.int_ports ready in
      let c = port + 1 in
      let correct = Branch.Frontend.resolve_ctrl t.frontend ~kind ~pc ~taken ~target in
      if not correct then t.redirect <- imax t.redirect (c + cfg.frontend_penalty);
      (if taken then begin
         (* Predicted-taken transfers were steered at fetch; only a line
            change or a mispredict touches the icache path. *)
         let tline = target lsr Util.Arch.cache_line_shift in
         if (not correct) || tline <> t.fetch_line then begin
           t.fetch_line <- tline;
           let at = if correct then d else c in
           t.fetch_ready <- t.mem.Memsys.ifetch ~cycle:at ~pc:target
         end
       end);
      c
    | Int_div | Fp_div | Fp_long ->
      let port = Slots.alloc (if Isa.Insn.is_fp kind then t.fp_ports else t.int_ports) ready in
      let start = imax port t.div_free in
      let c = start + lat in
      t.div_free <- c;
      c
    | Fence ->
      let c = imax ready t.frontier + lat in
      t.redirect <- imax t.redirect c;
      c
    | Int_alu | Int_mul -> Slots.alloc t.int_ports ready + lat
    | Fp_add | Fp_mul | Fp_cvt -> Slots.alloc t.fp_ports ready + lat
    | Nop -> ready + 1
  in
  if dst <> Isa.Insn.zero_reg then t.reg_ready.(dst) <- complete;
  (* In-order retirement. *)
  let r = Slots.alloc t.retire_slots (imax complete t.last_retire) in
  t.last_retire <- r;
  t.rob.(rob_slot) <- r;
  t.rob_ptr <- (let n = rob_slot + 1 in if n = cfg.rob_entries then 0 else n);
  bump t r

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
  if lo < 0 || hi > Trace.length tr || lo > hi then invalid_arg "Ooo.feed_trace: bad range";
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
    t.redirect <- imax t.redirect cycle;
    t.last_retire <- imax t.last_retire cycle
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
