(* Compiled struct-of-arrays instruction traces.

   A trace holds one retired instruction per index in two words, stored
   as fixed-size chunks of [chunk_len] instructions (only the last chunk
   may be shorter):

     ops  — the instruction's PC above [pc_shift], its packed
            kind/dst/src1/src2/taken/mem-size meta word below (layout
            below)
     auxs — memory address (memory kinds), branch target (control
            kinds), 0 otherwise

   Memory and control kinds are mutually exclusive (see Isa.Insn), so one
   auxiliary word serves both.  Replay consumers index the chunks
   directly: no Insn.t record, no option boxes, no Seq nodes — the replay
   loop allocates nothing.  Chunks are filled in place and never
   concatenated, so compiling holds no second copy of the trace. *)

(* Meta word layout (low to high):
   bits 0..4   kind code (17 kinds)
   bits 5..9   dst register
   bits 10..14 src1 register
   bits 15..19 src2 register
   bit  20     ctrl taken (control kinds; 0 otherwise)
   bits 21..27 mem access size in bytes (memory kinds; 0 otherwise)
   The op word is [(pc lsl pc_shift) lor meta]. *)
let kind_mask = 0x1f
let dst_shift = 5
let src1_shift = 10
let src2_shift = 15
let reg_mask = 0x1f
let taken_bit = 1 lsl 20
let size_shift = 21
let size_mask = 0x7f
let max_mem_size = size_mask
let pc_shift = 28
let meta_mask = (1 lsl pc_shift) - 1

(* [op lsr pc_shift] recovers every pc that fits in the 63 - 28 = 35 bits
   above the meta word. *)
let max_pc = max_int lsr pc_shift

(* Instructions per chunk, and so per [Simbridge.Runner.replay] slice
   between two [Thread.yield]s.  The serve daemon answers cached queries
   on other systhreads of the domain that compiles and replays cold
   cells, and they can run only when that thread lets go of the runtime
   lock; without a yield they wait for the 50 ms systhread tick.
   serve-hol on a 2-vCPU VM (perfbench, 30 s runs, 10 seeds) reads a hot
   p95 of 18.9 ms (median) with one feed per trace and 2.5 ms at
   8,192-instruction slices, mips, setup and RSS unchanged; a 20 s sweep
   read 4.35 ms at 32,768 and 1.95 ms at 2,048, so smaller slices buy
   little more.  A yield with no thread waiting returns at once, so batch
   runs pay one C call per chunk.  A power of two, so an index splits
   into chunk and offset by a shift and a mask. *)
let chunk_bits = 13
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

(* Dense codes for Isa.Insn.kind, in declaration order. *)
let kind_code : Isa.Insn.kind -> int = function
  | Isa.Insn.Int_alu -> 0
  | Int_mul -> 1
  | Int_div -> 2
  | Fp_add -> 3
  | Fp_mul -> 4
  | Fp_div -> 5
  | Fp_cvt -> 6
  | Fp_long -> 7
  | Load -> 8
  | Store -> 9
  | Branch -> 10
  | Jump -> 11
  | Call -> 12
  | Ret -> 13
  | Fence -> 14
  | Amo -> 15
  | Nop -> 16

let num_kinds = 17

let kind_of_code : Isa.Insn.kind array =
  [|
    Isa.Insn.Int_alu; Int_mul; Int_div; Fp_add; Fp_mul; Fp_div; Fp_cvt; Fp_long; Load; Store;
    Branch; Jump; Call; Ret; Fence; Amo; Nop;
  |]

let kind_table = kind_of_code
let kind_of_meta m = Array.unsafe_get kind_of_code (m land kind_mask)
let dst_of_meta m = (m lsr dst_shift) land reg_mask
let src1_of_meta m = (m lsr src1_shift) land reg_mask
let src2_of_meta m = (m lsr src2_shift) land reg_mask
let taken_of_meta m = m land taken_bit <> 0
let size_of_meta m = (m lsr size_shift) land size_mask

let pack ~kind ~dst ~src1 ~src2 ~taken ~size =
  kind_code kind lor (dst lsl dst_shift) lor (src1 lsl src1_shift) lor (src2 lsl src2_shift)
  lor (if taken then taken_bit else 0)
  lor (size lsl size_shift)

type t = {
  len : int;
  ops : int array array;  (* chunk -> op words *)
  auxs : int array array;  (* chunk -> aux words *)
  kind_counts : int array;  (* histogram over kind codes, filled at compile *)
}

let length t = t.len
let chunks t = Array.length t.ops
let ops t c = t.ops.(c)
let auxs t c = t.auxs.(c)

(* The op word of an instruction: its meta word with the pc above it. *)
let encode (i : Isa.Insn.t) =
  let is_mem = Isa.Insn.is_mem i.kind and is_ctrl = Isa.Insn.is_ctrl i.kind in
  (* The packed form can only carry what the timing models consume: memory
     kinds get an address/size, control kinds a taken/target.  Reject
     anything the layout would silently drop. *)
  (match i.mem with
  | Some m ->
    if not is_mem then invalid_arg "Trace.compile: mem access on a non-memory kind";
    if m.Isa.Insn.size < 0 || m.Isa.Insn.size > max_mem_size then
      invalid_arg "Trace.compile: mem size out of range"
  | None -> if is_mem then invalid_arg "Trace.compile: memory kind without mem access");
  (match i.ctrl with
  | Some _ -> if not is_ctrl then invalid_arg "Trace.compile: ctrl outcome on a non-control kind"
  | None -> if is_ctrl then invalid_arg "Trace.compile: control kind without ctrl outcome");
  if i.pc < 0 || i.pc > max_pc then invalid_arg "Trace.compile: pc out of range";
  let taken = match i.ctrl with Some c -> c.Isa.Insn.taken | None -> false in
  let size = match i.mem with Some m -> m.Isa.Insn.size | None -> 0 in
  (i.pc lsl pc_shift) lor pack ~kind:i.kind ~dst:i.dst ~src1:i.src1 ~src2:i.src2 ~taken ~size

(* Chunks are filled in place.  Under a limit each chunk is sized to
   what the limit leaves, so a trace that reaches its limit ends on an
   exactly sized chunk; otherwise only the last chunk is cut down, a copy
   of at most one chunk.  The runtime lock is yielded after every filled
   chunk, so other systhreads of the domain run while a long stream
   compiles. *)
let compile ?limit (stream : Isa.Insn.t Seq.t) =
  let stream, room =
    match limit with
    | None -> (stream, max_int)
    | Some n when n < 1 -> invalid_arg "Trace.compile: limit must be positive"
    | Some n -> (Seq.take n stream, n)
  in
  let kind_counts = Array.make num_kinds 0 in
  let full_ops = ref [] and full_auxs = ref [] in  (* filled chunks, newest first *)
  let filled = ref 0 in  (* instructions in [full_*] *)
  let fresh () = Array.make (Int.min chunk_len (room - !filled)) 0 in
  let ops = ref (fresh ()) in
  let auxs = ref (fresh ()) in
  let k = ref 0 in
  Seq.iter
    (fun (i : Isa.Insn.t) ->
      if !k = chunk_len then begin
        full_ops := !ops :: !full_ops;
        full_auxs := !auxs :: !full_auxs;
        filled := !filled + chunk_len;
        Thread.yield ();
        ops := fresh ();
        auxs := fresh ();
        k := 0
      end;
      let op = encode i in
      let j = !k in
      !ops.(j) <- op;
      (* Memory and control kinds are exclusive ([encode] checks). *)
      !auxs.(j) <-
        (match (i.mem, i.ctrl) with Some m, _ -> m.addr | None, Some c -> c.target | None, None -> 0);
      kind_counts.(op land kind_mask) <- kind_counts.(op land kind_mask) + 1;
      k := j + 1)
    stream;
  let tail = !k in
  let last a = if Array.length a = tail then a else Array.sub a 0 tail in
  (* Only an empty stream ends on an empty chunk, and it keeps none. *)
  let gather full a = Array.of_list (List.rev (if tail = 0 then full else last a :: full)) in
  {
    len = !filled + tail;
    ops = gather !full_ops !ops;
    auxs = gather !full_auxs !auxs;
    kind_counts;
  }

let count_kind p t =
  let n = ref 0 in
  for c = 0 to num_kinds - 1 do
    if p kind_of_code.(c) then n := !n + t.kind_counts.(c)
  done;
  !n

let check i t =
  if i < 0 || i >= t.len then invalid_arg "Trace: index out of bounds"

(* Unchecked reads by trace index. *)
let[@inline] op_at t i =
  Array.unsafe_get (Array.unsafe_get t.ops (i lsr chunk_bits)) (i land chunk_mask)

let[@inline] aux_at t i =
  Array.unsafe_get (Array.unsafe_get t.auxs (i lsr chunk_bits)) (i land chunk_mask)

let[@inline] pc_at t i = op_at t i lsr pc_shift
let[@inline] meta_at t i = op_at t i land meta_mask

let pc t i = check i t; pc_at t i
let meta t i = check i t; meta_at t i
let aux t i = check i t; aux_at t i

let insn t i =
  check i t;
  let op = op_at t i and a = aux_at t i in
  let m = op land meta_mask in
  let kind = kind_of_meta m in
  let mem =
    if Isa.Insn.is_mem kind then Some { Isa.Insn.addr = a; size = size_of_meta m } else None
  in
  let ctrl =
    if Isa.Insn.is_ctrl kind then Some { Isa.Insn.taken = taken_of_meta m; target = a } else None
  in
  Isa.Insn.make ?mem ?ctrl ~dst:(dst_of_meta m) ~src1:(src1_of_meta m) ~src2:(src2_of_meta m)
    ~pc:(op lsr pc_shift) kind

let iter f t =
  for i = 0 to t.len - 1 do
    f (insn t i)
  done

let to_seq t =
  let rec go i () = if i >= t.len then Seq.Nil else Seq.Cons (insn t i, go (i + 1)) in
  go 0

(* Resident size: two words per instruction, a header per chunk array,
   the two chunk tables, the histogram and the record. *)
let words t =
  let tables = 2 * (Array.length t.ops + 1) in
  (2 * t.len) + (2 * Array.length t.ops) + tables + (num_kinds + 1) + 5

type trace = t

module Blocks = struct
  type t = {
    n_blocks : int;
    n_instances : int;
    ids : int array;
    starts : int array;
    lens : int array;
    loads : int array;
    stores : int array;
    occurs : int array;
    digests : int array;
  }

  let default_max_len = 256

  (* FNV-style mixing kept within OCaml's 63-bit int range.  The digest
     only buckets candidates: the block table verifies content and never
     trusts the digest alone. *)
  let mix h v =
    let h = (h lxor v) * 0x100000001b3 in
    h lxor (h lsr 29)

  let analyze ?(max_len = default_max_len) (tr : trace) =
    if max_len < 1 then invalid_arg "Trace.Blocks.analyze: max_len must be >= 1";
    let n = tr.len in
    (* Pass 1: every pc that is ever a taken control-flow target is a
       leader everywhere, so one static block is segmented identically on
       every dynamic path that reaches it and all its instances intern to
       one block id. *)
    let targets : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
    for i = 0 to n - 1 do
      let m = meta_at tr i in
      if
        m land taken_bit <> 0
        && Isa.Insn.is_ctrl (Array.unsafe_get kind_of_code (m land kind_mask))
      then Hashtbl.replace targets (aux_at tr i) ()
    done;
    (* Pass 2: segment at leaders (taken targets, post-control fall-
       throughs, the max_len cap) and intern each segment into the block
       table.  Digest collisions fall back to content comparison against
       the block's canonical instance, so block identity is exact. *)
    let bcap = ref 64 in
    let b_start = ref (Array.make !bcap 0) in
    let b_len = ref (Array.make !bcap 0) in
    let b_loads = ref (Array.make !bcap 0) in
    let b_stores = ref (Array.make !bcap 0) in
    let b_occ = ref (Array.make !bcap 0) in
    let b_dig = ref (Array.make !bcap 0) in
    let n_blocks = ref 0 in
    let grow_blocks () =
      let cap' = !bcap * 2 in
      let g a = let a' = Array.make cap' 0 in Array.blit !a 0 a' 0 !n_blocks; a := a' in
      g b_start; g b_len; g b_loads; g b_stores; g b_occ; g b_dig;
      bcap := cap'
    in
    let icap = ref 1024 in
    let i_id = ref (Array.make !icap 0) in
    let i_start = ref (Array.make !icap 0) in
    let n_inst = ref 0 in
    let grow_insts () =
      let cap' = !icap * 2 in
      let g a = let a' = Array.make cap' 0 in Array.blit !a 0 a' 0 !n_inst; a := a' in
      g i_id; g i_start;
      icap := cap'
    in
    let table : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
    let same_content id start len =
      Array.unsafe_get !b_len id = len
      &&
      let s0 = Array.unsafe_get !b_start id in
      let ok = ref true in
      let j = ref 0 in
      while !ok && !j < len do
        let a = s0 + !j and b = start + !j in
        (* The op word carries both the pc and the meta word. *)
        let oa = op_at tr a in
        if oa <> op_at tr b then ok := false
        else if
          Isa.Insn.is_ctrl (Array.unsafe_get kind_of_code (oa land kind_mask))
          && aux_at tr a <> aux_at tr b
        then ok := false;
        incr j
      done;
      !ok
    in
    let i = ref 0 in
    while !i < n do
      let start = !i in
      let h = ref 0x3ade68b1 in
      let loads = ref 0 and stores = ref 0 in
      let stop = ref false in
      while not !stop do
        let j = !i in
        let m = meta_at tr j in
        let kind = Array.unsafe_get kind_of_code (m land kind_mask) in
        (match kind with
        | Isa.Insn.Load | Isa.Insn.Amo -> incr loads
        | Isa.Insn.Store -> incr stores
        | _ -> ());
        let is_ctrl = Isa.Insn.is_ctrl kind in
        (* Memory addresses vary per iteration and are excluded from the
           digest; control targets are part of block identity. *)
        h := mix !h (pc_at tr j);
        h := mix !h m;
        if is_ctrl then h := mix !h (aux_at tr j);
        incr i;
        if
          !i >= n || !i - start >= max_len || is_ctrl
          || Hashtbl.mem targets (pc_at tr !i)
        then stop := true
      done;
      let len = !i - start in
      let digest = mix (mix !h (pc_at tr start)) len in
      let id =
        let candidates = try Hashtbl.find table digest with Not_found -> [] in
        match List.find_opt (fun id -> same_content id start len) candidates with
        | Some id -> id
        | None ->
          if !n_blocks = !bcap then grow_blocks ();
          let id = !n_blocks in
          !b_start.(id) <- start;
          !b_len.(id) <- len;
          !b_loads.(id) <- !loads;
          !b_stores.(id) <- !stores;
          !b_occ.(id) <- 0;
          !b_dig.(id) <- digest;
          n_blocks := id + 1;
          Hashtbl.replace table digest (id :: candidates);
          id
      in
      !b_occ.(id) <- !b_occ.(id) + 1;
      if !n_inst = !icap then grow_insts ();
      !i_id.(!n_inst) <- id;
      !i_start.(!n_inst) <- start;
      incr n_inst
    done;
    let shrink a len = if Array.length !a = len then !a else Array.sub !a 0 len in
    {
      n_blocks = !n_blocks;
      n_instances = !n_inst;
      ids = shrink i_id !n_inst;
      starts = shrink i_start !n_inst;
      lens = shrink b_len !n_blocks;
      loads = shrink b_loads !n_blocks;
      stores = shrink b_stores !n_blocks;
      occurs = shrink b_occ !n_blocks;
      digests = shrink b_dig !n_blocks;
    }
end
