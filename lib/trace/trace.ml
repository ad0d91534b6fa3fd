(* Compiled struct-of-arrays instruction traces.

   A trace holds one retired instruction per index across three flat int
   arrays:

     pcs.(i)   — the instruction's PC
     metas.(i) — packed kind/dst/src1/src2/taken/mem-size (layout below)
     auxs.(i)  — memory address (memory kinds), branch target (control
                 kinds), 0 otherwise

   Memory and control kinds are mutually exclusive (see Isa.Insn), so one
   auxiliary array serves both.  Replay consumers index these arrays
   directly: no Insn.t record, no option boxes, no Seq nodes — the replay
   loop allocates nothing. *)

(* Meta word layout (low to high):
   bits 0..4   kind code (17 kinds)
   bits 5..9   dst register
   bits 10..14 src1 register
   bits 15..19 src2 register
   bit  20     ctrl taken (control kinds; 0 otherwise)
   bits 21..27 mem access size in bytes (memory kinds; 0 otherwise) *)
let kind_mask = 0x1f
let dst_shift = 5
let src1_shift = 10
let src2_shift = 15
let reg_mask = 0x1f
let taken_bit = 1 lsl 20
let size_shift = 21
let size_mask = 0x7f
let max_mem_size = size_mask

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
  pcs : int array;
  metas : int array;
  auxs : int array;
  kind_counts : int array;  (* histogram over kind codes, filled at compile *)
}

let length t = t.len
let pcs t = t.pcs
let metas t = t.metas
let auxs t = t.auxs

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
  let taken, size, aux =
    match (i.mem, i.ctrl) with
    | Some m, None -> (false, m.Isa.Insn.size, m.Isa.Insn.addr)
    | None, Some c -> (c.Isa.Insn.taken, 0, c.Isa.Insn.target)
    | None, None -> (false, 0, 0)
    | Some _, Some _ -> assert false (* is_mem and is_ctrl are exclusive *)
  in
  (pack ~kind:i.kind ~dst:i.dst ~src1:i.src1 ~src2:i.src2 ~taken ~size, aux)

let compile (stream : Isa.Insn.t Seq.t) =
  let cap = ref 4096 in
  let pcs = ref (Array.make !cap 0) in
  let metas = ref (Array.make !cap 0) in
  let auxs = ref (Array.make !cap 0) in
  let kind_counts = Array.make num_kinds 0 in
  let n = ref 0 in
  let grow () =
    let cap' = !cap * 2 in
    let g a = let a' = Array.make cap' 0 in Array.blit !a 0 a' 0 !n; a := a' in
    g pcs; g metas; g auxs;
    cap := cap'
  in
  Seq.iter
    (fun (i : Isa.Insn.t) ->
      if !n = !cap then grow ();
      let meta, aux = encode i in
      let j = !n in
      !pcs.(j) <- i.pc;
      !metas.(j) <- meta;
      !auxs.(j) <- aux;
      kind_counts.(meta land kind_mask) <- kind_counts.(meta land kind_mask) + 1;
      n := j + 1)
    stream;
  let len = !n in
  let shrink a = if Array.length !a = len then !a else Array.sub !a 0 len in
  { len; pcs = shrink pcs; metas = shrink metas; auxs = shrink auxs; kind_counts }

let count_kind p t =
  let n = ref 0 in
  for c = 0 to num_kinds - 1 do
    if p kind_of_code.(c) then n := !n + t.kind_counts.(c)
  done;
  !n

let check i t =
  if i < 0 || i >= t.len then invalid_arg "Trace: index out of bounds"

let pc t i = check i t; t.pcs.(i)
let meta t i = check i t; t.metas.(i)
let aux t i = check i t; t.auxs.(i)

let insn t i =
  check i t;
  let m = t.metas.(i) in
  let kind = kind_of_meta m in
  let mem =
    if Isa.Insn.is_mem kind then Some { Isa.Insn.addr = t.auxs.(i); size = size_of_meta m }
    else None
  in
  let ctrl =
    if Isa.Insn.is_ctrl kind then Some { Isa.Insn.taken = taken_of_meta m; target = t.auxs.(i) }
    else None
  in
  Isa.Insn.make ?mem ?ctrl ~dst:(dst_of_meta m) ~src1:(src1_of_meta m) ~src2:(src2_of_meta m)
    ~pc:t.pcs.(i) kind

let iter f t =
  for i = 0 to t.len - 1 do
    f (insn t i)
  done

let to_seq t =
  let rec go i () = if i >= t.len then Seq.Nil else Seq.Cons (insn t i, go (i + 1)) in
  go 0

(* Rough resident size: three 8-byte words per instruction plus headers. *)
let words t = (3 * t.len) + 16

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
    let pcs = tr.pcs and metas = tr.metas and auxs = tr.auxs in
    (* Pass 1: every pc that is ever a taken control-flow target is a
       leader everywhere, so one static block is segmented identically on
       every dynamic path that reaches it and all its instances intern to
       one block id. *)
    let targets : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
    for i = 0 to n - 1 do
      let m = Array.unsafe_get metas i in
      if
        m land taken_bit <> 0
        && Isa.Insn.is_ctrl (Array.unsafe_get kind_of_code (m land kind_mask))
      then Hashtbl.replace targets (Array.unsafe_get auxs i) ()
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
        let ma = Array.unsafe_get metas a in
        if Array.unsafe_get pcs a <> Array.unsafe_get pcs b || ma <> Array.unsafe_get metas b
        then ok := false
        else if
          Isa.Insn.is_ctrl (Array.unsafe_get kind_of_code (ma land kind_mask))
          && Array.unsafe_get auxs a <> Array.unsafe_get auxs b
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
        let m = Array.unsafe_get metas j in
        let kind = Array.unsafe_get kind_of_code (m land kind_mask) in
        (match kind with
        | Isa.Insn.Load | Isa.Insn.Amo -> incr loads
        | Isa.Insn.Store -> incr stores
        | _ -> ());
        let is_ctrl = Isa.Insn.is_ctrl kind in
        (* Memory addresses vary per iteration and are excluded from the
           digest; control targets are part of block identity. *)
        h := mix !h (Array.unsafe_get pcs j);
        h := mix !h m;
        if is_ctrl then h := mix !h (Array.unsafe_get auxs j);
        incr i;
        if
          !i >= n || !i - start >= max_len || is_ctrl
          || Hashtbl.mem targets (Array.unsafe_get pcs !i)
        then stop := true
      done;
      let len = !i - start in
      let digest = mix (mix !h (Array.unsafe_get pcs start)) len in
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
