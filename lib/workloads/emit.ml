module Gen = Prog.Gen

let rctr = 1
let rptr = 3
let racc i = 4 + (i mod 8)
let rtmp = 12
let rtmp2 = 13
let rval = 20

let scaled scale n = max 16 (int_of_float (float_of_int n *. scale))

let fresh_region ~slots =
  let alloc = Prog.Code.create_allocator () in
  Prog.Code.alloc alloc ~slots

open Isa.Insn

let alu ~pc ?(dst = rtmp) ?(src1 = 0) ?(src2 = 0) () = make ~dst ~src1 ~src2 ~pc Int_alu
let mul ~pc ~dst ~src1 () = make ~dst ~src1 ~pc Int_mul
let fp ~pc ~kind ~dst ~src1 ?(src2 = 0) () = make ~dst ~src1 ~src2 ~pc kind
let load ~pc ~dst ~addr ?(src1 = 0) () = make ~dst ~src1 ~mem:{ addr; size = 8 } ~pc Load

let store ~pc ~addr ?(src1 = 0) ?(src2 = 0) () =
  make ~src1 ~src2 ~mem:{ addr; size = 8 } ~pc Store

let branch ~pc ~taken ~target ?(src1 = rtmp) () = make ~src1 ~ctrl:{ taken; target } ~pc Branch
let jump ~pc ~target () = make ~ctrl:{ taken = true; target } ~pc Jump
let call ~pc ~target () = make ~ctrl:{ taken = true; target } ~pc Call
let ret ~pc ~target () = make ~ctrl:{ taken = true; target } ~pc Ret

let with_loop region ~iters ~body_slots ~body =
  let overhead_slot = body_slots in
  let increment = alu ~pc:(Prog.Code.pc region overhead_slot) ~dst:rctr ~src1:rctr () in
  let latch taken =
    let pc = Prog.Code.pc region (overhead_slot + 1) in
    [ increment; branch ~pc ~taken ~target:(Prog.Code.pc region 0) ~src1:rctr () ]
  in
  let back = latch true and exit = latch false in
  Gen.bursts iters body ~latch:(fun pos -> if pos < iters - 1 then back else exit)

let overhead codegen ~base build =
  let most = int_of_float (Float.ceil (float_of_int base *. codegen.Codegen.overhead)) in
  let lists = Array.init (most + 1) build in
  fun ~index ->
    let k = Codegen.ops_at codegen ~index ~base in
    if k < Array.length lists then lists.(k) else build k
