type reg = int

let zero_reg = 0
let num_regs = 32

type kind =
  | Int_alu
  | Int_mul
  | Int_div
  | Fp_add
  | Fp_mul
  | Fp_div
  | Fp_cvt
  | Fp_long
  | Load
  | Store
  | Branch
  | Jump
  | Call
  | Ret
  | Fence
  | Amo
  | Nop

let kind_name = function
  | Int_alu -> "int_alu"
  | Int_mul -> "int_mul"
  | Int_div -> "int_div"
  | Fp_add -> "fp_add"
  | Fp_mul -> "fp_mul"
  | Fp_div -> "fp_div"
  | Fp_cvt -> "fp_cvt"
  | Fp_long -> "fp_long"
  | Load -> "load"
  | Store -> "store"
  | Branch -> "branch"
  | Jump -> "jump"
  | Call -> "call"
  | Ret -> "ret"
  | Fence -> "fence"
  | Amo -> "amo"
  | Nop -> "nop"

let is_mem = function Load | Store | Amo -> true | _ -> false
let is_ctrl = function Branch | Jump | Call | Ret -> true | _ -> false
let is_fp = function Fp_add | Fp_mul | Fp_div | Fp_cvt | Fp_long -> true | _ -> false

type mem_access = { addr : int; size : int }
type ctrl = { taken : bool; target : int }

type t = {
  pc : int;
  kind : kind;
  dst : reg;
  src1 : reg;
  src2 : reg;
  mem : mem_access option;
  ctrl : ctrl option;
}

let make ?(dst = zero_reg) ?(src1 = zero_reg) ?(src2 = zero_reg) ?mem ?ctrl ~pc kind =
  assert (dst >= 0 && dst < num_regs);
  assert (src1 >= 0 && src1 < num_regs);
  assert (src2 >= 0 && src2 < num_regs);
  assert (not (is_mem kind) || mem <> None);
  assert (not (is_ctrl kind) || ctrl <> None);
  { pc; kind; dst; src1; src2; mem; ctrl }

let pp ppf i =
  Format.fprintf ppf "@[%08x %s d=%d s=%d,%d%a%a@]" i.pc (kind_name i.kind) i.dst
    i.src1 i.src2
    (fun ppf -> function
      | None -> ()
      | Some { addr; size } -> Format.fprintf ppf " mem=%#x/%d" addr size)
    i.mem
    (fun ppf -> function
      | None -> ()
      | Some { taken; target } ->
        Format.fprintf ppf " %s->%#x" (if taken then "T" else "N") target)
    i.ctrl

module Latency = struct
  type table = {
    int_alu : int;
    int_mul : int;
    int_div : int;
    fp_add : int;
    fp_mul : int;
    fp_div : int;
    fp_cvt : int;
    fp_long : int;
    jump : int;
    fence : int;
    amo : int;
  }

  let default =
    {
      int_alu = 1;
      int_mul = 3;
      int_div = 16;
      fp_add = 4;
      fp_mul = 4;
      fp_div = 18;
      fp_cvt = 2;
      fp_long = 60;
      jump = 1;
      fence = 4;
      amo = 8;
    }

  let[@inline] of_kind t = function
    | Int_alu -> t.int_alu
    | Int_mul -> t.int_mul
    | Int_div -> t.int_div
    | Fp_add -> t.fp_add
    | Fp_mul -> t.fp_mul
    | Fp_div -> t.fp_div
    | Fp_cvt -> t.fp_cvt
    | Fp_long -> t.fp_long
    | Jump | Call | Ret -> t.jump
    | Fence -> t.fence
    | Amo -> t.amo
    | Load | Store | Branch | Nop -> 1
end
