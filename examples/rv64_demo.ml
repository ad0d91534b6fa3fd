(* From machine code to cycles:

   assemble a real RV64IM kernel (dot product over two arrays), execute
   it on the functional machine, disassemble a few words, and time the
   retired-instruction stream on both Banana Pi platforms — the whole
   bridge the library is named after, in one file.

   Run with: dune exec examples/rv64_demo.exe *)

module R = Isa.Rv64
module M = Isa.Machine

let n = 512
let a_base = 0x2000_0000
let b_base = 0x2001_0000

(* dot = sum a[i]*b[i]:
     x5 = i (counts down), x6 = &a, x7 = &b, x10 = dot *)
let program =
  Isa.Asm.(
    assemble
      [
        insn (R.Addi (5, 0, n));
        insn (R.Lui (6, a_base lsr 12));
        insn (R.Lui (7, b_base lsr 12));
        insn (R.Addi (10, 0, 0));
        label "loop";
        insn (R.Ld (8, 0, 6));
        insn (R.Ld (9, 0, 7));
        insn (R.Mul (8, 8, 9));
        insn (R.Add (10, 10, 8));
        insn (R.Addi (6, 6, 8));
        insn (R.Addi (7, 7, 8));
        insn (R.Addi (5, 5, -1));
        bne 5 0 "loop";
        insn R.Ecall;
      ])

let fresh_machine () =
  let m = M.create () in
  M.load_program m ~addr:0x10000 program;
  for i = 0 to n - 1 do
    M.write_mem m (a_base + (8 * i)) (Int64.of_int (i + 1));
    M.write_mem m (b_base + (8 * i)) 2L
  done;
  m

let () =
  Format.printf "== The kernel, disassembled from its encoding ==@.@.";
  Array.iteri
    (fun i instr ->
      let word = R.encode instr in
      match R.decode word with
      | Some d -> Format.printf "  %05x:  %08lx  %a@." (0x10000 + (4 * i)) word R.pp d
      | None -> assert false)
    program;

  (* Architectural run: check the answer. *)
  let m = fresh_machine () in
  let retired = Seq.fold_left (fun acc _ -> acc + 1) 0 (M.run m) in
  let expected = 2 * (n * (n + 1) / 2) in
  Format.printf "@.dot product = %Ld (expected %d), %d instructions retired@." (M.reg m 10)
    expected retired;

  (* Timing runs: the same machine code through two platforms. *)
  Format.printf "@.== The same binary through the timing models ==@.@.";
  List.iter
    (fun (cfg : Platform.Config.t) ->
      let soc = Platform.Soc.create cfg in
      let r = Platform.Soc.run_trace soc (Trace.compile (M.run (fresh_machine ()))) in
      Format.printf "  %-20s %8d cycles  (IPC %.2f)@." cfg.name r.Platform.Soc.cycles
        (float_of_int r.Platform.Soc.instructions /. float_of_int r.Platform.Soc.cycles))
    [ Platform.Catalog.banana_pi_sim; Platform.Catalog.banana_pi_hw ];
  Format.printf
    "@.The dual-issue 8-stage K1 model retires the same dynamic stream in@.\
     fewer cycles than the single-issue Rocket model — Figure 1's story,@.\
     reproduced from actual RV64 machine code.@."
