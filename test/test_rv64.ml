(* Tests for the RV64IM encoder/decoder and the functional machine. *)

module R = Isa.Rv64
module M = Isa.Machine

let samples =
  [
    R.Add (1, 2, 3); R.Sub (31, 30, 29); R.Sll (5, 6, 7); R.Slt (1, 2, 3); R.Sltu (4, 5, 6);
    R.Xor (7, 8, 9); R.Srl (10, 11, 12); R.Sra (13, 14, 15); R.Or (16, 17, 18); R.And (19, 20, 21);
    R.Mul (1, 2, 3); R.Div (4, 5, 6); R.Rem (7, 8, 9);
    R.Addi (5, 0, 42); R.Addi (5, 0, -2048); R.Slti (1, 2, -1); R.Sltiu (3, 4, 100);
    R.Xori (5, 6, 0x7FF); R.Ori (7, 8, -1); R.Andi (9, 10, 255);
    R.Slli (1, 2, 63); R.Srli (3, 4, 1); R.Srai (5, 6, 32);
    R.Ld (10, -8, 2); R.Lw (11, 2047, 3); R.Sd (12, -2048, 4); R.Sw (13, 0, 5);
    R.Beq (1, 2, -4096); R.Bne (3, 4, 4094); R.Blt (5, 6, 8); R.Bge (7, 8, -8);
    R.Bltu (9, 10, 16); R.Bgeu (11, 12, -16);
    R.Jal (1, 2048); R.Jal (0, -2048); R.Jalr (0, 1, 0); R.Jalr (1, 5, -4);
    R.Lui (3, 0xABCDE - 0x100000); R.Lui (3, 0x7FFFF); R.Auipc (4, 1); R.Ecall;
  ]

let test_roundtrip_samples () =
  List.iter
    (fun i ->
      match R.decode (R.encode i) with
      | Some j ->
        Alcotest.(check string)
          (Format.asprintf "%a" R.pp i)
          (Format.asprintf "%a" R.pp i) (Format.asprintf "%a" R.pp j)
      | None -> Alcotest.fail (Format.asprintf "decode failed for %a" R.pp i))
    samples

let test_known_encodings () =
  (* Cross-checked golden words: addi x0,x0,0 (canonical NOP) and
     ecall. *)
  Alcotest.(check int32) "nop" 0x00000013l (R.encode (R.Addi (0, 0, 0)));
  Alcotest.(check int32) "ecall" 0x00000073l (R.encode R.Ecall);
  Alcotest.(check int32) "add x1,x2,x3" 0x003100b3l (R.encode (R.Add (1, 2, 3)));
  Alcotest.(check int32) "ret (jalr x0,0(x1))" 0x00008067l (R.encode (R.Jalr (0, 1, 0)))

let test_decode_garbage () =
  Alcotest.(check bool) "all-ones undecodable" true (R.decode 0xFFFFFFFFl = None);
  Alcotest.(check bool) "zero undecodable" true (R.decode 0l = None)

let test_range_checks () =
  Alcotest.check_raises "I overflow" (Invalid_argument "Rv64: I immediate 2048 out of range")
    (fun () -> ignore (R.encode (R.Addi (1, 1, 2048))));
  Alcotest.check_raises "odd branch" (Invalid_argument "Rv64: branch offset must be even")
    (fun () -> ignore (R.encode (R.Beq (1, 2, 3))))

let test_kind_mapping () =
  Alcotest.(check bool) "jal x1 is call" true (R.kind_of (R.Jal (1, 8)) = Isa.Insn.Call);
  Alcotest.(check bool) "jal x0 is jump" true (R.kind_of (R.Jal (0, 8)) = Isa.Insn.Jump);
  Alcotest.(check bool) "jalr x0,(x1) is ret" true (R.kind_of (R.Jalr (0, 1, 0)) = Isa.Insn.Ret);
  Alcotest.(check bool) "mul" true (R.kind_of (R.Mul (1, 2, 3)) = Isa.Insn.Int_mul)

(* --- machine --- *)

let run_program ?(pc = 0x10000) program =
  let m = M.create ~pc () in
  M.load_program m ~addr:pc (Array.of_list program);
  let insns = List.of_seq (M.run m) in
  (m, insns)

let test_machine_arith () =
  let m, _ = run_program [ R.Addi (5, 0, 21); R.Addi (6, 0, 2); R.Mul (7, 5, 6); R.Ecall ] in
  Alcotest.(check int64) "21*2" 42L (M.reg m 7);
  Alcotest.(check bool) "halted" true (M.halted m);
  Alcotest.(check int) "4 retired" 4 (M.instret m)

let test_machine_x0_hardwired () =
  let m, _ = run_program [ R.Addi (0, 0, 99); R.Ecall ] in
  Alcotest.(check int64) "x0 stays zero" 0L (M.reg m 0)

let test_machine_memory () =
  let m, insns =
    run_program
      [ R.Addi (5, 0, 0x123); R.Addi (6, 0, 0x400); R.Sd (5, 0, 6); R.Ld (7, 0, 6); R.Ecall ]
  in
  Alcotest.(check int64) "store/load roundtrip" 0x123L (M.reg m 7);
  let loads = List.filter (fun (i : Isa.Insn.t) -> i.kind = Isa.Insn.Load) insns in
  Alcotest.(check int) "one load emitted" 1 (List.length loads);
  (match loads with
  | [ l ] -> Alcotest.(check bool) "load addr" true ((Option.get l.mem).addr = 0x400)
  | _ -> Alcotest.fail "loads")

let test_machine_loop_sum () =
  (* sum = 1 + 2 + ... + 10, as a real branch loop.
       x5 = i = 10; x6 = sum = 0
     loop: add x6, x6, x5 ; addi x5, x5, -1 ; bne x5, x0, loop ; ecall *)
  let m, insns =
    run_program
      [
        R.Addi (5, 0, 10);
        R.Addi (6, 0, 0);
        R.Add (6, 6, 5);
        R.Addi (5, 5, -1);
        R.Bne (5, 0, -8);
        R.Ecall;
      ]
  in
  Alcotest.(check int64) "sum 55" 55L (M.reg m 6);
  let branches = List.filter (fun (i : Isa.Insn.t) -> i.kind = Isa.Insn.Branch) insns in
  Alcotest.(check int) "10 branch executions" 10 (List.length branches);
  let taken = List.filter (fun (i : Isa.Insn.t) -> (Option.get i.ctrl).taken) branches in
  Alcotest.(check int) "9 taken" 9 (List.length taken)

let test_machine_call_ret () =
  (* call a function that doubles x10, then halt.
     0x10000: jal x1, +12  (to 0x1000c)
     0x10004: ecall
     0x10008: (padding nop)
     0x1000c: add x10, x10, x10 ; jalr x0, 0(x1) *)
  let m, insns =
    run_program
      [
        R.Addi (10, 0, 7);
        R.Jal (1, 12);
        R.Ecall;
        R.Addi (0, 0, 0) |> Fun.id;
        R.Add (10, 10, 10);
        R.Jalr (0, 1, 0);
      ]
  in
  Alcotest.(check int64) "doubled" 14L (M.reg m 10);
  Alcotest.(check bool) "saw call and ret" true
    (List.exists (fun (i : Isa.Insn.t) -> i.kind = Isa.Insn.Call) insns
    && List.exists (fun (i : Isa.Insn.t) -> i.kind = Isa.Insn.Ret) insns)

let test_machine_fibonacci () =
  (* Iterative fib(12) = 144. *)
  let m, _ =
    run_program
      [
        R.Addi (5, 0, 12);
        (* n *)
        R.Addi (6, 0, 0);
        (* a *)
        R.Addi (7, 0, 1);
        (* b *)
        R.Add (8, 6, 7);
        (* t = a+b *)
        R.Add (6, 7, 0);
        (* a = b *)
        R.Add (7, 8, 0);
        (* b = t *)
        R.Addi (5, 5, -1);
        R.Bne (5, 0, -16);
        R.Ecall;
      ]
  in
  Alcotest.(check int64) "fib" 144L (M.reg m 6)

let test_machine_illegal () =
  let m = M.create () in
  M.load_words m ~addr:0x10000 [| 0xFFFFFFFFl |];
  match M.step m with
  | exception M.Illegal_instruction (pc, _) -> Alcotest.(check int) "at pc" 0x10000 pc
  | _ -> Alcotest.fail "expected Illegal_instruction"

let test_machine_stream_times_on_platform () =
  (* The full bridge: real machine code -> retired stream -> cycles on a
     catalog platform. *)
  let mk () =
    let m = M.create () in
    M.load_program m ~addr:0x10000
      (Array.of_list
         [
           R.Addi (5, 0, 2000);
           R.Addi (6, 0, 0);
           R.Add (6, 6, 5);
           R.Addi (5, 5, -1);
           R.Bne (5, 0, -8);
           R.Ecall;
         ]);
    M.run m
  in
  let soc = Platform.Soc.create Platform.Catalog.banana_pi_sim in
  let r = Platform.Soc.run_trace soc (Trace.compile (mk ())) in
  Alcotest.(check int) "all retired" (2 + (3 * 2000) + 1) r.Platform.Soc.instructions;
  Alcotest.(check bool) "took plausible cycles" true
    (r.Platform.Soc.cycles > 4000 && r.Platform.Soc.cycles < 100_000)

let gen_instr =
  let open QCheck.Gen in
  let reg = int_range 0 31 in
  let imm12 = int_range (-2048) 2047 in
  let bimm = map (fun i -> i * 2) (int_range (-2048) 2047) in
  oneof
    [
      map3 (fun a b c -> R.Add (a, b, c)) reg reg reg;
      map3 (fun a b c -> R.Sub (a, b, c)) reg reg reg;
      map3 (fun a b c -> R.Mul (a, b, c)) reg reg reg;
      map3 (fun a b i -> R.Addi (a, b, i)) reg reg imm12;
      map3 (fun a b i -> R.Andi (a, b, i)) reg reg imm12;
      map3 (fun a i b -> R.Ld (a, i, b)) reg imm12 reg;
      map3 (fun a i b -> R.Sd (a, i, b)) reg imm12 reg;
      map3 (fun a b i -> R.Beq (a, b, i)) reg reg bimm;
      map3 (fun a b i -> R.Blt (a, b, i)) reg reg bimm;
      map2 (fun a i -> R.Jal (a, i * 2)) reg (int_range (-524288) 524287);
      map2 (fun a i -> R.Lui (a, i)) reg (int_range (-524288) 524287);
      map3 (fun a b i -> R.Jalr (a, b, i)) reg reg imm12;
      map3 (fun a b i -> R.Slli (a, b, i)) reg reg (int_range 0 63);
    ]

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"rv64 encode/decode roundtrip" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" R.pp) gen_instr)
    (fun i -> match R.decode (R.encode i) with Some j -> i = j | None -> false)

let suite =
  [
    Alcotest.test_case "roundtrip samples" `Quick test_roundtrip_samples;
    Alcotest.test_case "golden encodings" `Quick test_known_encodings;
    Alcotest.test_case "garbage undecodable" `Quick test_decode_garbage;
    Alcotest.test_case "range checks" `Quick test_range_checks;
    Alcotest.test_case "IR kind mapping" `Quick test_kind_mapping;
    Alcotest.test_case "machine arithmetic" `Quick test_machine_arith;
    Alcotest.test_case "x0 hardwired" `Quick test_machine_x0_hardwired;
    Alcotest.test_case "memory roundtrip" `Quick test_machine_memory;
    Alcotest.test_case "loop sum" `Quick test_machine_loop_sum;
    Alcotest.test_case "call/ret" `Quick test_machine_call_ret;
    Alcotest.test_case "fibonacci" `Quick test_machine_fibonacci;
    Alcotest.test_case "illegal instruction" `Quick test_machine_illegal;
    Alcotest.test_case "machine code to cycles" `Quick test_machine_stream_times_on_platform;
    QCheck_alcotest.to_alcotest prop_encode_decode_roundtrip;
  ]

(* --- assembler --- *)

module A = Isa.Asm

let test_asm_backward_branch () =
  (* Same sum-loop as above, but with labels. *)
  let program =
    A.assemble
      [
        A.insn (R.Addi (5, 0, 10));
        A.insn (R.Addi (6, 0, 0));
        A.label "loop";
        A.insn (R.Add (6, 6, 5));
        A.insn (R.Addi (5, 5, -1));
        A.bne 5 0 "loop";
        A.insn R.Ecall;
      ]
  in
  let m = M.create () in
  M.load_program m ~addr:0x10000 program;
  ignore (List.of_seq (M.run m));
  Alcotest.(check int64) "sum 55" 55L (M.reg m 6)

let test_asm_forward_branch () =
  (* if x5 = 0 then x6 = 1 else x6 = 2 *)
  let program =
    A.assemble
      [
        A.insn (R.Addi (5, 0, 0));
        A.beq 5 0 "then";
        A.insn (R.Addi (6, 0, 2));
        A.j "end";
        A.label "then";
        A.insn (R.Addi (6, 0, 1));
        A.label "end";
        A.insn R.Ecall;
      ]
  in
  let m = M.create () in
  M.load_program m ~addr:0x10000 program;
  ignore (List.of_seq (M.run m));
  Alcotest.(check int64) "took then-branch" 1L (M.reg m 6)

let test_asm_call_ret () =
  let program =
    A.assemble
      [
        A.insn (R.Addi (10, 0, 5));
        A.call "triple";
        A.insn R.Ecall;
        A.label "triple";
        A.insn (R.Add (11, 10, 10));
        A.insn (R.Add (10, 11, 10));
        A.ret;
      ]
  in
  let m = M.create () in
  M.load_program m ~addr:0x10000 program;
  ignore (List.of_seq (M.run m));
  Alcotest.(check int64) "tripled" 15L (M.reg m 10)

let test_asm_label_errors () =
  (match A.assemble [ A.j "nowhere" ] with
  | exception A.Unknown_label "nowhere" -> ()
  | _ -> Alcotest.fail "expected Unknown_label");
  match A.assemble [ A.label "x"; A.label "x"; A.insn R.Ecall ] with
  | exception A.Duplicate_label "x" -> ()
  | _ -> Alcotest.fail "expected Duplicate_label"

let test_asm_base_independent_semantics () =
  (* Label offsets are PC-relative: the program behaves identically at a
     different load address. *)
  let items =
    [
      A.insn (R.Addi (5, 0, 3));
      A.label "loop";
      A.insn (R.Addi (5, 5, -1));
      A.bne 5 0 "loop";
      A.insn R.Ecall;
    ]
  in
  let run base =
    let m = M.create ~pc:base () in
    M.load_program m ~addr:base (A.assemble ~base items);
    Seq.fold_left (fun n _ -> n + 1) 0 (M.run m)
  in
  Alcotest.(check int) "same retire count" (run 0x10000) (run 0x40000)

let asm_suite =
  [
    Alcotest.test_case "asm backward branch" `Quick test_asm_backward_branch;
    Alcotest.test_case "asm forward branch" `Quick test_asm_forward_branch;
    Alcotest.test_case "asm call/ret" `Quick test_asm_call_ret;
    Alcotest.test_case "asm label errors" `Quick test_asm_label_errors;
    Alcotest.test_case "asm base independence" `Quick test_asm_base_independent_semantics;
  ]

let suite = suite @ asm_suite

let test_machine_runaway_guard () =
  (* jal x0, 0 — a tight infinite loop; run must respect max_insns. *)
  let m = M.create () in
  M.load_program m ~addr:0x10000 [| R.Jal (0, 0) |];
  let n = Seq.fold_left (fun acc _ -> acc + 1) 0 (M.run ~max_insns:500 m) in
  Alcotest.(check int) "capped" 500 n;
  Alcotest.(check bool) "not halted" false (M.halted m)

let suite = suite @ [ Alcotest.test_case "runaway guard" `Quick test_machine_runaway_guard ]
