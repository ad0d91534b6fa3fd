module Gen = Prog.Gen
module E = Emit

let split n ranks r =
  (* Contiguous block partition: first (n mod ranks) ranks get one extra. *)
  let q = n / ranks and rem = n mod ranks in
  let lo = (r * q) + min r rem in
  let sz = q + if r < rem then 1 else 0 in
  (lo, sz)

(* ------------------------------------------------------------------ CG *)

(* Conjugate gradient on a diagonally dominant random sparse matrix.  The
   numerics run for real at construction (so the access pattern and the
   iteration structure are those of a genuine solve); emission replays the
   per-rank memory traffic. *)
let cg_program ?(codegen = Codegen.default) ~ranks ~scale () : Smpi.program =
  let n = E.scaled scale 1400 in
  let nnz_row = 8 in
  let iters = 6 in
  let rng = Util.Rng.create 0xC6 in
  let cols = Array.init n (fun _ -> Array.init nnz_row (fun _ -> Util.Rng.int rng n)) in
  let vals = Array.init n (fun _ -> Array.init nnz_row (fun _ -> Util.Rng.float rng 1.0)) in
  (* Real CG iterations (sequential reference solve) — keeps the workload
     honest and gives tests something to verify. *)
  let diag = Array.init n (fun i -> 1.0 +. Array.fold_left ( +. ) 0.0 vals.(i)) in
  let spmv x y =
    for i = 0 to n - 1 do
      let acc = ref (diag.(i) *. x.(i)) in
      for k = 0 to nnz_row - 1 do
        acc := !acc +. (vals.(i).(k) *. x.(cols.(i).(k)))
      done;
      y.(i) <- !acc
    done
  in
  let b = Array.make n 1.0 in
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let p = Array.copy b in
  let q = Array.make n 0.0 in
  let dot a c = Array.fold_left ( +. ) 0.0 (Array.init n (fun i -> a.(i) *. c.(i))) in
  let residuals = ref [] in
  let rho = ref (dot r r) in
  for _ = 1 to iters do
    spmv p q;
    let alpha = !rho /. dot p q in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) +. (alpha *. p.(i));
      r.(i) <- r.(i) -. (alpha *. q.(i))
    done;
    let rho' = dot r r in
    let beta = rho' /. !rho in
    for i = 0 to n - 1 do
      p.(i) <- r.(i) +. (beta *. p.(i))
    done;
    rho := rho';
    residuals := sqrt rho' :: !residuals
  done;
  (* Per-rank layout within the rank's data window: p (gathered, full n),
     then x/r/q (local rows), then column indices and values. *)
  let mk_rank rank =
    let base = Workload.data_base ~rank in
    let p_base = base in
    let x_base = base + (n * 8) in
    let r_base = x_base + (n * 8) in
    let q_base = r_base + (n * 8) in
    let col_base = q_base + (n * 8) in
    let val_base = col_base + (n * nnz_row * 4) in
    let lo, sz = split n ranks rank in
    let region = E.fresh_region ~slots:32 in
    let pc = Prog.Code.pc region in

    let nz_math =
      [
        E.fp ~pc:(pc 3) ~kind:Isa.Insn.Fp_mul ~dst:23 ~src1:21 ~src2:22 ();
        E.fp ~pc:(pc 4) ~kind:Isa.Insn.Fp_add ~dst:24 ~src1:24 ~src2:23 ();
      ]
    in
    let row_end taken =
      let branch = E.branch ~pc:(pc 15) ~taken ~target:(pc 0) ~src1:E.rctr () in
      E.overhead codegen ~base:1 (fun k ->
          List.init k (fun j -> E.alu ~pc:(pc (6 + (j mod 8))) ~dst:E.rctr ~src1:E.rctr ()) @ [ branch ])
    in
    let next_row = row_end true and last_row = row_end false in
    let spmv_stream =
      Gen.bursts sz (fun row_i ->
          let row = lo + row_i in
          let rec per_nz k acc =
            if k < 0 then acc
            else
              let at = (row * nnz_row) + k in
              per_nz (k - 1)
                (E.load ~pc:(pc 0) ~dst:E.rtmp ~addr:(col_base + (at * 4)) ()
                :: E.load ~pc:(pc 1) ~dst:21 ~addr:(p_base + (cols.(row).(k) * 8)) ~src1:E.rtmp ()
                :: E.load ~pc:(pc 2) ~dst:22 ~addr:(val_base + (at * 8)) ()
                :: (nz_math @ acc))
          in
          per_nz (nnz_row - 1)
            (E.store ~pc:(pc 5) ~addr:(q_base + (row * 8)) ~src1:24 ()
            :: (if row_i < sz - 1 then next_row else last_row) ~index:row_i))
    in
    (* dot product over local rows: two streaming loads + fma. *)
    let dot_math =
      [
        E.fp ~pc:(pc 18) ~kind:Isa.Insn.Fp_mul ~dst:23 ~src1:21 ~src2:22 ();
        E.fp ~pc:(pc 19) ~kind:Isa.Insn.Fp_add ~dst:24 ~src1:24 ~src2:23 ();
      ]
    in
    let dot_stream a_base b_base =
      E.with_loop region ~iters:sz ~body_slots:20 ~body:(fun i ->
          E.load ~pc:(pc 16) ~dst:21 ~addr:(a_base + ((lo + i) * 8)) ()
          :: E.load ~pc:(pc 17) ~dst:22 ~addr:(b_base + ((lo + i) * 8)) ()
          :: dot_math)
    in
    (* axpy-style vector updates: x += alpha p; r -= alpha q; p = r + beta p. *)
    let scale_p = E.fp ~pc:(pc 21) ~kind:Isa.Insn.Fp_mul ~dst:22 ~src1:21 () in
    let add_x = E.fp ~pc:(pc 23) ~kind:Isa.Insn.Fp_add ~dst:23 ~src1:23 ~src2:22 () in
    let add_r = E.fp ~pc:(pc 26) ~kind:Isa.Insn.Fp_add ~dst:25 ~src1:25 ~src2:22 () in
    let update_stream =
      E.with_loop region ~iters:sz ~body_slots:28 ~body:(fun i ->
          let row = lo + i in
          [
            E.load ~pc:(pc 20) ~dst:21 ~addr:(p_base + (row * 8)) ();
            scale_p;
            E.load ~pc:(pc 22) ~dst:23 ~addr:(x_base + (row * 8)) ();
            add_x;
            E.store ~pc:(pc 24) ~addr:(x_base + (row * 8)) ~src1:23 ();
            E.load ~pc:(pc 25) ~dst:25 ~addr:(r_base + (row * 8)) ();
            add_r;
            E.store ~pc:(pc 27) ~addr:(r_base + (row * 8)) ~src1:25 ();
          ])
    in
    let iteration =
      [
        (* Share the updated direction vector p; chunk size is the
           (rank-independent) ceiling share so collectives match even when
           the row split is uneven. *)
        Smpi.Comm (Smpi.Allgather { bytes = (n + ranks - 1) / ranks * 8 });
        Smpi.Compute spmv_stream;
        Smpi.Compute (dot_stream p_base q_base);
        Smpi.Comm (Smpi.Allreduce { bytes = 8 });
        Smpi.Compute update_stream;
        Smpi.Compute (dot_stream r_base r_base);
        Smpi.Comm (Smpi.Allreduce { bytes = 8 });
      ]
    in
    List.concat (List.init iters (fun _ -> iteration))
  in
  ignore !residuals;
  Array.init ranks mk_rank

(* ------------------------------------------------------------------ EP *)

(* Marsaglia polar method: the accept branch follows real arithmetic on a
   positionally hashed PRNG, so the ~78.5% acceptance rate (and its
   unpredictability at fine grain) is genuine. *)
let ep_program ?(codegen = Codegen.default) ~ranks ~scale () : Smpi.program =
  let total = E.scaled scale 36_000 in
  let u seed pos =
    (* Stateless uniform in [0,1), same recipe as Prog.Outcome. *)
    let mix z =
      let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
      let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
      Int64.(logxor z (shift_right_logical z 31))
    in
    let h = mix (Int64.add (Int64.of_int (Util.Rng.salted seed)) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (pos + 1)))) in
    Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0
  in

  let mk_rank rank =
    let base = Workload.data_base ~rank in
    let _, sz = split total ranks rank in
    let region = E.fresh_region ~slots:48 in
    let pc = Prog.Code.pc region in
    let seed = 0xE9 + rank in
    (* sqrt(-2 ln t / t): two interleaved polynomial chains plus a
       divide, then the histogram update. *)
    let gaussian =
      List.concat
        (List.init 2 (fun k ->
             [
               E.fp ~pc:(pc (16 + (2 * k))) ~kind:Isa.Insn.Fp_mul ~dst:24 ~src1:24 ();
               E.fp ~pc:(pc (17 + (2 * k))) ~kind:Isa.Insn.Fp_add ~dst:25 ~src1:25 ();
             ]))
      @ [
          E.fp ~pc:(pc 22) ~kind:Isa.Insn.Fp_div ~dst:26 ~src1:24 ~src2:23 ();
          E.fp ~pc:(pc 23) ~kind:Isa.Insn.Fp_mul ~dst:27 ~src1:22 ~src2:26 ();
          E.alu ~pc:(pc 24) ~dst:E.rtmp ~src1:27 ();
        ]
    in
    (* vranlc-style PRNG: integer-dominated, wide ILP — this is where a
       dual-issue / wider silicon core pulls ahead of the model.  Then the
       acceptance test, whose branch follows the real arithmetic, and on
       acceptance the Gaussian's arithmetic. *)
    let draw accept =
      let test =
        E.fp ~pc:(pc 12) ~kind:Isa.Insn.Fp_mul ~dst:21 ~src1:21 ()
        :: E.fp ~pc:(pc 13) ~kind:Isa.Insn.Fp_mul ~dst:22 ~src1:22 ()
        :: E.fp ~pc:(pc 14) ~kind:Isa.Insn.Fp_add ~dst:23 ~src1:21 ~src2:22 ()
        :: E.branch ~pc:(pc 15) ~taken:(not accept) ~target:(pc 36) ~src1:23 ()
        :: (if accept then gaussian else [])
      in
      E.overhead codegen ~base:18 (fun k ->
          List.init k (fun j -> E.alu ~pc:(pc (j mod 12)) ~dst:(E.racc j) ~src1:(E.racc j) ()) @ test)
    in
    let accepted_draw = draw true and rejected_draw = draw false in
    let count = E.alu ~pc:(pc 26) ~dst:E.rtmp2 ~src1:E.rtmp2 () in
    let stream =
      E.with_loop region ~iters:sz ~body_slots:40 ~body:(fun i ->
          let x = (2.0 *. u seed (2 * i)) -. 1.0 in
          let y = (2.0 *. u (seed + 7) ((2 * i) + 1)) -. 1.0 in
          let t = (x *. x) +. (y *. y) in
          if not (t <= 1.0 && t > 0.0) then rejected_draw ~index:i
          else
            let bin v = base + (abs (int_of_float (v *. 8.0)) mod 10 * 8) in
            accepted_draw ~index:i
            @ [
                E.load ~pc:(pc 25) ~dst:E.rtmp2 ~addr:(bin x) ();
                count;
                E.store ~pc:(pc 27) ~addr:(bin y) ~src1:E.rtmp2 ();
              ])
    in
    [ Smpi.Compute stream; Smpi.Comm (Smpi.Allreduce { bytes = 80 }) ]
  in
  Array.init ranks mk_rank

(* ------------------------------------------------------------------ IS *)

let is_program ?(codegen = Codegen.default) ~ranks ~scale () : Smpi.program =
  let total_keys = E.scaled scale 32_768 in
  let buckets = 2048 in
  let key seed pos =
    let mix z =
      let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
      let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
      Int64.(logxor z (shift_right_logical z 31))
    in
    let h = mix (Int64.add (Int64.of_int (Util.Rng.salted seed)) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (pos + 1)))) in
    Int64.to_int (Int64.logand h 0x7FFL) land (buckets - 1)
  in

  let mk_rank rank =
    let base = Workload.data_base ~rank in
    let keys_base = base in
    let bucket_base = base + (total_keys * 4) in
    let out_base = bucket_base + (buckets * 4) in
    let _, sz = split total_keys ranks rank in
    let region = E.fresh_region ~slots:32 in
    let pc = Prog.Code.pc region in
    let seed = 0x15 + rank in
    let bump = E.alu ~pc:(pc 5) ~dst:E.rtmp2 ~src1:E.rtmp2 () in
    let hash =
      E.overhead codegen ~base:2 (fun k ->
          List.init k (fun j -> E.alu ~pc:(pc (1 + j)) ~dst:E.rtmp ~src1:E.rval ()))
    in
    (* Phase 1: histogram — stream keys, random-access bucket counters. *)
    let histogram =
      E.with_loop region ~iters:sz ~body_slots:12 ~body:(fun i ->
          let counter = bucket_base + (key seed i * 4) in
          E.load ~pc:(pc 0) ~dst:E.rval ~addr:(keys_base + (i * 4)) ()
          :: (hash ~index:i
             @ [
                 E.load ~pc:(pc 4) ~dst:E.rtmp2 ~addr:counter ~src1:E.rtmp ();
                 bump;
                 E.store ~pc:(pc 6) ~addr:counter ~src1:E.rtmp2 ();
               ]))
    in
    (* Phase 3: ranking — prefix sums over buckets then scatter of keys. *)
    let sum = E.alu ~pc:(pc 17) ~dst:(E.racc 0) ~src1:E.rval ~src2:(E.racc 0) () in
    let prefix =
      E.with_loop region ~iters:buckets ~body_slots:20 ~body:(fun b ->
          [
            E.load ~pc:(pc 16) ~dst:E.rval ~addr:(bucket_base + (b * 4)) ();
            sum;
            E.store ~pc:(pc 18) ~addr:(bucket_base + (b * 4)) ~src1:(E.racc 0) ();
          ])
    in
    let rank_of = E.alu ~pc:(pc 26) ~dst:E.rtmp ~src1:E.rtmp () in
    let scatter =
      E.with_loop region ~iters:sz ~body_slots:28 ~body:(fun i ->
          let k = key seed i in
          [
            E.load ~pc:(pc 24) ~dst:E.rval ~addr:(keys_base + (i * 4)) ();
            E.load ~pc:(pc 25) ~dst:E.rtmp ~addr:(bucket_base + (k * 4)) ();
            rank_of;
            E.store ~pc:(pc 27) ~addr:(out_base + (((k * 16) + (i mod 16)) * 4)) ~src1:E.rval ();
          ])
    in
    [
      Smpi.Compute histogram;
      (* Exchange keys so each rank owns a contiguous bucket range. *)
      Smpi.Comm (Smpi.Alltoall { bytes_per_rank = total_keys / (ranks * ranks) * 4 });
      Smpi.Compute prefix;
      Smpi.Compute scatter;
      Smpi.Comm (Smpi.Allreduce { bytes = 8 });
    ]
  in
  Array.init ranks mk_rank

(* ------------------------------------------------------------------ MG *)

let mg_program ?(codegen = Codegen.default) ~ranks ~scale () : Smpi.program =
  (* Anisotropic mini-grid: the x-dimension keeps full-scale row length
     (long unit-stride streams, as class A's 256-point rows have) while
     y/z shrink, keeping instruction counts tractable.  Only x coarsens
     across levels.  [E.scaled]'s 16-point floor holds ny at 16 for every
     scale below 16/6 (about 2.7), so MG is then one fixed-size program:
     11,337,984 instructions under gcc-13.2. *)
  let ny = E.scaled scale 6 in
  let nz = ny in
  let nx = 24 * ny in
  let levels = 3 in
  let cycles = 1 in
  let mk_rank rank =
    let base = Workload.data_base ~rank in
    let region = E.fresh_region ~slots:48 in
    let pc = Prog.Code.pc region in
    let grid_base l = base + (l * 8 * nx * ny * nz) in
    (* The 7-point stencil's arithmetic and loop overhead, and the row
       latch in both branch outcomes, are the same at every point. *)
    let stencil =
      List.init 6 (fun j ->
          E.fp ~pc:(pc (8 + j)) ~kind:Isa.Insn.Fp_add ~dst:E.rval ~src1:E.rval ~src2:(E.racc (j + 1)) ())
      @ [ E.fp ~pc:(pc 14) ~kind:Isa.Insn.Fp_mul ~dst:E.rval ~src1:E.rval () ]
    in
    let arith =
      E.overhead codegen ~base:2 (fun k ->
          stencil @ List.init k (fun j -> E.alu ~pc:(pc (15 + j)) ~dst:E.rtmp ~src1:E.rtmp ()))
    in
    let step = E.alu ~pc:(pc 21) ~dst:E.rctr ~src1:E.rctr () in
    let latch taken = [ step; E.branch ~pc:(pc 22) ~taken ~target:(pc 0) ~src1:E.rctr () ] in
    let next_x = latch true and row_end = latch false in
    let clamp hi v = if v < 0 then 0 else if v > hi then hi else v in
    let neighbors = [| (0, 0, 0); (-1, 0, 0); (1, 0, 0); (0, -1, 0); (0, 1, 0); (0, 0, -1); (0, 0, 1) |] in
    let sweep ~level ~out_offset =
      let n = max 8 (nx lsr level) in
      let lo_z, sz_z = split nz ranks rank in
      let gb = grid_base level in
      let idx x y z = ((((z * ny) + y) * n) + x) * 8 in
      (* One burst per interior point p, z-major then y then x, with the
         point's output store leading its latch. *)
      let row p = p / (n - 2) in
      let y_of p = (row p mod (ny - 2)) + 1 and z_of p = lo_z + (row p / (ny - 2)) in
      Gen.bursts
        (sz_z * (ny - 2) * (n - 2))
        (fun p ->
          let xm = p mod (n - 2) and y = y_of p and z = z_of p in
          let rec loads j acc =
            if j < 0 then acc
            else
              let dx, dy, dz = neighbors.(j) in
              let addr = gb + idx (xm + 1 + dx) (clamp (ny - 1) (y + dy)) (clamp (nz - 1) (z + dz)) in
              loads (j - 1) (E.load ~pc:(pc j) ~dst:(E.racc j) ~addr () :: acc)
          in
          loads (Array.length neighbors - 1) (arith ~index:xm))
        ~latch:(fun p ->
          let xm = p mod (n - 2) in
          E.store ~pc:(pc 20) ~addr:(gb + out_offset + idx (xm + 1) (y_of p) (z_of p)) ~src1:E.rval ()
          :: (if xm < n - 3 then next_x else row_end))
    in
    let halo ~level =
      (* Ring halo: send both boundary planes eagerly, then receive both. *)
      let n = max 8 (nx lsr level) in
      let plane_bytes = n * ny * 8 in
      let up = (rank + 1) mod ranks in
      let down = (rank + ranks - 1) mod ranks in
      if ranks = 1 then []
      else
        [
          Smpi.Comm (Smpi.Send { dst = up; bytes = plane_bytes; tag = level });
          Smpi.Comm (Smpi.Send { dst = down; bytes = plane_bytes; tag = 100 + level });
          Smpi.Comm (Smpi.Recv { src = down; bytes = plane_bytes; tag = level });
          Smpi.Comm (Smpi.Recv { src = up; bytes = plane_bytes; tag = 100 + level });
        ]
    in
    let level_pass level =
      halo ~level
      @ [ Smpi.Compute (sweep ~level ~out_offset:(4 * nx * ny * nz) ) ]
      @ halo ~level
      @ [ Smpi.Compute (sweep ~level ~out_offset:0) ]
    in
    let v_cycle =
      List.concat (List.init levels level_pass)
      @ List.concat (List.init levels (fun l -> level_pass (levels - 1 - l)))
      @ [ Smpi.Comm (Smpi.Allreduce { bytes = 8 }) ]
    in
    List.concat (List.init cycles (fun _ -> v_cycle))
  in
  Array.init ranks mk_rank

(* ------------------------------------------------------------------ apps *)

let app name description characteristics make =
  { Workload.app_name = name; app_description = description; characteristics; make }

let cg =
  app "cg" "Conjugate Gradient (mini class A)" "Memory Latency" (fun ~codegen ~ranks ~scale ->
      cg_program ~codegen ~ranks ~scale ())

let ep =
  app "ep" "Embarrassingly Parallel (mini class A)" "Compute" (fun ~codegen ~ranks ~scale ->
      ep_program ~codegen ~ranks ~scale ())

let is =
  app "is" "Integer Sort (mini class A)" "Memory Latency, BW" (fun ~codegen ~ranks ~scale ->
      is_program ~codegen ~ranks ~scale ())

let mg =
  app "mg" "Multi-Grid (mini class A)" "Memory Latency, BW" (fun ~codegen ~ranks ~scale ->
      mg_program ~codegen ~ranks ~scale ())

let all = [ cg; ep; is; mg ]

let find name =
  match List.find_opt (fun a -> a.Workload.app_name = name) all with
  | Some a -> a
  | None -> raise Not_found
