module Gen = Prog.Gen
module E = Emit

type mesh = {
  n : int;
  zones : int;
  points : int;
  corners : int;
  faces : int;
  corner_to_point : int array;
  face_to_point : int array;
}

let build_mesh ?(seed = 0x03E) ~n () =
  if n < 2 then invalid_arg "Ume.build_mesh: n >= 2";
  let np = n + 1 in
  let points = np * np * np in
  let zones = n * n * n in
  let corners = zones * 8 in
  (* Unstructured point numbering: a random permutation destroys the
     geometric locality a structured index would give, which is exactly
     the indirection penalty UME measures. *)
  let rng = Util.Rng.create seed in
  let renumber = Util.Rng.permutation rng points in
  let pid x y z = renumber.((((z * np) + y) * np) + x) in
  let corner_to_point = Array.make corners 0 in
  let zone = ref 0 in
  for zz = 0 to n - 1 do
    for zy = 0 to n - 1 do
      for zx = 0 to n - 1 do
        List.iteri
          (fun c (dx, dy, dz) -> corner_to_point.((!zone * 8) + c) <- pid (zx + dx) (zy + dy) (zz + dz))
          [ (0, 0, 0); (1, 0, 0); (0, 1, 0); (1, 1, 0); (0, 0, 1); (1, 0, 1); (0, 1, 1); (1, 1, 1) ];
        incr zone
      done
    done
  done;
  (* Faces normal to each axis: 3 * n^2 * (n+1), 4 points each. *)
  let faces = 3 * n * n * np in
  let face_to_point = Array.make (faces * 4) 0 in
  let f = ref 0 in
  let add_face p0 p1 p2 p3 =
    face_to_point.((!f * 4) + 0) <- p0;
    face_to_point.((!f * 4) + 1) <- p1;
    face_to_point.((!f * 4) + 2) <- p2;
    face_to_point.((!f * 4) + 3) <- p3;
    incr f
  in
  for x = 0 to n do
    for y = 0 to n - 1 do
      for z = 0 to n - 1 do
        add_face (pid x y z) (pid x (y + 1) z) (pid x (y + 1) (z + 1)) (pid x y (z + 1))
      done
    done
  done;
  for y = 0 to n do
    for x = 0 to n - 1 do
      for z = 0 to n - 1 do
        add_face (pid x y z) (pid (x + 1) y z) (pid (x + 1) y (z + 1)) (pid x y (z + 1))
      done
    done
  done;
  for z = 0 to n do
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        add_face (pid x y z) (pid (x + 1) y z) (pid (x + 1) (y + 1) z) (pid x (y + 1) z)
      done
    done
  done;
  { n; zones; points; corners; faces; corner_to_point; face_to_point }

let split n ranks r =
  let q = n / ranks and rem = n mod ranks in
  let lo = (r * q) + min r rem in
  (lo, q + if r < rem then 1 else 0)

let program ?(codegen = Codegen.default) ~ranks ~scale () : Smpi.program =
  let n = max 4 (int_of_float (float_of_int 12 *. (scale ** (1.0 /. 3.0)))) in
  let mesh = build_mesh ~n () in
  (* Indexed-gather loops vectorize on the boards (RVV vluxei) but far
     less profitably than dense FP loops: effective width 2, scalar on
     the FireSim image.  The inverted (scatter) kernel stays scalar —
     its read-modify-write conflicts defeat autovectorization. *)
  let vw = min 2 (max 1 (int_of_float codegen.Codegen.vector_width)) in

  let mk_rank rank =
    let base = Workload.data_base ~rank in
    let coords_base = base in
    (* x,y,z interleaved *)
    let zone_acc_base = base + (mesh.points * 24) in
    let c2p_base = zone_acc_base + (mesh.zones * 8) in
    let f2p_base = c2p_base + (mesh.corners * 4) in
    let area_base = f2p_base + (mesh.faces * 16) in
    let region = E.fresh_region ~slots:64 in
    let pc = Prog.Code.pc region in
    let zlo, zsz = split mesh.zones ranks rank in
    let clo, csz = (zlo * 8, zsz * 8) in
    let flo, fsz = split mesh.faces ranks rank in
    let ops slot k = List.init k (fun j -> E.alu ~pc:(pc (slot + j)) ~dst:E.rctr ~src1:E.rctr ()) in
    (* Kernel 1: original — zone-centred gather through corners. *)
    let point_index = E.alu ~pc:(pc 1) ~dst:E.rtmp2 ~src1:E.rtmp () in
    let corner_sum =
      [
        E.fp ~pc:(pc 5) ~kind:Isa.Insn.Fp_add ~dst:24 ~src1:24 ~src2:21 ();
        E.fp ~pc:(pc 6) ~kind:Isa.Insn.Fp_add ~dst:25 ~src1:25 ~src2:22 ();
        E.fp ~pc:(pc 7) ~kind:Isa.Insn.Fp_add ~dst:26 ~src1:26 ~src2:23 ();
      ]
    in
    let corner_overhead = E.overhead codegen ~base:2 (fun k -> corner_sum @ ops 8 k) in
    let zone_end taken = E.branch ~pc:(pc 13) ~taken ~target:(pc 0) ~src1:E.rctr () in
    let next_zone = zone_end true and last_zone = zone_end false in
    let original =
      Gen.bursts zsz (fun zi ->
          let z = zlo + zi in
          (* The corners of one zone, last first, each consed onto the
             rest of the zone's burst. *)
          let rec corners g acc =
            if g < 0 then acc
            else
              let c = g * vw in
              let corner = (z * 8) + c in
              let point = coords_base + (mesh.corner_to_point.(corner) * 24) in
              corners (g - 1)
                (* load the corner->point map entry, then the point data
                   it names: the characteristic double indirection *)
                (E.load ~pc:(pc 0) ~dst:E.rtmp ~addr:(c2p_base + (corner * 4)) ()
                :: point_index
                :: E.load ~pc:(pc 2) ~dst:21 ~addr:point ~src1:E.rtmp2 ()
                :: E.load ~pc:(pc 3) ~dst:22 ~addr:(point + 8) ~src1:E.rtmp2 ()
                :: E.load ~pc:(pc 4) ~dst:23 ~addr:(point + 16) ~src1:E.rtmp2 ()
                :: (corner_overhead ~index:((zi * 8) + c) @ acc))
          in
          corners ((8 / vw) - 1)
            [
              E.store ~pc:(pc 12) ~addr:(zone_acc_base + (z * 8)) ~src1:24 ();
              (if zi < zsz - 1 then next_zone else last_zone);
            ])
    in
    (* Kernel 2: inverted — corner-centred scatter (load-modify-store on
       the owning zone's accumulator). *)
    let bind = E.alu ~pc:(pc 18) ~dst:E.rtmp2 ~src1:E.rtmp () in
    let accumulate = E.fp ~pc:(pc 20) ~kind:Isa.Insn.Fp_add ~dst:22 ~src1:22 ~src2:21 () in
    let scatter_overhead = E.overhead codegen ~base:2 (ops 22) in
    let inverted =
      E.with_loop region ~iters:csz ~body_slots:28 ~body:(fun ci ->
          let corner = clo + ci in
          let zone = corner / 8 in
          let zone_acc = zone_acc_base + (zone * 8) in
          let point = mesh.corner_to_point.(corner) in
          E.load ~pc:(pc 16) ~dst:E.rtmp ~addr:(c2p_base + (corner * 4)) ()
          :: E.load ~pc:(pc 17) ~dst:21 ~addr:(coords_base + (point * 24)) ~src1:E.rtmp ()
          :: bind
          :: E.load ~pc:(pc 19) ~dst:22 ~addr:zone_acc ()
          :: accumulate
          :: E.store ~pc:(pc 21) ~addr:zone_acc ~src1:22 ()
          :: scatter_overhead ~index:ci)
    in
    (* Kernel 3: face area — 4-point gathers and cross products. *)
    let cross =
      List.init
        (Codegen.vector_ops { codegen with Codegen.vector_width = float_of_int vw } 9)
        (fun j ->
          E.fp
            ~pc:(pc (40 + j))
            ~kind:(if j mod 3 = 2 then Isa.Insn.Fp_add else Isa.Insn.Fp_mul)
            ~dst:E.rval ~src1:(E.racc j) ~src2:E.rval ())
    in
    let face_area =
      E.with_loop region ~iters:fsz ~body_slots:56 ~body:(fun fi ->
          let face = flo + fi in
          let rec gathers k acc =
            if k < 0 then acc
            else
              let point = mesh.face_to_point.((face * 4) + k) in
              gathers (k - 1)
                (E.load ~pc:(pc (32 + (2 * k))) ~dst:E.rtmp ~addr:(f2p_base + (((face * 4) + k) * 4)) ()
                :: E.load
                     ~pc:(pc (33 + (2 * k)))
                     ~dst:(E.racc k)
                     ~addr:(coords_base + (point * 24))
                     ~src1:E.rtmp ()
                :: acc)
          in
          gathers 3 (cross @ [ E.store ~pc:(pc 50) ~addr:(area_base + (face * 8)) ~src1:E.rval () ]))
    in
    let halo =
      if ranks = 1 then []
      else
        let plane_bytes = (mesh.n + 1) * (mesh.n + 1) * 24 in
        let up = (rank + 1) mod ranks in
        let down = (rank + ranks - 1) mod ranks in
        [
          Smpi.Comm (Smpi.Send { dst = up; bytes = plane_bytes; tag = 1 });
          Smpi.Comm (Smpi.Send { dst = down; bytes = plane_bytes; tag = 2 });
          Smpi.Comm (Smpi.Recv { src = down; bytes = plane_bytes; tag = 1 });
          Smpi.Comm (Smpi.Recv { src = up; bytes = plane_bytes; tag = 2 });
        ]
    in
    halo
    @ [ Smpi.Compute original; Smpi.Comm (Smpi.Allreduce { bytes = 8 }) ]
    @ halo
    @ [ Smpi.Compute inverted; Smpi.Comm (Smpi.Allreduce { bytes = 8 }) ]
    @ halo
    @ [ Smpi.Compute face_area; Smpi.Comm (Smpi.Allreduce { bytes = 8 }) ]
  in
  Array.init ranks mk_rank

let app =
  {
    Workload.app_name = "ume";
    app_description = "UME unstructured-mesh proxy (original + inverted + face area kernels)";
    characteristics = "Integer ops, load/store ratio, indirection";
    make = (fun ~codegen ~ranks ~scale -> program ~codegen ~ranks ~scale ());
  }
