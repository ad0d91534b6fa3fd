module W = Workloads.Workload

type score = {
  candidate : Platform.Config.t;
  distance : float;
  per_category : (W.category * float) list;
}

let default_kernels = Workloads.Microbench.evaluated

(* Each candidate's (kernel, relative speedup) list, from one comparison
   grid.  Kernel-major rows: the board runs each kernel once, and every
   candidate replays that kernel's trace while it is cached. *)
let relatives ?(scale = 1.0) ~kernels ~sims ~hw () =
  let rows =
    List.concat_map (fun k -> List.mapi (fun i sim -> ((i, k), (sim, hw, Runner.Kernel k))) sims) kernels
  in
  let rels =
    List.map2
      (fun ((i, k), _) (sim, hw) -> (i, (k, Runner.relative_speedup ~sim ~hw)))
      rows
      (Runner.compare_grid ~scale (List.map snd rows))
  in
  List.mapi (fun i _ -> List.filter_map (fun (j, r) -> if j = i then Some r else None) rels) sims

let distance_of rels =
  Util.Stats.mean (Array.of_list (List.map (fun (_, r) -> Float.abs (log r)) rels))

let score_of sim rels =
  let per_category =
    List.filter_map
      (fun cat ->
        match List.filter (fun ((k : W.kernel), _) -> k.category = cat) rels with
        | [] -> None
        | in_cat ->
          Some (cat, Util.Stats.geomean (Array.of_list (List.map snd in_cat))))
      W.all_categories
  in
  { candidate = sim; distance = distance_of rels; per_category }

let rank_candidates ?scale ?(kernels = default_kernels) ~candidates ~hw () =
  List.map2 score_of candidates (relatives ?scale ~kernels ~sims:candidates ~hw ())
  |> List.sort (fun a b -> compare a.distance b.distance)

let score ?scale ?kernels ~sim ~hw () = List.hd (rank_candidates ?scale ?kernels ~candidates:[ sim ] ~hw ())
let distance ?scale ?kernels ~sim ~hw () = (score ?scale ?kernels ~sim ~hw ()).distance

let sweep_frequency ~base ~multipliers =
  List.map
    (fun m ->
      let hz = Platform.Config.freq_hz base *. m in
      let c = Platform.Config.with_freq base hz in
      { c with Platform.Config.name = Printf.sprintf "%s@x%.2g" base.Platform.Config.name m })
    multipliers

type dimension = {
  dim_name : string;
  values : float list;
  apply : Platform.Config.t -> float -> Platform.Config.t;
}

let dim_frequency values =
  {
    dim_name = "freq";
    values;
    apply = (fun c m -> Platform.Config.with_freq c (Platform.Config.freq_hz c *. m));
  }

let dim_dram_ctrl values =
  {
    dim_name = "dram-ctrl";
    values;
    apply =
      (fun c m ->
        let dram = { c.Platform.Config.dram with Dram.ctrl_latency_ns = c.Platform.Config.dram.Dram.ctrl_latency_ns *. m } in
        { c with Platform.Config.dram });
  }

let dim_l2_latency values =
  {
    dim_name = "l2-lat";
    values;
    apply =
      (fun c m ->
        let l2 =
          {
            c.Platform.Config.l2 with
            Cache.hit_latency = max 1 (int_of_float (Float.round (float_of_int c.Platform.Config.l2.Cache.hit_latency *. m)));
          }
        in
        { c with Platform.Config.l2 });
  }

let grid_search ?scale ?kernels ~base ~hw ~dimensions () =
  (* Cartesian product of all dimension assignments. *)
  let assignments =
    List.fold_left
      (fun acc dim ->
        List.concat_map (fun partial -> List.map (fun v -> (dim, v) :: partial) dim.values) acc)
      [ [] ] dimensions
  in
  let candidates =
    List.map
      (fun assignment ->
        let cfg = List.fold_left (fun c (dim, v) -> dim.apply c v) base (List.rev assignment) in
        let label =
          String.concat ","
            (List.rev_map (fun (dim, v) -> Printf.sprintf "%s=%.2g" dim.dim_name v) assignment)
        in
        { cfg with Platform.Config.name = base.Platform.Config.name ^ "@" ^ label })
      assignments
  in
  rank_candidates ?scale ?kernels ~candidates ~hw ()

let render_scores scores =
  let headers =
    "Candidate" :: "Distance"
    :: List.map W.category_name W.all_categories
  in
  let t = Report.Table.create ~headers in
  List.iter
    (fun s ->
      Report.Table.add_row t
        (s.candidate.Platform.Config.name
        :: Report.Table.cell_f s.distance
        :: List.map
             (fun cat ->
               match List.assoc_opt cat s.per_category with
               | Some g -> Report.Table.cell_f g
               | None -> "-")
             W.all_categories))
    scores;
  Report.Table.render t
