module E = Simbridge.Experiments
module W = Workloads.Workload

type cell_check = {
  cc_x : string;
  cc_series : string;
  cc_verdict : Verdict.t;
}

type band_check = {
  bc_x : string;
  bc_series : string;
  bc_value : float;
  bc_lo : float;
  bc_hi : float;
  bc_ok : bool;
  bc_prov : string;
}

type shape_check = {
  sc_desc : string;
  sc_ok : bool;
  sc_detail : string;
  sc_prov : string;
}

type figure_report = {
  fr_id : string;
  fr_golden : string;
  fr_updated : bool;
  fr_structural : string list;
  fr_cells : cell_check list;
  fr_bands : band_check list;
  fr_shapes : shape_check list;
}

type totals = {
  t_cells : int;
  t_exact : int;
  t_within : int;
  t_drifted : int;
  t_bands : int;
  t_band_misses : int;
  t_shapes : int;
  t_shape_misses : int;
  t_structural : int;
}

type report = {
  r_figures : figure_report list;
  r_totals : totals;
}

(* ------------------------------------------------------------ figure ids *)

let expand_spec spec =
  let spec = String.trim spec in
  if spec = "" || spec = "all" then Ok E.figure_ids
  else
    let expand tok =
      match tok with
      | "1" | "fig1" -> Ok [ "fig1" ]
      | "2" | "fig2" -> Ok [ "fig2" ]
      | "3" | "fig3" -> Ok [ "fig3a"; "fig3b" ]
      | "4" | "fig4" -> Ok [ "fig4a"; "fig4b" ]
      | "5" | "fig5" -> Ok [ "fig5" ]
      | "6" | "fig6" -> Ok [ "fig6" ]
      | "7" | "fig7" -> Ok [ "fig7" ]
      | t when List.mem t E.figure_ids -> Ok [ t ]
      | t ->
        Error
          (Printf.sprintf "unknown figure %S (expected 1-7, figN, or one of: %s)" t
             (String.concat ", " E.figure_ids))
    in
    let rec collect acc = function
      | [] -> Ok acc
      | tok :: rest -> (
        match expand tok with
        | Error _ as e -> e
        | Ok ids -> collect (acc @ ids) rest)
    in
    let toks =
      String.split_on_char ',' spec |> List.map String.trim |> List.filter (fun t -> t <> "")
    in
    if toks = [] then Error "empty --figures spec"
    else
      Result.map
        (fun wanted -> List.filter (fun id -> List.mem id wanted) E.figure_ids)
        (collect [] toks)

(* ------------------------------------------------------- figure access *)

let fig_series_labels (fig : E.figure) = List.map (fun (s : E.series) -> s.label) fig.series

let fig_rows (fig : E.figure) =
  match fig.series with [] -> [] | s :: _ -> List.map fst s.E.points

let fig_value (fig : E.figure) ~x ~series =
  match List.find_opt (fun (s : E.series) -> s.E.label = series) fig.series with
  | None -> None
  | Some s -> List.assoc_opt x s.E.points

let fig_points (fig : E.figure) ~series =
  match List.find_opt (fun (s : E.series) -> s.E.label = series) fig.series with
  | None -> None
  | Some s -> Some s.E.points

(* Kernel name -> Table 1 category name, for category-geomean shapes. *)
let kernel_category =
  lazy
    (List.map
       (fun (k : W.kernel) -> (k.W.name, W.category_name k.W.category))
       Workloads.Microbench.all)

let geomean vs = Util.Stats.geomean (Array.of_list vs)

(* --------------------------------------------------------- shape checks *)

let check_shape (fig : E.figure) ({ shape; sprov } : Expectations.shape_spec) =
  let desc = Expectations.describe_shape shape in
  let result ok detail = { sc_desc = desc; sc_ok = ok; sc_detail = detail; sc_prov = sprov } in
  match shape with
  | Expectations.All_below { series; threshold; except } -> (
    let missing = List.filter (fun s -> fig_points fig ~series:s = None) series in
    match missing with
    | _ :: _ -> result false (Printf.sprintf "series not in figure: %s" (String.concat ", " missing))
    | [] ->
      let offenders =
        List.concat_map
          (fun sname ->
            List.filter_map
              (fun (x, v) ->
                if (not (List.mem x except)) && v >= threshold then
                  Some (Printf.sprintf "%s/%s=%s" sname x (Report.Table.cell_f v))
                else None)
              (Option.get (fig_points fig ~series:sname)))
          series
      in
      if offenders = [] then result true "all rows below threshold"
      else result false (String.concat ", " offenders))
  | Expectations.Category_geomean { series; category; glo; ghi } -> (
    match fig_points fig ~series with
    | None -> result false (Printf.sprintf "series %s not in figure" series)
    | Some points -> (
      let cats = Lazy.force kernel_category in
      let vs =
        List.filter_map
          (fun (x, v) ->
            match List.assoc_opt x cats with
            | Some c when c = category -> Some v
            | _ -> None)
          points
      in
      match vs with
      | [] -> result false (Printf.sprintf "no %s rows in figure" category)
      | vs ->
        let g = geomean vs in
        let ok = g >= glo && g <= ghi in
        result ok
          (Printf.sprintf "geomean %s over %d kernels%s" (Report.Table.cell_f g) (List.length vs)
             (if ok then "" else Printf.sprintf " outside [%.3g, %.3g]" glo ghi))))
  | Expectations.Series_leq { lo_series; hi_series; tol } -> (
    match (fig_points fig ~series:lo_series, fig_points fig ~series:hi_series) with
    | None, _ -> result false (Printf.sprintf "series %s not in figure" lo_series)
    | _, None -> result false (Printf.sprintf "series %s not in figure" hi_series)
    | Some lo_pts, Some hi_pts -> (
      let shared =
        List.filter_map
          (fun (x, lo_v) ->
            Option.map (fun hi_v -> (lo_v, hi_v)) (List.assoc_opt x hi_pts))
          lo_pts
      in
      match shared with
      | [] -> result false "no shared rows"
      | shared ->
        let lo_g = geomean (List.map fst shared) in
        let hi_g = geomean (List.map snd shared) in
        let ok = lo_g <= hi_g *. (1.0 +. tol) in
        result ok
          (Printf.sprintf "geomean %s=%s %s %s=%s" lo_series (Report.Table.cell_f lo_g)
             (if ok then "<=" else ">")
             hi_series (Report.Table.cell_f hi_g))))
  | Expectations.Closest_to_hw { winner; rivals } -> (
    let all = winner :: rivals in
    let missing = List.filter (fun s -> fig_points fig ~series:s = None) all in
    match missing with
    | _ :: _ -> result false (Printf.sprintf "series not in figure: %s" (String.concat ", " missing))
    | [] ->
      (* Mean |ln rel| over the rows every contender has: distance from
         hardware parity (rel = 1.0) on the log scale the paper plots. *)
      let shared_rows =
        List.filter
          (fun x -> List.for_all (fun s -> fig_value fig ~x ~series:s <> None) all)
          (fig_rows fig)
      in
      if shared_rows = [] then result false "no shared rows"
      else
        let dist sname =
          let total =
            List.fold_left
              (fun acc x ->
                acc +. Float.abs (Float.log (Option.get (fig_value fig ~x ~series:sname))))
              0.0 shared_rows
          in
          total /. float_of_int (List.length shared_rows)
        in
        let wd = dist winner in
        let beaten = List.filter (fun r -> wd >= dist r) rivals in
        let detail =
          String.concat ", "
            (List.map (fun s -> Printf.sprintf "%s=%.4f" s (dist s)) all)
        in
        if beaten = [] then result true ("mean |ln rel|: " ^ detail)
        else
          result false
            (Printf.sprintf "%s not closest (mean |ln rel|: %s)" winner detail))

(* ---------------------------------------------------------- band checks *)

let check_bands (fig : E.figure) (bands : Expectations.band list) =
  List.concat_map
    (fun (b : Expectations.band) ->
      let rows = match b.Expectations.bx with Some x -> [ x ] | None -> fig_rows fig in
      let cols =
        match b.Expectations.bseries with Some s -> [ s ] | None -> fig_series_labels fig
      in
      List.concat_map
        (fun x ->
          List.map
            (fun series ->
              match fig_value fig ~x ~series with
              | Some v ->
                {
                  bc_x = x;
                  bc_series = series;
                  bc_value = v;
                  bc_lo = b.Expectations.blo;
                  bc_hi = b.Expectations.bhi;
                  bc_ok = v >= b.Expectations.blo && v <= b.Expectations.bhi;
                  bc_prov = b.Expectations.bprov;
                }
              | None ->
                (* A band naming a cell the figure doesn't have is a spec
                   error; fail loudly rather than skip silently. *)
                {
                  bc_x = x;
                  bc_series = series;
                  bc_value = Float.nan;
                  bc_lo = b.Expectations.blo;
                  bc_hi = b.Expectations.bhi;
                  bc_ok = false;
                  bc_prov = b.Expectations.bprov;
                })
            cols)
        rows)
    bands

(* ------------------------------------------------------------ the check *)

let empty_totals =
  {
    t_cells = 0;
    t_exact = 0;
    t_within = 0;
    t_drifted = 0;
    t_bands = 0;
    t_band_misses = 0;
    t_shapes = 0;
    t_shape_misses = 0;
    t_structural = 0;
  }

let figure_totals fr =
  let cell_counts (e, w, d) (c : cell_check) =
    match c.cc_verdict with
    | Verdict.Exact -> (e + 1, w, d)
    | Verdict.Within_band _ -> (e, w + 1, d)
    | Verdict.Drifted _ -> (e, w, d + 1)
  in
  let e, w, d = List.fold_left cell_counts (0, 0, 0) fr.fr_cells in
  {
    t_cells = List.length fr.fr_cells;
    t_exact = e;
    t_within = w;
    t_drifted = d;
    t_bands = List.length fr.fr_bands;
    t_band_misses = List.length (List.filter (fun b -> not b.bc_ok) fr.fr_bands);
    t_shapes = List.length fr.fr_shapes;
    t_shape_misses = List.length (List.filter (fun s -> not s.sc_ok) fr.fr_shapes);
    t_structural = List.length fr.fr_structural;
  }

let add_totals a b =
  {
    t_cells = a.t_cells + b.t_cells;
    t_exact = a.t_exact + b.t_exact;
    t_within = a.t_within + b.t_within;
    t_drifted = a.t_drifted + b.t_drifted;
    t_bands = a.t_bands + b.t_bands;
    t_band_misses = a.t_band_misses + b.t_band_misses;
    t_shapes = a.t_shapes + b.t_shapes;
    t_shape_misses = a.t_shape_misses + b.t_shape_misses;
    t_structural = a.t_structural + b.t_structural;
  }

let check_figure ?(telemetry = Telemetry.Registry.disabled) ~expectations ~golden_path ~updated
    (fig : E.figure) =
  let fe = Expectations.find expectations fig.E.id in
  let band = Expectations.cell_band expectations fe in
  let structural = ref [] in
  let cells = ref [] in
  (match Golden.load golden_path with
  | Error msg ->
    structural := [ Printf.sprintf "golden CSV %s unreadable: %s" golden_path msg ]
  | Ok golden ->
    let g_series = Golden.series golden in
    let g_rows = List.map fst golden.Golden.rows in
    let f_series = fig_series_labels fig in
    let f_rows = fig_rows fig in
    List.iter
      (fun s ->
        if not (List.mem s f_series) then
          structural := Printf.sprintf "series %S missing from recomputed figure" s :: !structural)
      g_series;
    List.iter
      (fun s ->
        if not (List.mem s g_series) then
          structural := Printf.sprintf "series %S not in golden CSV" s :: !structural)
      f_series;
    List.iter
      (fun x ->
        if not (List.mem x f_rows) then
          structural := Printf.sprintf "row %S missing from recomputed figure" x :: !structural)
      g_rows;
    List.iter
      (fun x ->
        if not (List.mem x g_rows) then
          structural := Printf.sprintf "row %S not in golden CSV" x :: !structural)
      f_rows;
    (* Verdict the intersection, in golden (row-major) order. *)
    List.iter
      (fun (x, _) ->
        List.iter
          (fun series ->
            match (Golden.cell golden ~x ~series, fig_value fig ~x ~series) with
            | Some expected_text, Some got ->
              cells :=
                { cc_x = x; cc_series = series; cc_verdict = Verdict.classify ~band ~expected_text ~got }
                :: !cells
            | _ -> ())
          g_series)
      golden.Golden.rows);
  let fr =
    {
      fr_id = fig.E.id;
      fr_golden = golden_path;
      fr_updated = updated;
      fr_structural = List.rev !structural;
      fr_cells = List.rev !cells;
      fr_bands = (match fe with None -> [] | Some fe -> check_bands fig fe.Expectations.bands);
      fr_shapes =
        (match fe with None -> [] | Some fe -> List.map (check_shape fig) fe.Expectations.shapes);
    }
  in
  let t = figure_totals fr in
  Telemetry.Registry.set_all telemetry
    [
      ("validate." ^ fr.fr_id ^ ".cells.checked", t.t_cells);
      ("validate." ^ fr.fr_id ^ ".cells.drifted", t.t_drifted);
    ];
  let bump name n =
    Telemetry.Registry.add (Telemetry.Registry.counter telemetry name) n
  in
  bump "validate.cells.checked" t.t_cells;
  bump "validate.cells.exact" t.t_exact;
  bump "validate.cells.within_band" t.t_within;
  bump "validate.cells.drifted" t.t_drifted;
  bump "validate.bands.checked" t.t_bands;
  bump "validate.bands.missed" t.t_band_misses;
  bump "validate.shapes.checked" t.t_shapes;
  bump "validate.shapes.violated" t.t_shape_misses;
  bump "validate.structural.mismatches" t.t_structural;
  fr

let run ?telemetry ?jobs ?(update_golden = false) ~results_dir ~expectations ids =
  let figs = E.figures ?jobs ids in
  let r_figures =
    List.map
      (fun (id, fig) ->
        let golden_path = Filename.concat results_dir (Expectations.golden_file expectations id) in
        if update_golden then Golden.save golden_path (Golden.of_figure fig);
        check_figure ?telemetry ~expectations ~golden_path ~updated:update_golden fig)
      figs
  in
  {
    r_figures;
    r_totals = List.fold_left (fun acc fr -> add_totals acc (figure_totals fr)) empty_totals r_figures;
  }

let ok ?(strict = false) report =
  let t = report.r_totals in
  t.t_drifted = 0 && t.t_band_misses = 0 && t.t_shape_misses = 0 && t.t_structural = 0
  && ((not strict) || t.t_within = 0)

(* -------------------------------------------------------------- render *)

let render ?(strict = false) report =
  let buf = Buffer.create 1024 in
  List.iter
    (fun fr ->
      let t = figure_totals fr in
      Buffer.add_string buf
        (Printf.sprintf "%-6s %3d cells: %d exact, %d within-band, %d drifted; bands %d/%d; shapes %d/%d%s%s\n"
           fr.fr_id t.t_cells t.t_exact t.t_within t.t_drifted (t.t_bands - t.t_band_misses)
           t.t_bands
           (t.t_shapes - t.t_shape_misses)
           t.t_shapes
           (if t.t_structural > 0 then Printf.sprintf "; %d STRUCTURAL" t.t_structural else "")
           (if fr.fr_updated then "; golden updated" else "")))
    report.r_figures;
  let problems =
    List.concat_map
      (fun fr ->
        List.map (fun s -> [ fr.fr_id; "structural"; "-"; s ]) fr.fr_structural
        @ List.filter_map
            (fun c ->
              if Verdict.is_exact c.cc_verdict then None
              else Some [ fr.fr_id; "cell"; c.cc_x ^ "/" ^ c.cc_series; Verdict.describe c.cc_verdict ])
            fr.fr_cells
        @ List.filter_map
            (fun b ->
              if b.bc_ok then None
              else
                Some
                  [
                    fr.fr_id;
                    "band";
                    b.bc_x ^ "/" ^ b.bc_series;
                    Printf.sprintf "value %s outside [%.3g, %.3g] (%s)"
                      (Report.Table.cell_f b.bc_value) b.bc_lo b.bc_hi b.bc_prov;
                  ])
            fr.fr_bands
        @ List.filter_map
            (fun s ->
              if s.sc_ok then None
              else Some [ fr.fr_id; "shape"; s.sc_desc; s.sc_detail ^ " (" ^ s.sc_prov ^ ")" ])
            fr.fr_shapes)
      report.r_figures
  in
  if problems <> [] then begin
    let t = Report.Table.create ~headers:[ "figure"; "check"; "where"; "detail" ] in
    List.iter (Report.Table.add_row t) problems;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Report.Table.render t)
  end;
  let t = report.r_totals in
  Buffer.add_string buf
    (Printf.sprintf "validate: %s (%d cells: %d exact, %d within-band, %d drifted; %d/%d bands, %d/%d shapes%s)\n"
       (if ok ~strict report then "OK" else "FAIL")
       t.t_cells t.t_exact t.t_within t.t_drifted (t.t_bands - t.t_band_misses) t.t_bands
       (t.t_shapes - t.t_shape_misses)
       t.t_shapes
       (if t.t_structural > 0 then Printf.sprintf "; %d structural mismatches" t.t_structural
        else ""));
  Buffer.contents buf

(* ------------------------------------------------------------ JSON out *)

module Jsonx = Util.Jsonx

let verdict_json (c : cell_check) =
  let base = [ ("x", Jsonx.Str c.cc_x); ("series", Jsonx.Str c.cc_series) ] in
  match c.cc_verdict with
  | Verdict.Exact -> Jsonx.Obj (base @ [ ("verdict", Jsonx.Str "exact") ])
  | Verdict.Within_band { expected; got; delta; band } | Verdict.Drifted { expected; got; delta; band }
    ->
    Jsonx.Obj
      (base
      @ [
          ("verdict", Jsonx.Str (Verdict.to_string c.cc_verdict));
          ("expected", Jsonx.Num expected);
          ("got", Jsonx.Num got);
          ("delta", Jsonx.Num delta);
          ("band", Jsonx.Num band);
        ])

let to_json ?(strict = false) report =
  let t = report.r_totals in
  Jsonx.Obj
    [
      ("schema", Jsonx.Str "simbridge-validate/1");
      ("strict", Jsonx.Bool strict);
      ("ok", Jsonx.Bool (ok ~strict report));
      ( "totals",
        Jsonx.Obj
          [
            ("cells", Jsonx.Num (float_of_int t.t_cells));
            ("exact", Jsonx.Num (float_of_int t.t_exact));
            ("within_band", Jsonx.Num (float_of_int t.t_within));
            ("drifted", Jsonx.Num (float_of_int t.t_drifted));
            ("bands", Jsonx.Num (float_of_int t.t_bands));
            ("band_misses", Jsonx.Num (float_of_int t.t_band_misses));
            ("shapes", Jsonx.Num (float_of_int t.t_shapes));
            ("shape_misses", Jsonx.Num (float_of_int t.t_shape_misses));
            ("structural", Jsonx.Num (float_of_int t.t_structural));
          ] );
      ( "figures",
        Jsonx.Arr
          (List.map
             (fun fr ->
               Jsonx.Obj
                 [
                   ("id", Jsonx.Str fr.fr_id);
                   ("golden", Jsonx.Str fr.fr_golden);
                   ("updated", Jsonx.Bool fr.fr_updated);
                   ("structural", Jsonx.Arr (List.map (fun s -> Jsonx.Str s) fr.fr_structural));
                   ("cells", Jsonx.Arr (List.map verdict_json fr.fr_cells));
                   ( "bands",
                     Jsonx.Arr
                       (List.map
                          (fun b ->
                            Jsonx.Obj
                              [
                                ("x", Jsonx.Str b.bc_x);
                                ("series", Jsonx.Str b.bc_series);
                                ("value", Jsonx.Num b.bc_value);
                                ("min", Jsonx.Num b.bc_lo);
                                ("max", Jsonx.Num b.bc_hi);
                                ("ok", Jsonx.Bool b.bc_ok);
                                ("provenance", Jsonx.Str b.bc_prov);
                              ])
                          fr.fr_bands) );
                   ( "shapes",
                     Jsonx.Arr
                       (List.map
                          (fun s ->
                            Jsonx.Obj
                              [
                                ("shape", Jsonx.Str s.sc_desc);
                                ("ok", Jsonx.Bool s.sc_ok);
                                ("detail", Jsonx.Str s.sc_detail);
                                ("provenance", Jsonx.Str s.sc_prov);
                              ])
                          fr.fr_shapes) );
                 ])
             report.r_figures) );
    ]

let summary_json ~strict report =
  let t = report.r_totals in
  let num n = Jsonx.Num (float_of_int n) in
  Jsonx.Obj
    [
      ("ok", Jsonx.Bool (ok ~strict report));
      ("strict", Jsonx.Bool strict);
      ("cells", num t.t_cells);
      ("exact", num t.t_exact);
      ("within_band", num t.t_within);
      ("drifted", num t.t_drifted);
      ("band_misses", num t.t_band_misses);
      ("shape_misses", num t.t_shape_misses);
      ("structural", num t.t_structural);
    ]
