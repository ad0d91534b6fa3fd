(* Tests for the fidelity-regression subsystem (lib/validate): the JSON
   codec, verdict classification (including the qcheck perturbation
   property), golden CSV round-trips, the expectations decoder, shape
   evaluation, and check_figure end-to-end on synthetic figures — plus a
   static gate that replays the checked-in golden CSVs through the full
   band/shape machinery without running any simulation. *)

module J = Util.Jsonx
module V = Validate.Verdict
module G = Validate.Golden
module X = Validate.Expectations
module F = Validate.Fidelity
module E = Simbridge.Experiments
module Registry = Telemetry.Registry

let expectations_path = "../results/paper-expectations.json"
let results_dir = "../results"

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* ------------------------------------------------------------- jsonx *)

let test_jsonx_roundtrip () =
  let doc =
    J.Obj
      [
        ("name", J.Str "fig1");
        ("band", J.Num 0.02);
        ("count", J.Num 42.0);
        ("ok", J.Bool true);
        ("nothing", J.Null);
        ("rows", J.Arr [ J.Str "a,b"; J.Str "quote\"inside"; J.Num (-1.5) ]);
        ("nested", J.Obj [ ("empty_arr", J.Arr []); ("empty_obj", J.Obj []) ]);
      ]
  in
  let reparse s = ok_exn "reparse" (J.parse s) in
  Alcotest.(check bool) "pretty round-trips" true (reparse (J.to_string doc) = doc);
  Alcotest.(check bool) "compact round-trips" true (reparse (J.to_string ~indent:0 doc) = doc);
  (* Key order is preserved, so serialization is deterministic. *)
  Alcotest.(check string) "deterministic" (J.to_string doc) (J.to_string doc)

let test_jsonx_parse () =
  let p s = J.parse s in
  Alcotest.(check bool) "escapes" true
    (p {|"a\"b\\c\n\tA"|} = Ok (J.Str "a\"b\\c\n\tA"));
  Alcotest.(check bool) "numbers" true (p "[-1.5e2, 0.25, 3]"
    = Ok (J.Arr [ J.Num (-150.0); J.Num 0.25; J.Num 3.0 ]));
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "trailing garbage rejected" true (is_err (p "{} x"));
  Alcotest.(check bool) "unterminated string rejected" true (is_err (p {|"abc|}));
  Alcotest.(check bool) "bare word rejected" true (is_err (p "flase"));
  Alcotest.(check bool) "unclosed object rejected" true (is_err (p {|{"a": 1|}));
  Alcotest.(check bool) "empty input rejected" true (is_err (p "  "))

let test_jsonx_accessors () =
  let doc = ok_exn "parse" (J.parse {|{"a": 1.5, "b": "x", "c": [1], "n": 7}|}) in
  Alcotest.(check (option (float 0.0))) "get_float" (Some 1.5) (J.get_float "a" doc);
  Alcotest.(check (option int)) "to_int integral" (Some 7)
    (Option.bind (J.member "n" doc) J.to_int);
  Alcotest.(check (option int)) "to_int non-integral" None
    (Option.bind (J.member "a" doc) J.to_int);
  Alcotest.(check string) "get_str present" "x" (J.get_str "b" doc);
  Alcotest.(check string) "get_str default" "?" (J.get_str ~default:"?" "zz" doc);
  Alcotest.(check bool) "member on non-object" true (J.member "a" (J.Str "s") = None);
  (* Non-finite numbers must serialize to valid JSON (null), never "nan". *)
  Alcotest.(check string) "nan -> null" "null" (J.to_string ~indent:0 (J.Num Float.nan))

(* ----------------------------------------------------------- verdict *)

let test_verdict_classify () =
  let band = 0.02 in
  (* Text produced by the canonical cell format classifies Exact. *)
  let v = 0.3816 in
  Alcotest.(check bool) "formatted text is Exact" true
    (V.is_exact (V.classify ~band ~expected_text:(Report.Table.cell_f v) ~got:v));
  (match V.classify ~band ~expected_text:"0.5000" ~got:0.505 with
  | V.Within_band { delta; _ } -> Alcotest.(check bool) "1% delta" true (delta < band)
  | v -> Alcotest.failf "expected Within_band, got %s" (V.to_string v));
  (match V.classify ~band ~expected_text:"0.5000" ~got:0.6 with
  | V.Drifted { expected; got; _ } ->
    Alcotest.(check (float 1e-9)) "carries expected" 0.5 expected;
    Alcotest.(check (float 1e-9)) "carries got" 0.6 got
  | v -> Alcotest.failf "expected Drifted, got %s" (V.to_string v));
  (* Corrupt golden text fails the gate rather than passing it. *)
  Alcotest.(check bool) "unparseable golden is Drifted" true
    (V.is_drifted (V.classify ~band ~expected_text:"n/a" ~got:1.0))

(* Property: a perturbation inside the band never classifies Drifted,
   and one outside always does. *)
let prop_verdict_band =
  QCheck.Test.make ~name:"perturbations classify by band" ~count:300
    QCheck.(triple (float_range 0.05 50.0) (float_range 0.0 0.015) bool)
    (fun (expected, eps, outside) ->
      let band = 0.02 in
      let delta = if outside then band +. 0.005 +. eps else eps in
      let got = expected *. (1.0 +. delta) in
      let verdict = V.classify ~band ~expected_text:(Report.Table.cell_f expected) ~got in
      (* cell_f quantizes expected, so re-derive the delta the verdict
         actually saw before asserting the side of the band. *)
      let seen = V.rel_delta ~expected:(float_of_string (Report.Table.cell_f expected)) ~got in
      if seen > band then V.is_drifted verdict else not (V.is_drifted verdict))

(* ------------------------------------------------------------ golden *)

let test_golden_roundtrip () =
  let csv = "x,plain,\"quoted, series\"\nrow1,0.5000,1.234\n\"r,2\",3,\"he said \"\"hi\"\"\"\n" in
  let g = ok_exn "of_csv" (G.of_csv csv) in
  Alcotest.(check (list string)) "headers" [ "x"; "plain"; "quoted, series" ] g.G.headers;
  Alcotest.(check (list string)) "series" [ "plain"; "quoted, series" ] (G.series g);
  Alcotest.(check string) "byte round-trip" csv (G.to_csv g);
  Alcotest.(check (option string)) "cell hit" (Some "3") (G.cell g ~x:"r,2" ~series:"plain");
  Alcotest.(check (option string)) "quoted cell" (Some {|he said "hi"|})
    (G.cell g ~x:"r,2" ~series:"quoted, series");
  Alcotest.(check (option string)) "missing row" None (G.cell g ~x:"zz" ~series:"plain");
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty rejected" true (is_err (G.of_csv ""));
  Alcotest.(check bool) "ragged rejected" true (is_err (G.of_csv "x,a\nr1,1,2\n"))

let synthetic_figure ?(id = "figX") series =
  {
    E.id;
    title = "synthetic";
    note = "";
    reference = Some 1.0;
    series = List.map (fun (label, points) -> { E.label; points }) series;
  }

let test_golden_of_figure () =
  let fig = synthetic_figure [ ("s1", [ ("a", 0.5); ("b", 123.456) ]); ("s2", [ ("a", 2.0); ("b", 0.03125) ]) ] in
  let g = G.of_figure fig in
  Alcotest.(check string) "matches figure_csv" (E.figure_csv fig) (G.to_csv g);
  Alcotest.(check (option string)) "cell is canonical text"
    (Some (Report.Table.cell_f 123.456))
    (G.cell g ~x:"b" ~series:"s1")

(* ------------------------------------------------------ expectations *)

let test_expectations_load_real () =
  let x = ok_exn "load" (X.load expectations_path) in
  Alcotest.(check int) "version" 1 x.X.version;
  Alcotest.(check (float 1e-9)) "default band" 0.02 x.X.default_band;
  List.iter
    (fun id ->
      match X.find x id with
      | None -> Alcotest.failf "no expectations entry for %s" id
      | Some fe ->
        Alcotest.(check string) "golden file default" (id ^ ".csv") (X.golden_file x id);
        List.iter
          (fun (b : X.band) ->
            Alcotest.(check bool) (id ^ " band ordered") true (b.X.blo < b.X.bhi);
            Alcotest.(check bool) (id ^ " band has provenance") true (b.X.bprov <> ""))
          fe.X.bands;
        List.iter
          (fun (s : X.shape_spec) ->
            Alcotest.(check bool) (id ^ " shape has provenance") true (s.X.sprov <> ""))
          fe.X.shapes)
    Simbridge.Experiments.figure_ids

let test_expectations_decode_errors () =
  let decode s = Result.bind (J.parse s) X.of_json in
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "duplicate figure ids rejected" true
    (is_err
       (decode
          {|{"version": 1, "default_band": 0.02,
             "figures": [{"id": "fig1"}, {"id": "fig1"}]}|}));
  Alcotest.(check bool) "unknown shape kind rejected" true
    (is_err
       (decode
          {|{"version": 1, "default_band": 0.02,
             "figures": [{"id": "fig1",
                          "shapes": [{"kind": "sideways", "provenance": "x"}]}]}|}));
  Alcotest.(check bool) "inverted band rejected" true
    (is_err
       (decode
          {|{"version": 1, "default_band": 0.02,
             "figures": [{"id": "fig1",
                          "bands": [{"min": 2.0, "max": 1.0, "provenance": "x"}]}]}|}));
  let x =
    ok_exn "minimal"
      (decode {|{"version": 1, "default_band": 0.05, "figures": []}|})
  in
  Alcotest.(check (option string)) "find on empty" None
    (Option.map (fun fe -> fe.X.fig_id) (X.find x "fig1"));
  Alcotest.(check string) "golden_file fallback" "fig9.csv" (X.golden_file x "fig9");
  Alcotest.(check (float 1e-9)) "cell_band default" 0.05 (X.cell_band x None)

(* ---------------------------------------------------------- fidelity *)

let test_expand_spec () =
  let check what spec expected =
    Alcotest.(check (list string)) what expected (ok_exn "expand" (F.expand_spec spec))
  in
  check "all" "all" Simbridge.Experiments.figure_ids;
  check "empty = all" "" Simbridge.Experiments.figure_ids;
  check "number" "1" [ "fig1" ];
  check "panel parent expands" "3" [ "fig3a"; "fig3b" ];
  check "explicit panel" "fig4b" [ "fig4b" ];
  check "dedup + check order" "5,1,fig5,2" [ "fig1"; "fig2"; "fig5" ];
  Alcotest.(check bool) "garbage rejected" true
    (match F.expand_spec "1,fig99" with Error _ -> true | Ok _ -> false)

let empty_expectations = { X.version = 1; default_band = 0.02; figures = [] }

let with_temp_golden fig f =
  let path = Filename.temp_file "golden" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      G.save path (G.of_figure fig);
      f path)

let test_check_figure_exact () =
  let fig = synthetic_figure [ ("s1", [ ("a", 0.5); ("b", 1.25) ]); ("s2", [ ("a", 0.75); ("b", 2.0) ]) ] in
  with_temp_golden fig (fun path ->
      let telemetry = Registry.create () in
      let fr =
        F.check_figure ~telemetry ~expectations:empty_expectations ~golden_path:path
          ~updated:false fig
      in
      Alcotest.(check (list string)) "no structural" [] fr.F.fr_structural;
      Alcotest.(check int) "all cells checked" 4 (List.length fr.F.fr_cells);
      Alcotest.(check bool) "all exact" true
        (List.for_all (fun c -> V.is_exact c.F.cc_verdict) fr.F.fr_cells);
      Alcotest.(check (option int)) "telemetry checked" (Some 4)
        (Registry.find_counter telemetry "validate.cells.checked");
      Alcotest.(check (option int)) "telemetry exact" (Some 4)
        (Registry.find_counter telemetry "validate.cells.exact");
      Alcotest.(check (option int)) "telemetry drifted" (Some 0)
        (Registry.find_counter telemetry "validate.cells.drifted"))

let test_check_figure_drift () =
  let base = synthetic_figure [ ("s1", [ ("a", 0.5); ("b", 1.25) ]) ] in
  with_temp_golden base (fun path ->
      (* One cell nudged inside the band, one pushed far outside. *)
      let perturbed = synthetic_figure [ ("s1", [ ("a", 0.502); ("b", 2.5) ]) ] in
      let telemetry = Registry.create () in
      let fr =
        F.check_figure ~telemetry ~expectations:empty_expectations ~golden_path:path
          ~updated:false perturbed
      in
      let verdict_of x =
        (List.find (fun c -> c.F.cc_x = x) fr.F.fr_cells).F.cc_verdict
      in
      Alcotest.(check bool) "small nudge within band" true
        (match verdict_of "a" with V.Within_band _ -> true | _ -> false);
      Alcotest.(check bool) "2x is drifted" true (V.is_drifted (verdict_of "b"));
      Alcotest.(check (option int)) "telemetry drifted" (Some 1)
        (Registry.find_counter telemetry "validate.cells.drifted");
      let report = { F.r_figures = [ fr ]; r_totals = F.(
        {
          t_cells = 2; t_exact = 0; t_within = 1; t_drifted = 1;
          t_bands = 0; t_band_misses = 0; t_shapes = 0; t_shape_misses = 0;
          t_structural = 0;
        }) }
      in
      Alcotest.(check bool) "drift fails the gate" false (F.ok report);
      Alcotest.(check bool) "drifted cell named in render" true
        (let r = F.render report in
         let contains s sub =
           let n = String.length sub in
           let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         contains r "b/s1" || contains r "b" ))

let test_check_figure_structural () =
  let golden_fig = synthetic_figure [ ("s1", [ ("a", 0.5); ("b", 1.25) ]); ("s2", [ ("a", 1.0); ("b", 1.0) ]) ] in
  with_temp_golden golden_fig (fun path ->
      (* s2 renamed, row b missing: both directions must be reported. *)
      let got = synthetic_figure [ ("s1", [ ("a", 0.5) ]); ("s3", [ ("a", 1.0) ]) ] in
      let fr =
        F.check_figure ~expectations:empty_expectations ~golden_path:path ~updated:false got
      in
      Alcotest.(check bool) "structural mismatches reported" true
        (List.length fr.F.fr_structural >= 2);
      (* The intersection (s1/a) is still verdicted. *)
      Alcotest.(check bool) "intersection still checked" true
        (List.exists (fun c -> c.F.cc_x = "a" && c.F.cc_series = "s1") fr.F.fr_cells));
  let missing =
    F.check_figure ~expectations:empty_expectations
      ~golden_path:"/nonexistent/golden.csv" ~updated:false
      (synthetic_figure [ ("s1", [ ("a", 1.0) ]) ])
  in
  Alcotest.(check bool) "missing golden is structural" true (missing.F.fr_structural <> [])

let test_strict_mode () =
  let base = synthetic_figure [ ("s1", [ ("a", 0.5) ]) ] in
  with_temp_golden base (fun path ->
      let nudged = synthetic_figure [ ("s1", [ ("a", 0.502) ]) ] in
      let fr =
        F.check_figure ~expectations:empty_expectations ~golden_path:path ~updated:false nudged
      in
      let totals = F.(
        {
          t_cells = 1; t_exact = 0; t_within = 1; t_drifted = 0;
          t_bands = 0; t_band_misses = 0; t_shapes = 0; t_shape_misses = 0;
          t_structural = 0;
        })
      in
      let report = { F.r_figures = [ fr ]; r_totals = totals } in
      Alcotest.(check bool) "within-band passes lax" true (F.ok report);
      Alcotest.(check bool) "within-band fails strict" false (F.ok ~strict:true report))

(* Property: for any figure, saving it as golden and re-checking yields
   only Exact verdicts — the --update-golden round-trip. *)
let gen_figure =
  QCheck.Gen.(
    let label_gen prefix = map (fun i -> Printf.sprintf "%s%d" prefix i) (int_range 0 20) in
    let value = frequency [ (4, float_range 0.01 3.0); (1, float_range 3.0 500.0) ] in
    let rows = map (List.sort_uniq compare) (list_size (int_range 1 6) (label_gen "r")) in
    let series = map (List.sort_uniq compare) (list_size (int_range 1 4) (label_gen "s")) in
    map
      (fun (rows, series, vs) ->
        let v = Array.of_list vs in
        let n = Array.length v in
        synthetic_figure
          (List.mapi
             (fun si s ->
               (s, List.mapi (fun ri r -> (r, v.((si * 31 + ri) mod n))) rows))
             series))
      (triple rows series (list_size (int_range 8 16) value)))

let prop_update_golden_roundtrip =
  QCheck.Test.make ~name:"update-golden round-trips to Exact" ~count:50
    (QCheck.make ~print:(fun f -> E.figure_csv f) gen_figure)
    (fun fig ->
      with_temp_golden fig (fun path ->
          let fr =
            F.check_figure ~expectations:empty_expectations ~golden_path:path ~updated:true fig
          in
          fr.F.fr_structural = []
          && List.for_all (fun c -> V.is_exact c.F.cc_verdict) fr.F.fr_cells))

(* ------------------------------------------------------------ shapes *)

(* Shape checks run through check_figure with a synthetic expectations
   record naming the figure under test. *)
let check_shapes fig shapes bands =
  let expectations =
    {
      X.version = 1;
      default_band = 0.02;
      figures =
        [
          {
            X.fig_id = fig.E.id;
            golden = "unused.csv";
            fig_band = None;
            bands;
            shapes = List.map (fun shape -> { X.shape; sprov = "test" }) shapes;
          };
        ];
    }
  in
  with_temp_golden fig (fun path ->
      F.check_figure ~expectations ~golden_path:path ~updated:false fig)

let shape_results fr = List.map (fun s -> s.F.sc_ok) fr.F.fr_shapes

let test_shape_all_below () =
  let fig =
    synthetic_figure ~id:"figS"
      [ ("sim", [ ("k1", 0.5); ("k2", 0.8); ("k3", 1.4) ]) ]
  in
  let fr =
    check_shapes fig
      [
        X.All_below { series = [ "sim" ]; threshold = 1.0; except = [ "k3" ] };
        X.All_below { series = [ "sim" ]; threshold = 1.0; except = [] };
      ]
      []
  in
  Alcotest.(check (list bool)) "except honored; violation caught" [ true; false ]
    (shape_results fr);
  let bad = List.find (fun s -> not s.F.sc_ok) fr.F.fr_shapes in
  Alcotest.(check bool) "violation names the cell" true
    (let s = bad.F.sc_detail in
     let n = String.length "k3" in
     let rec go i = i + n <= String.length s && (String.sub s i n = "k3" || go (i + 1)) in
     go 0)

let test_shape_series_leq_and_closest () =
  let fig =
    synthetic_figure ~id:"figS"
      [
        ("small", [ ("k1", 0.30); ("k2", 0.40) ]);
        ("large", [ ("k1", 0.80); ("k2", 0.95) ]);
      ]
  in
  let fr =
    check_shapes fig
      [
        X.Series_leq { lo_series = "small"; hi_series = "large"; tol = 0.0 };
        X.Series_leq { lo_series = "large"; hi_series = "small"; tol = 0.0 };
        (* large sits much nearer hardware parity (1.0) in ln-space. *)
        X.Closest_to_hw { winner = "large"; rivals = [ "small" ] };
        X.Closest_to_hw { winner = "small"; rivals = [ "large" ] };
      ]
      []
  in
  Alcotest.(check (list bool)) "orderings" [ true; false; true; false ] (shape_results fr)

let test_shape_category_geomean () =
  (* Real Table 1 kernel names so the category mapping resolves. *)
  let cf =
    List.filter_map
      (fun (k : Workloads.Workload.kernel) ->
        if Workloads.Workload.category_name k.Workloads.Workload.category = "Control Flow" then
          Some k.Workloads.Workload.name
        else None)
      Workloads.Microbench.all
  in
  Alcotest.(check bool) "suite has Control Flow kernels" true (List.length cf >= 2);
  let fig = synthetic_figure ~id:"figS" [ ("sim", List.map (fun k -> (k, 0.5)) cf) ] in
  let fr =
    check_shapes fig
      [
        X.Category_geomean { series = "sim"; category = "Control Flow"; glo = 0.4; ghi = 0.6 };
        X.Category_geomean { series = "sim"; category = "Control Flow"; glo = 0.6; ghi = 0.9 };
        X.Category_geomean { series = "sim"; category = "Memory"; glo = 0.0; ghi = 1.0 };
      ]
      []
  in
  (* All values are 0.5, so the geomean is exactly 0.5; a figure with no
     Memory rows must fail that check loudly rather than skip it. *)
  Alcotest.(check (list bool)) "geomean in/out/missing" [ true; false; false ]
    (shape_results fr)

let test_band_checks () =
  let fig =
    synthetic_figure ~id:"figS"
      [ ("sim", [ ("k1", 0.5); ("k2", 0.9) ]); ("fast", [ ("k1", 1.5); ("k2", 1.8) ]) ]
  in
  let fr =
    check_shapes fig []
      [
        (* Specific cell, in range. *)
        { X.bx = Some "k1"; bseries = Some "sim"; blo = 0.4; bhi = 0.6; bprov = "t" };
        (* Whole series, one row out of range. *)
        { X.bx = None; bseries = Some "fast"; blo = 1.0; bhi = 1.6; bprov = "t" };
        (* Missing cell must fail loudly. *)
        { X.bx = Some "zz"; bseries = Some "sim"; blo = 0.0; bhi = 9.0; bprov = "t" };
      ]
  in
  let oks = List.map (fun b -> (b.F.bc_x, b.F.bc_series, b.F.bc_ok)) fr.F.fr_bands in
  Alcotest.(check bool) "specific cell passes" true (List.mem ("k1", "sim", true) oks);
  Alcotest.(check bool) "fast/k1 in series band" true (List.mem ("k1", "fast", true) oks);
  Alcotest.(check bool) "fast/k2 misses series band" true (List.mem ("k2", "fast", false) oks);
  Alcotest.(check bool) "missing cell fails" true (List.mem ("zz", "sim", false) oks)

(* ---------------------------------------------- static golden replay *)

(* Replay every checked-in golden CSV through the full band/shape
   machinery, no simulation: parse the golden values back into a figure
   and check it against itself + the real expectations file.  Catches a
   band edit that contradicts the checked-in data the moment it lands,
   in milliseconds rather than a full validate run. *)
let test_golden_csvs_meet_expectations () =
  let x = ok_exn "load expectations" (X.load expectations_path) in
  List.iter
    (fun id ->
      let path = Filename.concat results_dir (X.golden_file x id) in
      let g = ok_exn (id ^ " golden") (G.load path) in
      let fig =
        {
          E.id;
          title = id;
          note = "";
          reference = Some 1.0;
          series =
            List.map
              (fun s ->
                {
                  E.label = s;
                  points =
                    List.map
                      (fun (xl, _) ->
                        let v =
                          match G.cell g ~x:xl ~series:s with
                          | Some t -> (try float_of_string (String.trim t) with _ -> Float.nan)
                          | None -> Float.nan
                        in
                        (xl, v))
                      g.G.rows;
                })
              (G.series g);
        }
      in
      let expectations = x in
      let fr = F.check_figure ~expectations ~golden_path:path ~updated:false fig in
      Alcotest.(check (list string)) (id ^ " structural") [] fr.F.fr_structural;
      List.iter
        (fun c ->
          if V.is_drifted c.F.cc_verdict then
            Alcotest.failf "%s %s/%s drifted vs own golden: %s" id c.F.cc_x c.F.cc_series
              (V.describe c.F.cc_verdict))
        fr.F.fr_cells;
      List.iter
        (fun b ->
          if not b.F.bc_ok then
            Alcotest.failf "%s band miss %s/%s: %g not in [%g, %g] (%s)" id b.F.bc_x
              b.F.bc_series b.F.bc_value b.F.bc_lo b.F.bc_hi b.F.bc_prov)
        fr.F.fr_bands;
      List.iter
        (fun s ->
          if not s.F.sc_ok then
            Alcotest.failf "%s shape violated: %s — %s (%s)" id s.F.sc_desc s.F.sc_detail
              s.F.sc_prov)
        fr.F.fr_shapes)
    Simbridge.Experiments.figure_ids

let suite =
  [
    Alcotest.test_case "jsonx round-trip" `Quick test_jsonx_roundtrip;
    Alcotest.test_case "jsonx parse errors" `Quick test_jsonx_parse;
    Alcotest.test_case "jsonx accessors" `Quick test_jsonx_accessors;
    Alcotest.test_case "verdict classify" `Quick test_verdict_classify;
    QCheck_alcotest.to_alcotest prop_verdict_band;
    Alcotest.test_case "golden csv round-trip" `Quick test_golden_roundtrip;
    Alcotest.test_case "golden of_figure" `Quick test_golden_of_figure;
    Alcotest.test_case "expectations: real file" `Quick test_expectations_load_real;
    Alcotest.test_case "expectations: decode errors" `Quick test_expectations_decode_errors;
    Alcotest.test_case "expand --figures spec" `Quick test_expand_spec;
    Alcotest.test_case "check_figure: exact" `Quick test_check_figure_exact;
    Alcotest.test_case "check_figure: drift" `Quick test_check_figure_drift;
    Alcotest.test_case "check_figure: structural" `Quick test_check_figure_structural;
    Alcotest.test_case "strict mode" `Quick test_strict_mode;
    QCheck_alcotest.to_alcotest prop_update_golden_roundtrip;
    Alcotest.test_case "shape: all-below" `Quick test_shape_all_below;
    Alcotest.test_case "shape: orderings" `Quick test_shape_series_leq_and_closest;
    Alcotest.test_case "shape: category geomean" `Quick test_shape_category_geomean;
    Alcotest.test_case "band checks" `Quick test_band_checks;
    Alcotest.test_case "golden CSVs meet expectations" `Quick test_golden_csvs_meet_expectations;
  ]
