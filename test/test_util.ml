(* Tests for the util library: PRNG determinism, statistics, and the
   JSON codec under arbitrary input. *)

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Rng.bits64 a) (Util.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Util.Rng.bits64 a <> Util.Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Util.Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_split_independent () =
  let parent = Util.Rng.create 3 in
  let child = Util.Rng.split parent in
  (* The child must not replay the parent's continuation. *)
  Alcotest.(check bool) "independent" true (Util.Rng.bits64 child <> Util.Rng.bits64 parent)

let test_rng_derive_stable () =
  let a = Util.Rng.create 5 in
  let c1 = Util.Rng.derive a "cache" in
  let c2 = Util.Rng.derive a "cache" in
  check Alcotest.int64 "derive is pure" (Util.Rng.bits64 c1) (Util.Rng.bits64 c2);
  let d = Util.Rng.derive a "dram" in
  Alcotest.(check bool) "distinct labels differ" true (Util.Rng.bits64 d <> Util.Rng.bits64 (Util.Rng.derive a "cache"))

let test_rng_float_unit () =
  let rng = Util.Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Util.Rng.float rng 1.0 in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Util.Rng.create 13 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Util.Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate ~0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Util.Rng.create 17 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Util.Rng.gaussian rng ~mu:2.0 ~sigma:3.0) in
  Alcotest.(check bool) "mean ~2" true (Float.abs (Util.Stats.mean xs -. 2.0) < 0.1);
  Alcotest.(check bool) "stddev ~3" true (Float.abs (Util.Stats.stddev xs -. 3.0) < 0.1)

let test_permutation_is_permutation () =
  let rng = Util.Rng.create 23 in
  let p = Util.Rng.permutation rng 100 in
  let seen = Array.make 100 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "all present" true (Array.for_all Fun.id seen)

let test_stats_basics () =
  checkf "mean" 2.5 (Util.Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "median" 2.5 (Util.Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "geomean" 2.0 (Util.Stats.geomean [| 1.0; 2.0; 4.0 |]);
  checkf "harmonic" (3.0 /. (1.0 +. 0.5 +. 0.25)) (Util.Stats.harmonic_mean [| 1.0; 2.0; 4.0 |]);
  checkf "sum" 10.0 (Util.Stats.sum [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  checkf "p0" 10.0 (Util.Stats.percentile xs 0.0);
  checkf "p100" 50.0 (Util.Stats.percentile xs 100.0);
  checkf "p50" 30.0 (Util.Stats.percentile xs 50.0);
  checkf "p25" 20.0 (Util.Stats.percentile xs 25.0)

let test_stats_percentile_edges () =
  (* Single-sample arrays: every percentile is the sample. *)
  checkf "single p0" 7.0 (Util.Stats.percentile [| 7.0 |] 0.0);
  checkf "single p50" 7.0 (Util.Stats.percentile [| 7.0 |] 50.0);
  checkf "single p100" 7.0 (Util.Stats.percentile [| 7.0 |] 100.0);
  (* p=0/p=100 pin to the extremes even on unsorted input. *)
  let xs = [| 42.0; -3.0; 17.0 |] in
  checkf "p0 = min" (-3.0) (Util.Stats.percentile xs 0.0);
  checkf "p100 = max" 42.0 (Util.Stats.percentile xs 100.0);
  Alcotest.check_raises "p out of range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Util.Stats.percentile xs 100.1));
  Alcotest.check_raises "negative p" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Util.Stats.percentile xs (-0.1)))

let test_stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Util.Stats.mean [||]));
  Alcotest.check_raises "nonpositive geomean"
    (Invalid_argument "Stats.geomean: nonpositive sample") (fun () ->
      ignore (Util.Stats.geomean [| 1.0; 0.0 |]))

let test_units () =
  Alcotest.(check int) "ns->cycles at 1GHz" 10 (Util.Units.ns_to_cycles ~freq_hz:1e9 10.0);
  Alcotest.(check int) "ceil partial cycle" 2 (Util.Units.ns_to_cycles ~freq_hz:1e9 1.5);
  checkf "cycles->ns" 5.0 (Util.Units.cycles_to_ns ~freq_hz:1e9 5);
  Alcotest.(check int) "rescale doubles" 10 (Util.Units.rescale_cycles ~from_hz:1e9 ~to_hz:2e9 5);
  Alcotest.(check int) "zero stays zero" 0 (Util.Units.ns_to_cycles ~freq_hz:1e9 0.0)

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile stays within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range 0.0 1000.0)) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let lo, hi = Util.Stats.min_max a in
      let v = Util.Stats.percentile a p in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_geomean_le_mean =
  QCheck.Test.make ~name:"geomean <= mean (AM-GM)" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (float_range 0.001 1000.0))
    (fun xs ->
      let a = Array.of_list xs in
      Util.Stats.geomean a <= Util.Stats.mean a +. 1e-9)

(* ---------------------------------------------------------------- jsonx *)

module J = Util.Jsonx

(* Numbers with at most 12 significant digits: the printer's "%.12g"
   spelling of such a double parses back to the same double. *)
let gen_num =
  QCheck.Gen.(
    map2
      (fun m e -> float_of_string (Printf.sprintf "%de%d" m e))
      (int_range (-999_999_999_999) 999_999_999_999)
      (int_range (-30) 30))

let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [
                 return J.Null;
                 map (fun b -> J.Bool b) bool;
                 map (fun v -> J.Num v) gen_num;
                 map (fun s -> J.Str s) (string_size (int_bound 12));
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (2, map (fun l -> J.Arr l) (list_size (int_bound 4) (self (depth - 1))));
                 ( 2,
                   map
                     (fun l -> J.Obj l)
                     (list_size (int_bound 4) (pair (string_size (int_bound 8)) (self (depth - 1))))
                 );
               ]))

(* Top-level containers: every strict prefix of their text is incomplete. *)
let gen_container =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> J.Arr l) (list_size (int_bound 4) gen_json);
        map (fun l -> J.Obj l) (list_size (int_bound 4) (pair (string_size (int_bound 8)) gen_json));
      ])

let arb_json gen = QCheck.make ~print:(fun v -> J.to_string ~indent:0 v) gen

let prop_jsonx_roundtrip =
  QCheck.Test.make ~name:"jsonx parse (to_string v) = Ok v" ~count:500
    (QCheck.pair (arb_json gen_json) QCheck.bool)
    (fun (v, pretty) -> J.parse (J.to_string ~indent:(if pretty then 2 else 0) v) = Ok v)

let parses_to_error s = match J.parse s with Error _ -> true | Ok _ -> false

let prop_jsonx_prefixes =
  QCheck.Test.make ~name:"jsonx truncated document is an Error" ~count:200 (arb_json gen_container)
    (fun v ->
      let s = J.to_string ~indent:0 v in
      List.init (String.length s) Fun.id
      |> List.for_all (fun n -> parses_to_error (String.sub s 0 n)))

let prop_jsonx_garbage =
  QCheck.Test.make ~name:"jsonx random bytes never raise; trailing bytes are an Error" ~count:500
    (QCheck.pair (arb_json gen_container) QCheck.(string_of_size Gen.(0 -- 40)))
    (fun (v, bytes) ->
      (match J.parse bytes with Ok _ | Error _ -> ());
      String.trim bytes = "" || parses_to_error (J.to_string ~indent:0 v ^ bytes))

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int_in bounds" `Quick test_rng_int_in;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng derive stability" `Quick test_rng_derive_stable;
    Alcotest.test_case "rng float unit interval" `Quick test_rng_float_unit;
    Alcotest.test_case "rng bernoulli rate" `Quick test_rng_bernoulli_rate;
    Alcotest.test_case "rng gaussian moments" `Slow test_rng_gaussian_moments;
    Alcotest.test_case "rng permutation" `Quick test_permutation_is_permutation;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats percentile edges" `Quick test_stats_percentile_edges;
    Alcotest.test_case "stats error cases" `Quick test_stats_errors;
    Alcotest.test_case "unit conversions" `Quick test_units;
    QCheck_alcotest.to_alcotest prop_percentile_within_range;
    QCheck_alcotest.to_alcotest prop_geomean_le_mean;
    QCheck_alcotest.to_alcotest prop_jsonx_roundtrip;
    QCheck_alcotest.to_alcotest prop_jsonx_prefixes;
    QCheck_alcotest.to_alcotest prop_jsonx_garbage;
  ]
