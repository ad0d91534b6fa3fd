module Jsonx = Util.Jsonx

type band = {
  bx : string option;
  bseries : string option;
  blo : float;
  bhi : float;
  bprov : string;
}

type shape =
  | All_below of { series : string list; threshold : float; except : string list }
  | Category_geomean of { series : string; category : string; glo : float; ghi : float }
  | Series_leq of { lo_series : string; hi_series : string; tol : float }
  | Closest_to_hw of { winner : string; rivals : string list }

type shape_spec = { shape : shape; sprov : string }

type fig_expect = {
  fig_id : string;
  golden : string;
  fig_band : float option;
  bands : band list;
  shapes : shape_spec list;
}

type t = {
  version : int;
  default_band : float;
  figures : fig_expect list;
}

(* ------------------------------------------------------------- decoding *)

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let str_list ctx j =
  match Jsonx.to_list j with
  | None -> Error (ctx ^ ": expected an array of strings")
  | Some items ->
    map_result
      (fun item ->
        match Jsonx.to_str item with
        | Some s -> Ok s
        | None -> Error (ctx ^ ": expected an array of strings"))
      items

let req_float ctx key j =
  match Jsonx.get_float key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing numeric %S" ctx key)

let req_str ctx key j =
  match Option.bind (Jsonx.member key j) Jsonx.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s: missing string %S" ctx key)

let opt_str key j = Option.bind (Jsonx.member key j) Jsonx.to_str

let band_of_json ctx j =
  let* blo = req_float ctx "min" j in
  let* bhi = req_float ctx "max" j in
  if bhi < blo then Error (Printf.sprintf "%s: max < min" ctx)
  else
    Ok
      {
        bx = opt_str "x" j;
        bseries = opt_str "series" j;
        blo;
        bhi;
        bprov = Jsonx.get_str "provenance" j;
      }

let shape_of_json ctx j =
  let* kind = req_str ctx "kind" j in
  let* shape =
    match kind with
    | "all-below" ->
      let* series =
        match Jsonx.member "series" j with
        | Some s -> str_list (ctx ^ ".series") s
        | None -> Error (ctx ^ ": all-below needs \"series\"")
      in
      let* threshold = req_float ctx "threshold" j in
      let* except =
        match Jsonx.member "except" j with
        | None -> Ok []
        | Some e -> str_list (ctx ^ ".except") e
      in
      Ok (All_below { series; threshold; except })
    | "category-geomean" ->
      let* series = req_str ctx "series" j in
      let* category = req_str ctx "category" j in
      let* glo = req_float ctx "min" j in
      let* ghi = req_float ctx "max" j in
      Ok (Category_geomean { series; category; glo; ghi })
    | "series-leq" ->
      let* lo_series = req_str ctx "lo" j in
      let* hi_series = req_str ctx "hi" j in
      let tol = Option.value (Jsonx.get_float "tolerance" j) ~default:0.0 in
      Ok (Series_leq { lo_series; hi_series; tol })
    | "closest-to-hw" ->
      let* winner = req_str ctx "winner" j in
      let* rivals =
        match Jsonx.member "rivals" j with
        | Some r -> str_list (ctx ^ ".rivals") r
        | None -> Error (ctx ^ ": closest-to-hw needs \"rivals\"")
      in
      Ok (Closest_to_hw { winner; rivals })
    | k -> Error (Printf.sprintf "%s: unknown shape kind %S" ctx k)
  in
  Ok { shape; sprov = Jsonx.get_str "provenance" j }

let figure_of_json j =
  let* fig_id = req_str "figure" "id" j in
  let ctx = "figure " ^ fig_id in
  let* bands =
    match Jsonx.member "bands" j with
    | None -> Ok []
    | Some b -> (
      match Jsonx.to_list b with
      | None -> Error (ctx ^ ": \"bands\" must be an array")
      | Some items ->
        map_result (fun item -> band_of_json (ctx ^ " band") item) items)
  in
  let* shapes =
    match Jsonx.member "shapes" j with
    | None -> Ok []
    | Some s -> (
      match Jsonx.to_list s with
      | None -> Error (ctx ^ ": \"shapes\" must be an array")
      | Some items ->
        map_result (fun item -> shape_of_json (ctx ^ " shape") item) items)
  in
  Ok
    {
      fig_id;
      golden = Jsonx.get_str ~default:(fig_id ^ ".csv") "golden" j;
      fig_band = Jsonx.get_float "band" j;
      bands;
      shapes;
    }

let of_json j =
  let version = Option.value (Option.bind (Jsonx.member "version" j) Jsonx.to_int) ~default:1 in
  let default_band = Option.value (Jsonx.get_float "default_band" j) ~default:0.02 in
  if default_band < 0.0 then Error "default_band must be >= 0"
  else
    let* figures =
      match Jsonx.member "figures" j with
      | None -> Error "missing \"figures\""
      | Some f -> (
        match Jsonx.to_list f with
        | None -> Error "\"figures\" must be an array"
        | Some items -> map_result figure_of_json items)
    in
    let ids = List.map (fun f -> f.fig_id) figures in
    let dup = List.find_opt (fun id -> List.length (List.filter (( = ) id) ids) > 1) ids in
    match dup with
    | Some id -> Error (Printf.sprintf "duplicate figure entry %S" id)
    | None -> Ok { version; default_band; figures }

let load path =
  let* j = Jsonx.parse_file path in
  of_json j

let find t id = List.find_opt (fun f -> f.fig_id = id) t.figures

let golden_file t id =
  match find t id with Some f -> f.golden | None -> id ^ ".csv"

let cell_band t fe =
  match fe with
  | Some { fig_band = Some b; _ } -> b
  | _ -> t.default_band

let describe_shape = function
  | All_below { series; threshold; except } ->
    Printf.sprintf "all-below %.3g: %s%s" threshold (String.concat ", " series)
      (if except = [] then "" else Printf.sprintf " (except %s)" (String.concat ", " except))
  | Category_geomean { series; category; glo; ghi } ->
    Printf.sprintf "category-geomean %s/%s in [%.3g, %.3g]" series category glo ghi
  | Series_leq { lo_series; hi_series; tol } ->
    Printf.sprintf "series-leq: %s <= %s (tol %.3g)" lo_series hi_series tol
  | Closest_to_hw { winner; rivals } ->
    Printf.sprintf "closest-to-hw: %s vs %s" winner (String.concat ", " rivals)
