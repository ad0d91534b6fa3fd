module J = Util.Jsonx

let schema = "simbridge-serve/1"

type query =
  | Figure of { fmt : [ `Csv | `Render ]; figure : string; scale : float }
  | Cell of { platform : string; kernel : string; scale : float }

type op = Ping | Stats | Shutdown | Run of query
type request = { rq_id : string; rq_op : op }
type report = J.t
type response = { rs_id : string; rs_result : (string * report, string) result }

(* Scales are keyed by exact bit pattern: "%h" prints
   the float losslessly, so 1.0 and 1.0+ulp never collide while two
   textual spellings of the same double always do. *)
let query_key = function
  | Figure { fmt; figure; scale } ->
    Printf.sprintf "%s %s @%h" (match fmt with `Csv -> "csv" | `Render -> "render") figure scale
  | Cell { platform; kernel; scale } -> Printf.sprintf "cell %s/%s @%h" platform kernel scale

(* ------------------------------------------------------------ encoding *)

(* Field order is fixed (schema, id, op, then operands), so encoding is
   deterministic and the print -> parse -> print round trip is
   byte-identical. *)
let request_to_json { rq_id; rq_op } =
  let base = [ ("schema", J.Str schema); ("id", J.Str rq_id) ] in
  let op_fields =
    match rq_op with
    | Ping -> [ ("op", J.Str "ping") ]
    | Stats -> [ ("op", J.Str "stats") ]
    | Shutdown -> [ ("op", J.Str "shutdown") ]
    | Run (Figure { fmt; figure; scale }) ->
      [
        ("op", J.Str (match fmt with `Csv -> "csv" | `Render -> "render"));
        ("figure", J.Str figure);
        ("scale", J.Num scale);
      ]
    | Run (Cell { platform; kernel; scale }) ->
      [
        ("op", J.Str "cell");
        ("platform", J.Str platform);
        ("kernel", J.Str kernel);
        ("scale", J.Num scale);
      ]
  in
  J.Obj (base @ op_fields)

let response_to_json { rs_id; rs_result } =
  let base = [ ("schema", J.Str schema); ("id", J.Str rs_id) ] in
  match rs_result with
  | Ok (payload, report) ->
    J.Obj (base @ [ ("ok", J.Bool true); ("payload", J.Str payload); ("report", report) ])
  | Error msg -> J.Obj (base @ [ ("ok", J.Bool false); ("error", J.Str msg) ])

(* ------------------------------------------------------------ decoding *)

let ( let* ) = Result.bind

let check_schema j =
  match J.member "schema" j with
  | None -> Error "missing schema field (expected \"simbridge-serve/1\")"
  | Some (J.Str s) when s = schema -> Ok ()
  | Some (J.Str s) -> Error (Printf.sprintf "unsupported schema %S (this server speaks %s)" s schema)
  | Some _ -> Error "schema field must be a string"

let req_str ?(empty_ok = false) key j =
  match J.member key j with
  | Some (J.Str s) when empty_ok || s <> "" -> Ok s
  | Some (J.Str _) -> Error (Printf.sprintf "%s must be non-empty" key)
  | Some _ -> Error (Printf.sprintf "%s must be a string" key)
  | None -> Error (Printf.sprintf "missing %s field" key)

(* [scale] is optional (default 1.0) but, when present, must be a
   finite positive number — a served simulation at scale 0 or NaN would
   otherwise fail deep inside a workload generator. *)
let req_scale j =
  match J.member "scale" j with
  | None -> Ok 1.0
  | Some (J.Num v) when Float.is_finite v && v > 0.0 -> Ok v
  | Some (J.Num v) -> Error (Printf.sprintf "scale must be a finite positive number, got %g" v)
  | Some _ -> Error "scale must be a number"

let request_of_json j =
  let* () = check_schema j in
  let* id = req_str "id" j in
  let* op_name = req_str "op" j in
  let* op =
    match op_name with
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | "csv" | "render" ->
      let fmt = if op_name = "csv" then `Csv else `Render in
      let* figure = req_str "figure" j in
      let* scale = req_scale j in
      Ok (Run (Figure { fmt; figure; scale }))
    | "cell" ->
      let* platform = req_str "platform" j in
      let* kernel = req_str "kernel" j in
      let* scale = req_scale j in
      Ok (Run (Cell { platform; kernel; scale }))
    | other -> Error (Printf.sprintf "unknown op %S (ping, stats, shutdown, csv, render, cell)" other)
  in
  Ok { rq_id = id; rq_op = op }

let response_of_json j =
  let* () = check_schema j in
  (* the answer to a frame that never parsed has no id to echo *)
  let* id = req_str ~empty_ok:true "id" j in
  match J.member "ok" j with
  | Some (J.Bool true) ->
    let* payload =
      match J.member "payload" j with
      | Some (J.Str s) -> Ok s
      | _ -> Error "ok response carries no payload string"
    in
    let report = Option.value (J.member "report" j) ~default:J.Null in
    Ok { rs_id = id; rs_result = Ok (payload, report) }
  | Some (J.Bool false) ->
    let* msg =
      match J.member "error" j with
      | Some (J.Str s) -> Ok s
      | _ -> Error "error response carries no error string"
    in
    Ok { rs_id = id; rs_result = Error msg }
  | Some _ -> Error "ok field must be a boolean"
  | None -> Error "missing ok field"

(* ------------------------------------------------------------- framing *)

let print_json j = J.to_string ~indent:0 j
let print_request r = print_json (request_to_json r)
let print_response r = print_json (response_to_json r)

let parse_frame of_json line =
  match J.parse line with
  | Error msg -> Error ("malformed frame: " ^ msg)
  | Ok j -> of_json j

let parse_request = parse_frame request_of_json
let parse_response = parse_frame response_of_json

(* ----------------------------------------------------------- endpoints *)

type addr = [ `Unix of string | `Tcp of string * int ]

let addr_of_string s =
  if String.length s = 0 then Error "empty address"
  else if String.length s >= 4 && String.sub s 0 4 = "tcp:" then begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" s)
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (`Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad tcp port %S" port))
  end
  else if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Ok (`Unix (String.sub s 5 (String.length s - 5)))
  else Ok (`Unix s)

let addr_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port
