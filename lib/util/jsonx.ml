type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

(* ------------------------------------------------------------- parsing *)

type state = { s : string; mutable pos : int }

let fail st msg = raise (Fail (st.pos, msg))
let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some got when got = c -> st.pos <- st.pos + 1
  | Some got -> fail st (Printf.sprintf "expected %c, got %c" c got)
  | None -> fail st (Printf.sprintf "expected %c, got end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

(* UTF-8-encode a \uXXXX escape (surrogate pairs are not recombined —
   the documents this parser reads are ASCII-plus-UTF-8 already). *)
let utf8_of_code buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
      st.pos <- st.pos + 1;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        st.pos <- st.pos + 1;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
          let hex = String.sub st.s st.pos 4 in
          st.pos <- st.pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code -> utf8_of_code buf code
          | None -> fail st "bad \\u escape")
        | c -> fail st (Printf.sprintf "bad escape \\%c" c)));
      go ()
    | Some c ->
      st.pos <- st.pos + 1;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let numchar = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.s && numchar st.s.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> v
  | None -> fail st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          fields_loop ()
        | _ -> expect st '}'
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          items_loop ()
        | _ -> expect st ']'
      in
      items_loop ();
      Arr (List.rev !items)
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos < String.length s then Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
    else Ok v
  | exception Fail (pos, msg) -> Error (Printf.sprintf "at byte %d: %s" pos msg)

let parse_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    parse s

(* ------------------------------------------------------------ emitting *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let num_to_string v =
  if not (Float.is_finite v) then "null" (* JSON has no nan/inf *)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let to_string ?(indent = 2) v =
  let buf = Buffer.create 256 in
  let pad depth = if indent > 0 then Buffer.add_string buf (String.make (depth * indent) ' ') in
  let nl () = if indent > 0 then Buffer.add_char buf '\n' in
  let sep () = Buffer.add_string buf (if indent > 0 then ": " else ":") in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num v -> Buffer.add_string buf (num_to_string v)
    | Str s -> escape_string buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          emit (depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          escape_string buf k;
          sep ();
          emit (depth + 1) v)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf

(* ----------------------------------------------------------- accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> Some items | _ -> None

let get_str ?(default = "") key v =
  match member key v with Some (Str s) -> s | _ -> default

let get_float key v = Option.bind (member key v) to_float
