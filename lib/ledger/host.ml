module J = Util.Jsonx

type t = {
  hostname : string;
  logical_cores : int;
  physical_cores : int option;
  ocaml_version : string;
  word_size : int;
  os_type : string;
}

let detect () =
  {
    hostname = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
    logical_cores = Parallel.Pool.recommended_jobs ();
    physical_cores = Parallel.Pool.physical_cores ();
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
    os_type = Sys.os_type;
  }

(* The fingerprint is what [History.check] keys same-host comparisons
   on: MIPS measured on different machines (or under a different
   runtime) is not comparable, so anything that plausibly changes host
   throughput belongs here. *)
let fingerprint h =
  Printf.sprintf "%s/%dc/ocaml-%s/%s" h.hostname h.logical_cores h.ocaml_version h.os_type

let to_json h =
  J.Obj
    [
      ("hostname", J.Str h.hostname);
      ("logical_cores", J.Num (float_of_int h.logical_cores));
      ( "physical_cores",
        match h.physical_cores with None -> J.Null | Some n -> J.Num (float_of_int n) );
      ("ocaml_version", J.Str h.ocaml_version);
      ("word_size", J.Num (float_of_int h.word_size));
      ("os_type", J.Str h.os_type);
      ("fingerprint", J.Str (fingerprint h));
    ]
