(** Minimal JSON: the codec every JSON document in the repo goes
    through.

    The repo deliberately carries no external JSON dependency (the CI
    image bakes in a fixed opam set), and its documents — the paper
    expectations, the fidelity and run reports, the history ledger, the
    Chrome traces, the serve wire frames and the bench summaries — need
    only the core data model.  This is a complete recursive-descent
    parser (objects, arrays, strings with escapes, numbers, booleans,
    null) plus a deterministic printer. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document; the error carries a byte offset. *)

val parse_file : string -> (t, string) result
(** [parse] over a file's contents; I/O failures become [Error]. *)

val to_string : ?indent:int -> t -> string
(** Serialize.  [indent] > 0 (default 2) pretty-prints with that step;
    [indent = 0] emits a single line.  Object key order is preserved, so
    output is deterministic.  Round-trips through {!parse}. *)

(** {2 Accessors} — all total, returning [None] on a shape mismatch. *)

val member : string -> t -> t option
(** Object field lookup ([None] on non-objects too). *)

val to_float : t -> float option
val to_int : t -> int option
(** [Num] only when integral. *)

val to_str : t -> string option
val to_list : t -> t list option

val get_str : ?default:string -> string -> t -> string
(** [get_str key obj] with a default of [""]: the common case for
    optional annotation fields (provenance strings). *)

val get_float : string -> t -> float option
(** [member] composed with {!to_float}. *)
