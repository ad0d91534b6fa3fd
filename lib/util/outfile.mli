(** The one way run artefacts (reports, traces, telemetry sidecars,
    history lines, bench summaries) reach the file system. *)

val write : ?append:bool -> string -> string -> unit
(** [write path contents] writes [contents] to [path], replacing the
    file, or adding to its end with [~append:true]; missing parent
    directories are created first, so [--report out/run1/r.json] works
    on a clean tree.  A parent that appears concurrently is fine; any
    other failure (permissions, a regular file in the way) raises
    [Sys_error] whose message names the offending path. *)
