(** Render a {!Registry} three ways:

    - a plain-text report ({!summary}) built on [Report.Table];
    - an RFC-4180 CSV ({!to_csv}) with one [kind,name,field,value] row
      per metric facet, suitable for joining against result CSVs;
    - Chrome trace-event JSON ({!chrome_trace}) loadable in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Trace
      timestamps are target cycles rendered in the JSON's microsecond
      field, so one trace "µs" = one target cycle.

    {!write} drops all three next to a run's results as
    [telemetry.txt], [telemetry.csv], and [trace.json]. *)

val summary : Registry.t -> string
(** Includes a WARNING line when the bounded trace ring dropped
    events, so truncated traces are visible instead of silent. *)

val to_csv : Registry.t -> string

val chrome_trace : Registry.t -> string

val write : Registry.t -> dir:string -> unit
(** Creates [dir] — including missing parent directories, so
    [--telemetry out/run1/telemetry] works on a clean tree, through
    {!Util.Outfile.write}.  Raises [Sys_error] naming the path when a
    directory or file cannot be written. *)
