let f = Report.Table.cell_f

(* ------------------------------------------------------------- summary *)

let summary reg =
  let buf = Buffer.create 1024 in
  let section title = Buffer.add_string buf (Printf.sprintf "== %s ==\n" title) in
  let counters = Registry.counters reg in
  if counters <> [] then begin
    section "counters";
    let t = Report.Table.create ~headers:[ "counter"; "value" ] in
    List.iter (fun (name, v) -> Report.Table.add_row t [ name; string_of_int v ]) counters;
    Buffer.add_string buf (Report.Table.render t);
    Buffer.add_char buf '\n'
  end;
  let hists = Registry.histograms reg in
  if hists <> [] then begin
    section "histograms";
    let t =
      Report.Table.create ~headers:[ "histogram"; "count"; "mean"; "p50"; "p95"; "min"; "max" ]
    in
    List.iter
      (fun (name, (s : Registry.hist_stats)) ->
        Report.Table.add_row t
          [ name; string_of_int s.count; f s.mean; f s.p50; f s.p95; f s.min; f s.max ])
      hists;
    Buffer.add_string buf (Report.Table.render t);
    Buffer.add_char buf '\n'
  end;
  let phases = Registry.phases reg in
  if phases <> [] then begin
    section "phases";
    let t =
      Report.Table.create ~headers:[ "phase"; "target cycles"; "target span"; "wall ms" ]
    in
    List.iter
      (fun (p : Registry.phase_info) ->
        Report.Table.add_row t
          [
            p.ph_name;
            Printf.sprintf "%d..%d" p.ph_ts0 p.ph_ts1;
            string_of_int (p.ph_ts1 - p.ph_ts0);
            f (p.ph_wall_s *. 1e3);
          ])
      phases;
    Buffer.add_string buf (Report.Table.render t);
    Buffer.add_char buf '\n'
  end;
  let tr = Registry.trace reg in
  section "trace";
  Buffer.add_string buf
    (Printf.sprintf "%d events retained, %d dropped (capacity %d)\n" (Trace.length tr)
       (Trace.dropped tr) (Trace.capacity tr));
  if Trace.dropped tr > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "WARNING: %d trace events dropped (oldest first) — the ring overflowed; rerun with a \
          larger --trace-capacity for a complete trace\n"
         (Trace.dropped tr));
  Buffer.contents buf

(* ----------------------------------------------------------------- csv *)

let to_csv reg =
  let t = Report.Table.create ~headers:[ "kind"; "name"; "field"; "value" ] in
  let row kind name field value = Report.Table.add_row t [ kind; name; field; value ] in
  List.iter
    (fun (name, v) -> row "counter" name "value" (string_of_int v))
    (Registry.counters reg);
  List.iter
    (fun (name, (s : Registry.hist_stats)) ->
      row "histogram" name "count" (string_of_int s.count);
      row "histogram" name "sum" (f s.sum);
      row "histogram" name "mean" (f s.mean);
      row "histogram" name "p50" (f s.p50);
      row "histogram" name "p95" (f s.p95);
      row "histogram" name "min" (f s.min);
      row "histogram" name "max" (f s.max))
    (Registry.histograms reg);
  List.iter
    (fun (p : Registry.phase_info) ->
      row "phase" p.ph_name "target_cycles" (string_of_int (p.ph_ts1 - p.ph_ts0));
      row "phase" p.ph_name "wall_s" (Printf.sprintf "%.6f" p.ph_wall_s))
    (Registry.phases reg);
  Report.Table.to_csv t

(* ---------------------------------------------------------------- json *)

module J = Util.Jsonx

let num_i n = J.Num (float_of_int n)

let json_event (e : Trace.event) =
  let dur = if e.ph = 'X' then [ ("dur", num_i e.dur) ] else [] in
  let args =
    match e.args with
    | [] -> []
    | args ->
      let arg = function
        | Trace.Int n -> num_i n
        | Trace.Float x -> J.Num x
        | Trace.Str s -> J.Str s
      in
      [ ("args", J.Obj (List.map (fun (k, v) -> (k, arg v)) args)) ]
  in
  J.Obj
    ([
       ("name", J.Str e.name);
       ("cat", J.Str e.cat);
       ("ph", J.Str (String.make 1 e.ph));
       ("ts", num_i e.ts);
       ("pid", num_i 0);
       ("tid", num_i e.tid);
     ]
    @ dur @ args)

let chrome_trace reg =
  let tr = Registry.trace reg in
  let meta =
    J.Obj
      [
        ("name", J.Str "process_name");
        ("ph", J.Str "M");
        ("pid", num_i 0);
        ("tid", num_i 0);
        ("args", J.Obj [ ("name", J.Str "simbridge") ]);
      ]
  in
  (* A final counter sample makes headline counters visible on the
     timeline even for traces that only carry phase events. *)
  let final_counters =
    let ts =
      List.fold_left (fun acc (p : Registry.phase_info) -> max acc p.ph_ts1) 0 (Registry.phases reg)
    in
    List.map
      (fun (name, v) ->
        json_event
          { Trace.name; cat = "counter"; ph = 'C'; ts; dur = 0; tid = 0; args = [ ("value", Trace.Int v) ] })
      (Registry.counters reg)
  in
  let events = meta :: (List.map json_event (Trace.to_list tr) @ final_counters) in
  J.to_string ~indent:0 (J.Obj [ ("traceEvents", J.Arr events); ("displayTimeUnit", J.Str "ms") ])
  ^ "\n"

(* --------------------------------------------------------------- write *)

let write reg ~dir =
  let file name contents = Util.Outfile.write (Filename.concat dir name) contents in
  file "telemetry.txt" (summary reg);
  file "telemetry.csv" (to_csv reg);
  file "trace.json" (chrome_trace reg)
