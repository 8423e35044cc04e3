(* The repository benchmark.

     main.exe --workload serve|select|infer|train --seed N --seconds S --trace 0|1
     main.exe --tiny

   One run builds the workload's inputs from the seed, sets the system up,
   measures for the given seconds and checks every output. The metric names
   and units come from BENCHMARK.json in the working directory: an untraced
   run prints its end_to_end metrics, a traced run its per_layer metrics,
   and the last line of standard output is the result as one JSON object.
   A traced run splits its seconds between an untraced pass and a traced
   pass of the same inputs (the tracing overhead is their ratio) and writes
   its spans to perfbench/out/ as a Chrome trace. [--tiny] runs every
   workload at tiny size, traced, strictly checking that the metrics match
   BENCHMARK.json: the benchmark's test. *)

module Json = Granii_obs.Obs.Json

let workloads =
  [ ("serve", Wl_serve.run); ("select", Wl_select.run); ("infer", Wl_infer.run);
    ("train", Wl_train.run) ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* (name, unit) of the end_to_end and per_layer metrics in BENCHMARK.json. *)
let spec path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" path e
  in
  let json = match Json.parse text with Ok j -> j | Error e -> fail "%s: %s" path e in
  let metrics key =
    match Json.member key json with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) -> (n, u)
            | _ -> fail "%s: malformed %s entry" path key)
          l
    | _ -> fail "%s: no %s list" path key
  in
  (metrics "end_to_end", metrics "per_layer")

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Self time per span name, and the share of the root spans no child
   accounts for. *)
let trace_layers (r : Report.t) spans =
  let sums = Spans.summarize spans in
  Report.info "spans: %-16s %8s %12s %12s %8s" "name" "count" "mean ms" "self ms" "self %";
  List.iter
    (fun (s : Spans.summary) ->
      let per x = Report.ms (x /. float_of_int s.Spans.count) in
      Report.info "spans: %-16s %8d %12.4f %12.4f %7.1f%%" s.Spans.sname s.Spans.count
        (per s.Spans.total) (per s.Spans.self)
        (100. *. s.Spans.self /. s.Spans.total);
      Report.layer r ("self_ms." ^ s.Spans.sname) (per s.Spans.self))
    sums;
  let roots = List.filter (fun s -> s.Spans.root) sums in
  let sum f = List.fold_left (fun a s -> a +. f s) 0. roots in
  Report.layer r "trace.unattributed_frac"
    (sum (fun s -> s.Spans.self) /. sum (fun s -> s.Spans.total))

let run_one ~name ~seed ~seconds ~trace ~tiny (e2e_spec, layer_spec) =
  Report.info "workload %s, seed %d, %g s, trace %d%s" name seed seconds
    (Bool.to_int trace) (if tiny then ", tiny" else "");
  let r = Report.create () in
  (List.assoc name workloads) r ~seed ~seconds ~trace ~tiny;
  Report.e2e r "heap_peak_mb"
    (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.);
  let host = Host.describe () in
  List.iter (fun (k, v) -> Report.info "host %s: %s" k v) host;
  if trace then begin
    Common.compile_times r;
    match r.Report.spans with
    | None -> ()
    | Some spans ->
        trace_layers r spans;
        let json = Spans.to_json spans ~meta:(("workload", name) :: host) in
        if tiny then
          Report.check r (Json.validate json = Ok ()) (fun () -> "trace JSON is invalid")
        else begin
          let dir = Filename.concat "perfbench" "out" in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" name seed) in
          Out_channel.with_open_bin path (fun oc -> output_string oc json);
          Report.info "trace: %d spans written to %s" spans.Spans.n path
        end
  end;
  let problems = ref (List.rev r.Report.problems) in
  let problem fmt = Printf.ksprintf (fun s -> problems := !problems @ [ s ]) fmt in
  let lookup spec measured kind =
    List.iter
      (fun (n, v) ->
        if not (List.mem_assoc n spec) then
          (if tiny then problem else Report.info)
            "%s metric %s = %g is not listed in BENCHMARK.json" kind n v)
      measured;
    List.map
      (fun (n, u) ->
        match List.assoc_opt n measured with
        | Some v ->
            Report.info "%-34s %18.6f %s" n v u;
            if not (Float.is_finite v) then problem "%s is not finite" n;
            (n, u, v)
        | None when kind = "per-layer" ->
            Report.info "%-34s %18s %s (layer not exercised by %s)" n "0" u name;
            (n, u, 0.)
        | None ->
            problem "end-to-end metric %s was not measured" n;
            (n, u, 0.))
      spec
  in
  let e2e = lookup e2e_spec r.Report.e2e "end-to-end" in
  let layers = if trace then lookup layer_spec r.Report.layer "per-layer" else [] in
  Report.info "fail_frac %.6f (%d of %d operations failed)"
    (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted))
    r.Report.failed r.Report.attempted;
  List.iter (fun p -> Report.info "problem: %s" p) !problems;
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, u, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string n) (number v)
             (Spans.json_string u))
         (if trace then layers else e2e))
  in
  let correct = !problems = [] && r.Report.failed = 0 && r.Report.attempted >= 1 in
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct r.Report.attempted r.Report.failed metrics
  in
  if Json.validate result <> Ok () then fail "result line is not valid JSON: %s" result;
  print_endline result;
  correct

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> acc
    | "--tiny" :: rest -> parse (("tiny", "1") :: acc) rest
    | ("--workload" | "--seed" | "--seconds" | "--trace") as k :: v :: rest ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | a :: _ -> fail "unexpected argument %s" a
  in
  let opts = parse [] args in
  let int_opt k d =
    match List.assoc_opt k opts with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> fail "--%s: %s" k v)
  in
  let spec = spec "BENCHMARK.json" in
  if List.mem_assoc "tiny" opts then begin
    let ok =
      List.for_all Fun.id
        (List.map
           (fun (name, _) -> run_one ~name ~seed:1 ~seconds:2. ~trace:true ~tiny:true spec)
           workloads)
    in
    exit (if ok then 0 else 1)
  end;
  let name =
    match List.assoc_opt "workload" opts with
    | Some w when List.mem_assoc w workloads -> w
    | Some w -> fail "unknown workload %s" w
    | None -> fail "--workload is required"
  in
  let seconds = int_opt "seconds" 10 in
  if seconds < 1 then fail "--seconds must be >= 1";
  let trace = match int_opt "trace" 0 with 0 -> false | 1 -> true | _ -> fail "--trace is 0 or 1" in
  let ok =
    run_one ~name ~seed:(int_opt "seed" 1) ~seconds:(float_of_int seconds) ~trace ~tiny:false spec
  in
  exit (if ok then 0 else 1)
