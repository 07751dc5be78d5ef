(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
       [--commit ID] [--out-dir DIR]

   Runs one workload (see [Workloads]) for S seconds and prints, as the
   last line of standard output, one JSON object with the keys
   [correct], [attempted], [failed] and [metrics].  With [--trace 0]
   the metrics are the end-to-end set; with [--trace 1] the per-layer
   set, and the spans of the traced run are written to DIR.  The line
   before it records the environment, the seed and the tail
   percentile used. *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and out_dir = ref "perfbench/out" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--commit", Arg.Set_string commit, "ID source revision to record");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let run =
    match List.assoc_opt !workload Workloads.all with
    | Some run -> run
    | None ->
        prerr_endline
          ("perfbench: unknown workload; one of: "
          ^ String.concat ", " (List.map fst Workloads.all));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace takes 0 or 1"; exit 2);
  let c = Ctx.create ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  run c;
  let metrics =
    match c.Ctx.tracer with
    | None ->
        let e2e = Report.end_to_end c in
        (* every end-to-end figure is a positive measurement *)
        List.iter
          (fun m ->
            Ctx.check c
              (Float.is_finite m.Report.value && m.Report.value > 0.)
              ("no measurement for " ^ m.Report.name))
          e2e;
        e2e
    | Some t ->
        Ctx.check c (c.Ctx.traced_units > 0) "no traced unit";
        let layers = Report.per_layer c t in
        if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
        Tracer.write_spans t
          (Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.tsv" !workload !seed));
        layers
  in
  let _, pct = Measure.tail c.Ctx.ops in
  List.iter (fun f -> prerr_endline ("perfbench: failure: " ^ f)) (List.rev c.Ctx.failures);
  print_endline
    (json_object
       [
         ( "run",
           json_object
             [
               ("workload", json_string !workload);
               ("seed", string_of_int !seed);
               ("seconds", json_float !seconds);
               ("trace", string_of_int !trace);
               ("commit", json_string !commit);
               ("ocaml", json_string Sys.ocaml_version);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("domains", string_of_int Workloads.options.Codb_core.Options.domains);
               ("ops", string_of_int c.Ctx.ops.Measure.n);
               ("traced_ops", string_of_int c.Ctx.traced_ops.Measure.n);
               ("tail_percentile", json_float pct);
               ("error_rate",
                 json_float (float_of_int c.Ctx.failed /. float_of_int c.Ctx.attempted));
             ] );
       ]);
  print_endline
    (json_object
       [
         ("correct", string_of_bool (c.Ctx.failed = 0));
         ("attempted", string_of_int c.Ctx.attempted);
         ("failed", string_of_int c.Ctx.failed);
         ( "metrics",
           json_object
             (List.map
                (fun m ->
                  ( m.Report.name,
                    json_object
                      [ ("value", json_float m.Report.value); ("unit", json_string m.Report.unit_) ]
                  ))
                metrics) );
       ])
