(* The repository benchmark.  One workload per process:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: table1-ref, fuzz-short, serve-mixed (see perfbench/DESIGN.md
   for what each runs and which layers it stresses).  With --trace 0 the
   last line of stdout is the end-to-end report; with --trace 1 the
   workload is also replayed layer by layer under spans and the last
   line carries the per-layer metrics instead (the Chrome trace is
   written under _perfbench/).  Exit 0 with a report, 2 on bad usage. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload table1-ref|fuzz-short|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_arg r v =
    match int_of_string_opt v with Some n -> r := Some n | None -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: v :: rest ->
      int_arg seed v;
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := Some s
      | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      int_arg trace v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some (0 | 1 as t) ->
    (w, seed, seconds, t = 1)
  | _ -> usage ()

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let () =
  let workload, seed, seconds, trace = args () in
  let run =
    match workload with
    | "table1-ref" -> Table1_ref.run
    | "fuzz-short" -> Fuzz_short.run
    | "serve-mixed" -> Serve_mixed.run
    | _ -> usage ()
  in
  let o : Util.outcome = run ~seed ~seconds ~trace in
  List.iter print_endline o.notes;
  let metrics =
    List.map
      (fun (m : Util.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_num m.m_value) m.m_unit)
      o.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", " metrics)
