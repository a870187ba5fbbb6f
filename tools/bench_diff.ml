(* bench_diff: the bench-regression gate.

   Compares a freshly generated bench report (bench/main.exe EXP
   --out BENCH_EXP.json) against its committed baseline
   (bench/EXP_baseline.json) and fails when:

     - a baseline target disappeared from the fresh report;
     - a target's deterministic baseline cycle count grew by more
       than the threshold (default 10%);
     - any overhead ratio (unopt/elim/batch/merge/...) grew by more
       than the threshold;
     - a counter the baseline's "gates" object declares "lower" went
       up, or one it declares "higher" went down;
     - a baseline gate is absent from (or changed direction in) the
       fresh report's "gates", or a gated counter a baseline target
       carries is missing from the fresh target -- dropping a
       declaration fails until the baseline is regenerated on purpose.

   The gates are declared where each counter is recorded
   (Engine.Report.add_target), so this tool knows no counter names.
   New targets and improvements are fine.  wall_seconds is ignored
   everywhere: it is the only machine-dependent field; cycles come
   from the deterministic VM cost model.

   Re-baselining after an intentional change:
     make baseline-EXP   # regenerates bench/EXP_baseline.json
   then commit the new baseline together with the change that
   explains it.

   usage: bench_diff baseline.json fresh.json [--max-regress PCT] *)

module J = Obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let baseline_path, fresh_path, max_regress =
  let pos = ref [] and pct = ref 10.0 in
  let rec parse = function
    | [] -> ()
    | "--max-regress" :: p :: rest ->
      (match float_of_string_opt p with
      | Some x when x >= 0.0 -> pct := x
      | _ -> die "--max-regress: expected a percentage, got %s" p);
      parse rest
    | x :: _ when String.length x > 0 && x.[0] = '-' ->
      die "usage: bench_diff baseline.json fresh.json [--max-regress PCT]"
    | x :: rest ->
      pos := x :: !pos;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.rev !pos with
  | [ b; f ] -> (b, f, !pct)
  | _ -> die "usage: bench_diff baseline.json fresh.json [--max-regress PCT]"

let load path =
  let src =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  match J.parse src with
  | Ok v -> v
  | Error e -> die "%s: %s" path e

(* --- accessors over the report shape -------------------------------- *)

let str_field name v = Option.bind (J.member name v) J.to_str
let num_field name v = Option.bind (J.member name v) J.to_num

let targets v : (string * J.v) list =
  match Option.bind (J.member "targets" v) J.to_arr with
  | None -> []
  | Some ts ->
    List.filter_map
      (fun t -> Option.map (fun n -> (n, t)) (str_field "name" t))
      ts

(* all fields of an object sub-record, as name -> float *)
let table field v : (string * float) list =
  match J.member field v with
  | Some (J.Obj kvs) ->
    List.filter_map (fun (k, x) -> Option.map (fun n -> (k, n)) (J.to_num x))
      kvs
  | _ -> []

(* --- the gates ------------------------------------------------------ *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let pct_over fresh base = 100.0 *. ((fresh /. base) -. 1.0)

let check_ratio ~target ~what ~base ~fresh =
  if base > 0.0 && pct_over fresh base > max_regress then
    fail "%s: %s regressed %.1f%% (%.4g -> %.4g, threshold %.0f%%)" target
      what (pct_over fresh base) base fresh max_regress

(* the report's declared gates: counter -> the direction it may not
   move in, "lower" or "higher" *)
let gates path v : (string * string) list =
  match J.member "gates" v with
  | None -> []
  | Some (J.Obj kvs) ->
    List.map
      (fun (k, d) ->
        match J.to_str d with
        | Some (("lower" | "higher") as d) -> (k, d)
        | _ -> die "%s: gate %s: expected \"lower\" or \"higher\"" path k)
      kvs
  | Some _ -> die "%s: \"gates\" is not an object" path

let check_target gates name base fresh =
  (match (num_field "baseline_cycles" base, num_field "baseline_cycles" fresh)
   with
  | Some b, Some f ->
    check_ratio ~target:name ~what:"baseline_cycles" ~base:b ~fresh:f
  | _ -> ());
  List.iter
    (fun (k, b) ->
      match List.assoc_opt k (table "overheads" fresh) with
      | Some f -> check_ratio ~target:name ~what:("overhead " ^ k) ~base:b ~fresh:f
      | None -> fail "%s: overhead %s missing from fresh report" name k)
    (table "overheads" base);
  let fresh_counters = table "counters" fresh in
  List.iter
    (fun (k, b) ->
      match (List.assoc_opt k gates, List.assoc_opt k fresh_counters) with
      | None, _ -> ()
      | Some _, None -> fail "%s: counter %s missing from fresh report" name k
      | Some "lower", Some f when f > b ->
        fail "%s: counter %s increased (%.0f -> %.0f)" name k b f
      | Some "higher", Some f when f < b ->
        fail "%s: counter %s decreased (%.0f -> %.0f)" name k b f
      | Some _, Some _ -> ())
    (table "counters" base)

let () =
  let base = load baseline_path and fresh = load fresh_path in
  let base_t = targets base and fresh_t = targets fresh in
  if base_t = [] then die "%s: no targets" baseline_path;
  let base_g = gates baseline_path base and fresh_g = gates fresh_path fresh in
  List.iter
    (fun (k, d) ->
      match List.assoc_opt k fresh_g with
      | Some d' when d' = d -> ()
      | Some d' -> fail "gate %s changed direction (%s -> %s)" k d d'
      | None -> fail "gate %s missing from fresh report" k)
    base_g;
  List.iter
    (fun (name, bt) ->
      match List.assoc_opt name fresh_t with
      | Some ft -> check_target base_g name bt ft
      | None -> fail "%s: missing from fresh report" name)
    base_t;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name base_t) then
        Printf.printf "note: new target %s (not in baseline)\n" name)
    fresh_t;
  if !failures = 0 then
    Printf.printf "bench_diff OK: %d targets, %d gates, within %.0f%% of %s\n"
      (List.length base_t) (List.length base_g) max_regress baseline_path
  else begin
    Printf.printf
      "bench_diff: %d failure(s) vs %s\n\
       (intentional change?  re-baseline with: make baseline-EXP)\n"
      !failures baseline_path;
    exit 1
  end
