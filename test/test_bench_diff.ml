(* tools/bench_diff, the regression gate: drive the executable over
   small fixture reports, then over the committed baselines with each
   declared gate moved the wrong way. *)

let exe = "../tools/bench_diff.exe"

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let write path s = Out_channel.with_open_text path (fun oc -> output_string oc s)

(* index of [needle] in [hay] at or after [i] *)
let rec find hay needle i =
  if i + String.length needle > String.length hay then raise Not_found
  else if String.sub hay i (String.length needle) = needle then i
  else find hay needle (i + 1)

let contains hay needle =
  match find hay needle 0 with _ -> true | exception Not_found -> false

(* exit code and stdout of [bench_diff baseline fresh] *)
let diff baseline fresh =
  if not (Sys.file_exists exe) then Alcotest.failf "%s not built" exe;
  let b = tmp "bench_diff_base.json" and f = tmp "bench_diff_fresh.json" in
  let out = tmp "bench_diff_out.txt" in
  write b baseline;
  write f fresh;
  let code = Sys.command (Printf.sprintf "%s %s %s > %s 2>&1" exe b f out) in
  (code, In_channel.with_open_text out In_channel.input_all)

let report ?(gates = [ ("checks_emitted", "lower"); ("hoisted_checks", "higher") ])
    targets =
  Printf.sprintf {|{ "gates": { %s }, "targets": [ %s ] }|}
    (String.concat ", "
       (List.map (fun (k, d) -> Printf.sprintf "%S: %S" k d) gates))
    (String.concat ", " targets)

let target ?(merge = 2.0)
    ?(counters =
      [ ("checks_emitted", 10); ("hoisted_checks", 3);
        ("eliminated_global", 5) ]) name =
  Printf.sprintf
    {|{ "name": %S, "baseline_cycles": 1000, "wall_seconds": 0.5,
        "overheads": { "merge": %g }, "counters": { %s } }|}
    name merge
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) counters))

let base = report [ target "spec:a" ]

let passes what fresh () =
  let code, out = diff base fresh in
  Alcotest.(check int) (what ^ ": exit\n" ^ out) 0 code

let fails what needle fresh () =
  let code, out = diff base fresh in
  Alcotest.(check int) (what ^ ": exit\n" ^ out) 1 code;
  Alcotest.(check bool) (what ^ ": names " ^ needle ^ "\n" ^ out) true
    (contains out needle)

let counters cs = target ~counters:cs "spec:a"

(* each committed baseline passes against itself and fails when any one
   of its declared gates moves the wrong way on its first target *)
let committed_baselines () =
  let files =
    Sys.readdir "../bench" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f "_baseline.json")
    |> List.sort compare
  in
  Alcotest.(check (list string)) "baselines"
    [ "fuzz_baseline.json"; "rebuild_baseline.json"; "serve_baseline.json";
      "table1_baseline.json" ]
    files;
  List.iter
    (fun file ->
      let src = In_channel.with_open_text ("../bench/" ^ file) In_channel.input_all in
      let code, out = diff src src in
      Alcotest.(check int) (file ^ " against itself\n" ^ out) 0 code;
      let gates =
        match Obs.Json.parse src with
        | Ok v -> (
          match Obs.Json.member "gates" v with
          | Some (Obs.Json.Obj kvs) ->
            List.map (fun (k, d) -> (k, Option.get (Obs.Json.to_str d))) kvs
          | _ -> Alcotest.failf "%s: no gates" file)
        | Error e -> Alcotest.failf "%s: %s" file e
      in
      List.iter
        (fun (k, d) ->
          (* the first ["k": N] after "targets" is the first target's *)
          let key = Printf.sprintf "%S: " k in
          let i = find src key (find src "\"targets\"" 0) + String.length key in
          let j = ref i in
          while src.[!j] >= '0' && src.[!j] <= '9' do incr j done;
          let n = int_of_string (String.sub src i (!j - i)) in
          let moved = if d = "lower" then n + 1 else n - 1 in
          let fresh =
            String.sub src 0 i ^ string_of_int moved
            ^ String.sub src !j (String.length src - !j)
          in
          let code, out = diff src fresh in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s %d -> %d\n%s" file k n moved out)
            1 code)
        gates)
    files

let tests =
  [
    Alcotest.test_case "identical report passes" `Quick
      (passes "identical" base);
    Alcotest.test_case "lower counter rising fails" `Quick
      (fails "lower" "counter checks_emitted increased"
         (report
            [ counters [ ("checks_emitted", 11); ("hoisted_checks", 3);
                         ("eliminated_global", 5) ] ]));
    Alcotest.test_case "higher counter falling fails" `Quick
      (fails "higher" "counter hoisted_checks decreased"
         (report
            [ counters [ ("checks_emitted", 10); ("hoisted_checks", 2);
                         ("eliminated_global", 5) ] ]));
    Alcotest.test_case "baseline gate absent from fresh fails" `Quick
      (fails "gate dropped" "gate hoisted_checks missing"
         (report ~gates:[ ("checks_emitted", "lower") ] [ target "spec:a" ]));
    Alcotest.test_case "gated counter missing fails" `Quick
      (fails "counter dropped" "counter hoisted_checks missing"
         (report
            [ counters [ ("checks_emitted", 10); ("eliminated_global", 5) ] ]));
    Alcotest.test_case "overhead over threshold fails" `Quick
      (fails "overhead" "overhead merge regressed"
         (report [ target ~merge:2.3 "spec:a" ]));
    Alcotest.test_case "improvements and new targets pass" `Quick
      (passes "improved"
         (report
            [ target ~merge:1.5
                ~counters:
                  [ ("checks_emitted", 7); ("hoisted_checks", 5);
                    (* informational: free to move either way *)
                    ("eliminated_global", 0) ]
                "spec:a";
              target "spec:new" ]));
    Alcotest.test_case "committed baselines gate every declared counter"
      `Quick committed_baselines;
  ]
