(* The fuzzing fleet: campaign determinism (same seed => byte-identical
   report, for any --jobs), crash dedup, minimizer soundness (the
   minimized input still trips the original (code, site) pair), the
   coverage-feedback scheduler, the profile campaign that grows the
   allow-list's test suite (paper §5), and the parser-campaign triage
   contract over the shared corrupt corpus. *)

module Pl = Engine.Pipeline
module Campaign = Fuzz.Campaign
module Corpus = Fuzz.Corpus
module Mutate = Fuzz.Mutate
module Rw = Redfat.Rewrite

let with_engine ?(jobs = 1) f =
  let eng = Pl.create ~jobs ~cache:false () in
  Fun.protect ~finally:(fun () -> Pl.close eng) (fun () -> f eng)

(* small budgets and step caps keep the suite fast; the hang case still
   needs enough steps for benign inputs to finish *)
let config = { Campaign.default_config with budget = 96; max_steps = 20_000 }

let hardened ?(backend = Backend.Check_backend.default) eng id =
  let c = Workloads.Fuzzbugs.find id in
  let bin = Pl.compile eng c.Workloads.Fuzzbugs.program in
  (Pl.harden eng ~opts:{ Rw.optimized with Rw.backend } bin).Rw.binary

let campaign ?backend ?(config = config) eng id =
  Campaign.run_exec eng ~config ~target:("bug:" ^ id)
    (hardened ?backend eng id)

(* --- determinism ----------------------------------------------------- *)

let test_same_seed_same_report () =
  with_engine @@ fun eng ->
  let a = campaign eng "oob-read" and b = campaign eng "oob-read" in
  Alcotest.(check string)
    "same seed, same report" (Campaign.to_json a) (Campaign.to_json b)

let test_jobs_do_not_change_report () =
  let run jobs = with_engine ~jobs @@ fun eng -> campaign eng "oob-read" in
  let seq = run 1 and par = run 4 in
  Alcotest.(check string)
    "report independent of --jobs" (Campaign.to_json seq)
    (Campaign.to_json par);
  let pseq = with_engine ~jobs:1 @@ fun eng ->
    Campaign.run_parse eng ~config ~which:Campaign.Minic_parser
      ~seeds:[ "func main() { return 0; }"; "" ] ()
  and ppar = with_engine ~jobs:4 @@ fun eng ->
    Campaign.run_parse eng ~config ~which:Campaign.Minic_parser
      ~seeds:[ "func main() { return 0; }"; "" ] ()
  in
  Alcotest.(check string)
    "parse report independent of --jobs" (Campaign.to_json pseq)
    (Campaign.to_json ppar)

let test_seed_changes_report () =
  with_engine @@ fun eng ->
  let a = campaign eng "oob-read" in
  let b =
    campaign ~config:{ config with Campaign.seed = 99 } eng "oob-read"
  in
  (* the found bug set is seed-independent ground truth; the exec
     stream (crash counts, discovery indices) is not *)
  let codes (r : Campaign.report) =
    List.sort compare
      (List.map (fun (b : Campaign.bug) -> (b.b_code, b.b_site)) r.r_bugs)
  in
  Alcotest.(check bool) "both seeds find the planted bug" true
    (codes a <> [] && codes a = codes b)

(* --- dedup and the oracle -------------------------------------------- *)

let test_dedup_by_code_and_site () =
  with_engine @@ fun eng ->
  let r = campaign eng "oob-read" in
  let keys =
    List.map (fun (b : Campaign.bug) -> (b.b_code, b.b_site)) r.r_bugs
  in
  Alcotest.(check bool) "bug keys are distinct" true
    (List.length keys = List.length (List.sort_uniq compare keys));
  let collapsed =
    List.fold_left (fun a (b : Campaign.bug) -> a + b.b_count) 0 r.r_bugs
  in
  Alcotest.(check int) "every crash collapses into exactly one bug"
    r.r_crashes collapsed;
  List.iter
    (fun (b : Campaign.bug) ->
      Alcotest.(check bool) ("classified: " ^ b.b_code) true
        (b.b_class <> "" && b.b_first_exec >= 1 && b.b_first_exec <= r.r_execs))
    r.r_bugs

let test_hang_oracle () =
  with_engine @@ fun eng ->
  let r = campaign eng "hang" in
  Alcotest.(check bool) "the hang dedups to run.timeout at site 0" true
    (List.exists
       (fun (b : Campaign.bug) -> b.b_code = "run.timeout" && b.b_site = 0)
       r.r_bugs)

let test_backends_disagree_on_classification () =
  (* the same planted a[8] write triages differently per backend — the
     diversity documented in docs/FUZZING.md and gated by table2x *)
  let code backend =
    with_engine @@ fun eng ->
    match (campaign ~backend eng "oob-write").r_bugs with
    | b :: _ -> b.Campaign.b_code
    | [] -> Alcotest.fail "campaign found no bug"
  in
  List.iter
    (fun b ->
      let c = code b in
      Alcotest.(check bool)
        (Backend.Check_backend.name b ^ " detects the planted write")
        true
        (String.length c > 7 && String.sub c 0 7 = "detect."))
    Backend.Check_backend.all

(* --- minimization ---------------------------------------------------- *)

let parse_rendered s =
  if s = "" then []
  else List.map int_of_string (String.split_on_char ',' s)

let test_minimized_input_still_crashes () =
  with_engine @@ fun eng ->
  let hard = hardened eng "oob-write" in
  let r = Campaign.run_exec eng ~config ~target:"bug:oob-write" hard in
  Alcotest.(check bool) "found the planted bug" true (r.r_bugs <> []);
  List.iter
    (fun (b : Campaign.bug) ->
      let res =
        Campaign.execute ~max_steps:config.Campaign.max_steps hard
          (parse_rendered b.b_min_input)
      in
      match res.Campaign.x_crash with
      | Some c ->
        Alcotest.(check string) "same code" b.b_code c.Fuzz.Oracle.c_code;
        Alcotest.(check int) "same site" b.b_site c.Fuzz.Oracle.c_site
      | None -> Alcotest.fail ("minimized input no longer crashes: " ^ b.b_code))
    r.r_bugs;
  (* the threshold gate (> 60) minimizes to the boundary itself *)
  (match r.r_bugs with
  | b :: _ -> Alcotest.(check string) "boundary found" "61" b.b_min_input
  | [] -> ())

let test_minimize_inputs_properties () =
  let still l = List.exists (fun x -> x > 60) l in
  let m = Campaign.minimize_inputs still [ 3; 127; 7; 0 ] in
  Alcotest.(check bool) "still satisfies the predicate" true (still m);
  (* passengers dropped; 127 halves to 63 (still crashing), 31 stops *)
  Alcotest.(check (list int)) "drops passengers, shrinks the survivor"
    [ 63 ] m

let test_minimize_bytes_properties () =
  let still s = String.length s >= 3 && String.sub s 0 3 = "REL" in
  let m = Campaign.minimize_bytes still "RELF1\n400000\n0\n1\n1\n" in
  Alcotest.(check bool) "still satisfies the predicate" true (still m);
  Alcotest.(check int) "cut to the witness prefix" 3 (String.length m)

(* --- the coverage-feedback scheduler --------------------------------- *)

let test_corpus_keeps_only_new_coverage () =
  let c = Corpus.create () in
  Alcotest.(check bool) "first input kept" true
    (Corpus.add c ~input:[ 1 ] ~edges:[ 10; 11 ] ~sites:[ 5 ]);
  Alcotest.(check bool) "same coverage dropped" false
    (Corpus.add c ~input:[ 2 ] ~edges:[ 10 ] ~sites:[ 5 ]);
  Alcotest.(check bool) "new edge kept" true
    (Corpus.add c ~input:[ 3 ] ~edges:[ 12 ] ~sites:[ 5 ]);
  Alcotest.(check bool) "new site kept" true
    (Corpus.add c ~input:[ 4 ] ~edges:[ 12 ] ~sites:[ 6 ]);
  Alcotest.(check int) "corpus size" 3 (Corpus.size c);
  Alcotest.(check int) "edges" 3 (Corpus.n_edges c);
  Alcotest.(check int) "sites" 2 (Corpus.n_sites c)

let test_scheduler_favors_new_edges () =
  let c = Corpus.create () in
  (* one-edge entry vs an eight-edge frontier opener *)
  ignore (Corpus.add c ~input:0 ~edges:[ 1 ] ~sites:[]);
  ignore (Corpus.add c ~input:1 ~edges:[ 2; 3; 4; 5; 6; 7; 8; 9 ] ~sites:[]);
  let rng = Mutate.Rng.create 42 in
  let picks = Array.make 2 0 in
  for _ = 1 to 1000 do
    match Corpus.schedule c rng with
    | Some i -> picks.(i) <- picks.(i) + 1
    | None -> Alcotest.fail "schedule on a non-empty corpus"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "novel entry drawn more often (%d vs %d)" picks.(1)
       picks.(0))
    true
    (picks.(1) > picks.(0));
  Alcotest.(check bool) "low-novelty entry still drawn" true (picks.(0) > 0)

(* --- profile campaigns: paper §5's coverage booster -------------------- *)

(* heap accesses hidden behind input-dependent branches: a naive seed
   input covers only the always-taken path *)
let gated_program =
  let open Minic.Ast in
  let open Minic.Build in
  program
    [
      func ~name:"main"
        [
          let_ "a" (alloc_elems (i 16));
          let_ "x" Input;
          (* always executed *)
          set (v "a") (i 0) (v "x");
          (* threshold-gated paths, reachable by +-1 mutations *)
          if_ (v "x" >: i 4) [ set (v "a") (i 1) (i 11) ] [];
          if_ (v "x" >: i 60) [ set (v "a") (i 2) (i 22) ] [];
          if_ (v "x" &: i 1 =: i 1) [ set (v "a") (i 3) (i 33) ] [];
          (* a second input gates one more *)
          let_ "y" Input;
          if_ (v "y" >: i 2) [ set (v "a") (i 4) (i 44) ] [];
          let_ "s" (i 0);
          for_ "j" (i 0) (i 16) [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
          print_ (v "s");
          free_ (v "a");
          return_ (i 0);
        ];
    ]

let gated = Minic.Codegen.compile gated_program

let profile_suite ?(budget = 300) ?(seed = 7) ?(seeds = [ [ 0 ] ]) bin =
  with_engine @@ fun eng ->
  Campaign.profile_suite eng
    ~config:{ Campaign.default_config with budget; seed }
    ~seeds bin

(* check sites a suite executes on the profiling build *)
let sites_covered suite bin =
  let prof = (Redfat.harden ~opts:Rw.profiling_build bin).binary in
  List.concat_map (fun inputs -> (Campaign.execute prof inputs).x_sites) suite
  |> List.sort_uniq compare |> List.length

let test_profile_suite_deterministic () =
  let a = profile_suite gated and b = profile_suite gated in
  Alcotest.(check (list (list int))) "same seed, same suite" a b

let test_profile_suite_beats_seed_coverage () =
  let seeds_only = profile_suite ~budget:1 gated in
  let grown = profile_suite gated in
  let before = sites_covered seeds_only gated
  and after = sites_covered grown gated in
  Alcotest.(check bool)
    (Printf.sprintf "coverage grew (%d -> %d sites)" before after)
    true (after > before);
  Alcotest.(check bool) "suite grew" true
    (List.length grown > List.length seeds_only)

let test_profile_suite_grows_allowlist () =
  let naive = Redfat.profile ~test_suite:[ [ 0 ] ] gated in
  let grown = Redfat.profile ~test_suite:(profile_suite gated) gated in
  Alcotest.(check bool)
    (Printf.sprintf "allow-list grew (%d -> %d)" (List.length naive)
       (List.length grown))
    true
    (List.length grown > List.length naive)

let test_profile_suite_production_clean () =
  let test_suite = profile_suite ~budget:200 ~seed:3 gated in
  let hard = Redfat.profile_and_harden ~test_suite gated in
  List.iter
    (fun inputs ->
      match (Redfat.run_hardened ~inputs hard.binary).verdict with
      | Redfat.Finished 0 -> ()
      | v ->
        Alcotest.failf "inputs %s: %s"
          (String.concat "," (List.map string_of_int inputs))
          (Redfat.verdict_to_string v))
    [ [ 0; 0 ]; [ 5; 3 ]; [ 100; 9 ]; [ 61; 1 ] ]

(* input-dependent phases: the program of examples/fuzzing_profiler.ml,
   whose numbers EXPERIMENTS.md quotes *)
let phases_program =
  let open Minic.Build in
  Minic.Ast.program
    [
      Minic.Ast.func ~name:"main"
        [
          let_ "a" (alloc_elems (i 32));
          let_ "mode" Input;
          let_ "x" Input;
          for_ "j" (i 0) (i 8) [ set (v "a") (v "j") (v "j") ];
          if_ (v "mode" >: i 0)
            [ for_ "j" (i 8) (i 16) [ set (v "a") (v "j") (v "j" *: i 2) ] ]
            [];
          if_ (v "mode" >: i 3)
            [ for_ "j" (i 16) (i 24) [ set (v "a") (v "j") (v "j" *: i 3) ] ]
            [];
          if_
            (v "x" &: i 1 =: i 1)
            [ for_ "j" (i 24) (i 32) [ set (v "a") (v "j") (v "j" *: i 5) ] ]
            [];
          let_ "s" (i 0);
          for_ "j" (i 0) (i 32) [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
          print_ (v "s");
          free_ (v "a");
          return_ (i 0);
        ];
    ]

let test_profile_suite_experiments_numbers () =
  let bin = Minic.Codegen.compile phases_program in
  let coverage allow =
    let hard =
      Redfat.harden ~opts:(Rw.production ~allowlist:allow) bin
    in
    Redfat.Runtime.coverage_percent
      (Redfat.run_hardened ~inputs:[ 5; 7 ] hard.binary).rt
  in
  let naive = Redfat.profile ~test_suite:[ [ 0; 0 ] ] bin in
  let grown =
    Redfat.profile
      ~test_suite:(profile_suite ~budget:400 ~seed:11 ~seeds:[ [ 0; 0 ] ] bin)
      bin
  in
  Alcotest.(check int) "naive allow-list" 2 (List.length naive);
  Alcotest.(check int) "campaign allow-list" 5 (List.length grown);
  Alcotest.(check string) "naive coverage" "62.5"
    (Printf.sprintf "%.1f" (coverage naive));
  Alcotest.(check string) "campaign coverage" "100.0"
    (Printf.sprintf "%.1f" (coverage grown))

(* --- the parser campaigns and the corrupt corpus --------------------- *)

let test_corrupt_corpus_classified () =
  let fixtures = Corrupt_corpus.load () in
  Alcotest.(check bool) "corpus has fixtures" true (List.length fixtures >= 10);
  List.iter
    (fun (name, bytes) ->
      let res = Campaign.parse_once Campaign.Relf_parser bytes in
      match res.Campaign.x_crash with
      | Some c ->
        Alcotest.(check bool)
          (name ^ " rejected with a typed parse fault, got " ^ c.c_code)
          true
          (String.length c.Fuzz.Oracle.c_code > 6
          && String.sub c.Fuzz.Oracle.c_code 0 6 = "parse.")
      | None -> Alcotest.fail (name ^ ": corrupt fixture parsed cleanly"))
    (Corrupt_corpus.relf ());
  List.iter
    (fun (name, bytes) ->
      let res = Campaign.parse_once Campaign.Minic_parser bytes in
      match res.Campaign.x_crash with
      | Some c ->
        Alcotest.(check string)
          (name ^ " rejected by the MiniC parser")
          "parse.source" c.Fuzz.Oracle.c_code
      | None -> Alcotest.fail (name ^ ": corrupt fixture parsed cleanly"))
    (Corrupt_corpus.minic ())

let test_parse_campaign_never_crashes_parser () =
  with_engine @@ fun eng ->
  let seeds = List.map snd (Corrupt_corpus.relf ()) in
  let r = Campaign.run_parse eng ~config ~which:Campaign.Relf_parser ~seeds () in
  Alcotest.(check bool) "finds at least one rejection class" true
    (r.r_bugs <> []);
  List.iter
    (fun (b : Campaign.bug) ->
      Alcotest.(check bool)
        ("typed rejection, not a parser crash: " ^ b.b_code)
        true
        (String.length b.b_code > 6 && String.sub b.b_code 0 6 = "parse."))
    r.r_bugs

let tests =
  [
    Alcotest.test_case "same seed, same report" `Quick
      test_same_seed_same_report;
    Alcotest.test_case "--jobs does not change the report" `Slow
      test_jobs_do_not_change_report;
    Alcotest.test_case "different seeds, same bug set" `Quick
      test_seed_changes_report;
    Alcotest.test_case "crashes dedup by (code, site)" `Quick
      test_dedup_by_code_and_site;
    Alcotest.test_case "hang dedups to run.timeout" `Quick test_hang_oracle;
    Alcotest.test_case "every backend detects the planted write" `Slow
      test_backends_disagree_on_classification;
    Alcotest.test_case "minimized inputs still crash" `Quick
      test_minimized_input_still_crashes;
    Alcotest.test_case "minimize_inputs shrinks to the boundary" `Quick
      test_minimize_inputs_properties;
    Alcotest.test_case "minimize_bytes keeps the witness prefix" `Quick
      test_minimize_bytes_properties;
    Alcotest.test_case "corpus keeps only new coverage" `Quick
      test_corpus_keeps_only_new_coverage;
    Alcotest.test_case "scheduler favors frontier openers" `Quick
      test_scheduler_favors_new_edges;
    Alcotest.test_case "profile suite deterministic" `Quick
      test_profile_suite_deterministic;
    Alcotest.test_case "profile suite beats seed coverage" `Quick
      test_profile_suite_beats_seed_coverage;
    Alcotest.test_case "profile suite grows allow-list" `Quick
      test_profile_suite_grows_allowlist;
    Alcotest.test_case "profile suite production clean" `Quick
      test_profile_suite_production_clean;
    Alcotest.test_case "profile suite EXPERIMENTS numbers" `Quick
      test_profile_suite_experiments_numbers;
    Alcotest.test_case "corrupt corpus all classified" `Quick
      test_corrupt_corpus_classified;
    Alcotest.test_case "parser campaign stays typed" `Quick
      test_parse_campaign_never_crashes_parser;
  ]
