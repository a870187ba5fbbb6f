(* Workload fuzz-short: coverage-guided campaigns with the hardening
   checks as the oracle — the five input-gated seeded bugs under every
   backend, plus the RELF and MiniC parser campaigns.  One operation is
   one execution, minimization included.  [bug:hang] is left out: its
   timeouts spend the step budget interpreting, which table1-ref
   already measures. *)

module Pl = Engine.Pipeline
module Rw = Redfat.Rewrite
module C = Fuzz.Campaign

let budget = 400

type target = {
  t_name : string;
  t_hard : Binfmt.Relf.t;
  t_expect : Fuzz.Oracle.crash;  (** the planted bug, from its attack input *)
  t_checks : int;
  t_overhead : float;  (** hardened / baseline cycles on the benign input *)
}

type campaign = {
  c_name : string;
  c_run : Pl.t -> C.report;  (** the campaign through the engine *)
  c_replay : Obs.t -> summary;  (** the same campaign from public parts *)
  c_check : C.report -> string option;
  c_target : target option;
}

(* what two runs of one campaign must agree on *)
and summary = {
  s_execs : int;
  s_crashes : int;
  s_edges : int;
  s_sites : int;
  s_corpus : int;
  s_min_execs : int;
  s_bugs : (string * int * int * int * string * string) list;
      (** code, site, count, first exec, input, minimized input *)
}

let summary_of_report (r : C.report) =
  {
    s_execs = r.r_execs;
    s_crashes = r.r_crashes;
    s_edges = r.r_cov_edges;
    s_sites = r.r_cov_sites;
    s_corpus = r.r_corpus;
    s_min_execs = r.r_min_execs;
    s_bugs =
      List.map
        (fun (b : C.bug) ->
          (b.b_code, b.b_site, b.b_count, b.b_first_exec, b.b_input, b.b_min_input))
        r.r_bugs;
  }

(* --- the campaign loop, replayed from its public parts ------------------ *)

let render_inputs l = String.concat "," (List.map string_of_int l)

let render_bytes s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      if c >= ' ' && c <= '~' && c <> '\\' && c <> '"' then Buffer.add_char b c
      else Buffer.add_string b (Printf.sprintf "\\x%02x" (Char.code c)))
    s;
  let s = Buffer.contents b in
  if String.length s <= 64 then s else String.sub s 0 61 ^ "..."

(* the campaign's constant batch size (part of its input stream) *)
let batch_size = 16

(* [Campaign.run_exec]/[run_parse]'s loop: seeds, then batches of
   sixteen drawn from the pending deterministic stages or the corpus
   lottery, executed before their results are processed; then each
   bug's first input minimized.  Every execution is a [fuzz.execute]
   span inside the [fuzz.campaign] span. *)
let replay_loop tr (config : C.config) ~seeds ~run_one ~det ~havoc ~empty
    ~render ~minimize =
  Layers.span tr "fuzz.campaign" @@ fun () ->
  let run_one i = Layers.span tr "fuzz.execute" (fun () -> run_one i) in
  let rng = Fuzz.Mutate.Rng.create config.seed in
  let corpus = Fuzz.Corpus.create () in
  let pending = Queue.create () in
  let bugs = ref [] and raw = Hashtbl.create 16 in
  let execs = ref 0 and crashes = ref 0 in
  let process (input, (res : C.exec_result)) =
    incr execs;
    if Fuzz.Corpus.add corpus ~input ~edges:res.x_edges ~sites:res.x_sites then
      List.iter (fun m -> Queue.add m pending) (det input);
    match res.x_crash with
    | None -> ()
    | Some (c : Fuzz.Oracle.crash) -> (
      incr crashes;
      match List.find_opt (fun (code, site, _, _, _) -> code = c.c_code && site = c.c_site) !bugs with
      | Some (_, _, count, _, _) -> incr count
      | None ->
        Hashtbl.replace raw (c.c_code, c.c_site) input;
        bugs := (c.c_code, c.c_site, ref 1, !execs, input) :: !bugs)
  in
  let run_batch batch = List.iter process (List.map (fun i -> (i, run_one i)) batch) in
  run_batch (List.filteri (fun i _ -> i < config.budget) seeds);
  while !execs < config.budget do
    let want = min batch_size (config.budget - !execs) in
    run_batch
      (List.init want (fun _ ->
           if not (Queue.is_empty pending) then Queue.pop pending
           else
             match Fuzz.Corpus.schedule corpus rng with
             | Some parent -> havoc rng parent
             | None -> havoc rng empty))
  done;
  (* minimization: oldest bug first *)
  let min_execs = ref 0 in
  let s_bugs =
    List.map
      (fun (code, site, count, first, input) ->
        let still cand =
          incr min_execs;
          match (run_one cand).C.x_crash with
          | Some c -> c.c_code = code && c.c_site = site
          | None -> false
        in
        let min_input = minimize still (Hashtbl.find raw (code, site)) in
        (code, site, !count, first, render input, render min_input))
      (List.rev !bugs)
  in
  {
    s_execs = !execs;
    s_crashes = !crashes;
    s_edges = Fuzz.Corpus.n_edges corpus;
    s_sites = Fuzz.Corpus.n_sites corpus;
    s_corpus = Fuzz.Corpus.size corpus;
    s_min_execs = !min_execs;
    s_bugs;
  }

(* [Campaign.execute]: the hardened VM from its public parts, the
   campaign's AFL edge hashing over consecutive check sites, and its
   crash triage *)
let execute tr ~max_steps (bin : Binfmt.Relf.t) inputs : C.exec_result =
  let cpu, _, vmrt = Layers.prepare_hardened tr ~max_steps ~inputs bin in
  let edges = Hashtbl.create 64 and sites = Hashtbl.create 64 in
  let prev = ref 0 in
  (match cpu.on_check with
  | None -> ()
  | Some inner ->
    cpu.on_check <-
      Some
        (fun c (ck : X64.Isa.check) ->
          let s = ck.ck_site in
          Hashtbl.replace sites s ();
          Hashtbl.replace edges (((!prev lsr 1) lxor s) land (Fuzz.E9afl.map_size - 1)) ();
          prev := s;
          inner c ck));
  let crash code site detail =
    Some { Fuzz.Oracle.c_code = code; c_site = site; c_detail = detail }
  in
  let x_crash =
    Layers.span tr "vm.exec.hard" @@ fun () ->
    match Vm.Cpu.run cpu vmrt ~entry:bin.entry with
    | (_ : int) -> None
    | exception Redfat.Runtime.Memory_error e -> Some (Fuzz.Oracle.of_error e)
    | exception Vm.Cpu.Timeout n ->
      crash "run.timeout" 0 (Printf.sprintf "no exit after %d steps" n)
    | exception Vm.Mem.Segfault a ->
      crash "run.fault" cpu.rip (Printf.sprintf "segfault at %#x" a)
    | exception Vm.Cpu.Div_by_zero a -> crash "run.fault" a "division by zero"
    | exception Vm.Cpu.Invalid_opcode a -> crash "run.fault" a "invalid opcode"
    | exception Redfat.Runtime.Bad_free p ->
      crash "detect.bad-free" cpu.rip
        (Printf.sprintf "allocator abort: invalid free of %#x" p)
    | exception Lowfat.Alloc.Double_free p ->
      crash "detect.bad-free" cpu.rip
        (Printf.sprintf "allocator abort: double free of %#x" p)
    | exception Lowfat.Alloc.Invalid_free p ->
      crash "detect.bad-free" cpu.rip
        (Printf.sprintf "allocator abort: invalid free of %#x" p)
  in
  Layers.count tr "vm.exec.hard.steps" cpu.steps;
  let keys h = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) h []) in
  { C.x_edges = keys edges; x_sites = keys sites; x_crash; x_cycles = cpu.cycles }

(* [Campaign.parse_once Relf_parser], with the RELF parser as its own
   layer *)
let parse_relf tr bytes : C.exec_result =
  let crash code detail = Some { Fuzz.Oracle.c_code = code; c_site = 0; c_detail = detail } in
  let x_crash =
    match Layers.parse tr bytes with
    | bin -> (
      match Binfmt.Relf.find_section bin ".text" with
      | Some s when String.length s.bytes > 0 -> None
      | _ -> crash "parse.nocode" "no (or empty) .text section")
    | exception Binfmt.Relf.Parse_error msg ->
      crash (Engine.Fault.code (Engine.Fault.of_exn (Binfmt.Relf.Parse_error msg))) msg
    | exception e -> crash "run.fault" ("parser crash: " ^ Printexc.to_string e)
  in
  let signature =
    match x_crash with
    | Some c -> Hashtbl.hash ("outcome", c.c_code, c.c_site)
    | None -> Hashtbl.hash ("ok", String.length bytes / 8)
  in
  { C.x_edges = [ signature ]; x_sites = []; x_crash; x_cycles = 0 }

(* --- set-up: the campaign list ------------------------------------------ *)

let cases =
  List.filter (fun (c : Workloads.Fuzzbugs.case) -> c.id <> "hang")
    Workloads.Fuzzbugs.all

let finds_planted (t : target) (r : C.report) =
  if
    List.exists
      (fun (b : C.bug) -> b.b_code = t.t_expect.c_code && b.b_site = t.t_expect.c_site)
      r.r_bugs
  then None
  else
    Some
      (Printf.sprintf "%s: planted bug %s at %#x not found" t.t_name
         t.t_expect.c_code t.t_expect.c_site)

let no_parser_crash name (r : C.report) =
  match List.find_opt (fun (b : C.bug) -> b.b_code = "run.fault") r.r_bugs with
  | None -> None
  | Some b -> Some (Printf.sprintf "%s parser crashed: %s" name b.b_detail)

(* Compile and harden every case under every backend, find each planted
   bug's oracle verdict from its attack input, and measure the benign
   input's cycle overhead. *)
let campaigns eng ~seed =
  let config = { C.default_config with budget; seed } in
  let exec_campaign backend (c : Workloads.Fuzzbugs.case) =
    let bin = Pl.compile eng c.program in
    let hard = Pl.harden eng ~opts:{ Rw.optimized with Rw.backend } bin in
    let name = Printf.sprintf "bug:%s/%s" c.id (Backend.Check_backend.name backend) in
    let t_expect =
      match (C.execute hard.binary c.attack).x_crash with
      | Some crash -> crash
      | None -> failwith (name ^ ": the attack input does not trip the bug")
    in
    let base, bv = Pl.run_baseline eng ~inputs:c.benign bin in
    let hr = Pl.run_hardened eng ~inputs:c.benign hard.binary in
    (match (bv, hr.verdict) with
    | Redfat.Finished _, Redfat.Finished _ -> ()
    | _ -> failwith (name ^ ": the benign input does not run clean"));
    let t =
      {
        t_name = name;
        t_hard = hard.binary;
        t_expect;
        t_checks = hard.stats.Rw.checks_emitted;
        t_overhead = float hr.run.cycles /. float base.cycles;
      }
    in
    {
      c_name = name;
      c_run = (fun eng -> C.run_exec eng ~config ~target:("bug:" ^ c.id) t.t_hard);
      c_replay =
        (fun tr ->
          replay_loop tr config ~seeds:[ []; [ 0 ] ]
            ~run_one:(execute tr ~max_steps:config.max_steps t.t_hard)
            ~det:Fuzz.Mutate.deterministic_stage ~havoc:Fuzz.Mutate.havoc ~empty:[]
            ~render:render_inputs ~minimize:C.minimize_inputs);
      c_check = finds_planted t;
      c_target = Some t;
    }
  in
  let parser_campaign which ~seeds ~run_one =
    let name = "parse:" ^ C.parser_name which in
    {
      c_name = name;
      c_run = (fun eng -> C.run_parse eng ~config ~which ~seeds ());
      c_replay =
        (fun tr ->
          replay_loop tr config ~seeds ~run_one:(run_one tr)
            ~det:Fuzz.Mutate.deterministic_stage_bytes ~havoc:Fuzz.Mutate.havoc_bytes
            ~empty:"" ~render:render_bytes ~minimize:C.minimize_bytes);
      c_check = no_parser_crash name;
      c_target = None;
    }
  in
  let relf_seed =
    Binfmt.Relf.serialize (Pl.compile eng (Workloads.Fuzzbugs.find "oob-write").program)
  in
  List.concat_map (fun b -> List.map (exec_campaign b) cases) Backend.Check_backend.all
  @ [
      parser_campaign C.Relf_parser ~seeds:[ relf_seed; "" ] ~run_one:parse_relf;
      parser_campaign C.Minic_parser
        ~seeds:[ "func main() { let x = input(); print(x); return 0; }"; "" ]
        ~run_one:(fun _ -> C.parse_once C.Minic_parser);
    ]

(* --- the workload -------------------------------------------------------- *)

let ops (r : C.report) = r.r_execs + r.r_min_execs

let run ~seed ~seconds ~trace : Util.outcome =
  let calib = Util.calib_ns () in
  let (eng, cs), setup_s =
    Util.repeated_setup ~reps:7
      ~setup:(fun () ->
        Rewriter.Blueprint.reset ();
        let eng = Pl.create ~jobs:1 ~cache:false () in
        (eng, campaigns eng ~seed))
      ~teardown:(fun (e, _) -> Pl.close e)
  in
  let targets = List.filter_map (fun c -> c.c_target) cs in
  (* timed phase: whole passes over the campaigns until [seconds] is up;
     the seed is the same every pass, so every pass must report the same *)
  let first = Hashtbl.create 32 in
  let times = Hashtbl.create 32 and attempted = ref 0 and failed = ref 0 in
  let t0 = Util.now () in
  let pass_s = ref [] in
  while !attempted = 0 || Util.now () -. t0 < seconds do
    let t_pass = Util.now () in
    List.iter
      (fun c ->
        match Util.timed (fun () -> c.c_run eng) with
        | r, dt ->
          let n = ops r in
          attempted := !attempted + n;
          Util.record_time times c.c_name dt;
          let err =
            match (c.c_check r, Hashtbl.find_opt first c.c_name) with
            | Some e, _ -> Some e
            | None, None ->
              Hashtbl.replace first c.c_name r;
              None
            | None, Some r0 when summary_of_report r0 = summary_of_report r -> None
            | None, Some _ -> Some (c.c_name ^ ": report differs from the first pass")
          in
          Option.iter
            (fun e ->
              (* a wrong campaign wastes every execution it made *)
              failed := !failed + n;
              Util.complain "fuzz-short: %s" e)
            err
        | exception e ->
          attempted := !attempted + 1;
          incr failed;
          Util.complain "fuzz-short: %s: %s" c.c_name (Printexc.to_string e))
      cs;
    pass_s := (Util.now () -. t_pass) :: !pass_s
  done;
  let elapsed = Util.now () -. t0 in
  let peak = Util.peak_rss_mb () in
  let reports = List.filter_map (fun c -> Hashtbl.find_opt first c.c_name) cs in
  let total f = Util.sum_i (List.map f reports) in
  let unique_bugs = total (fun r -> List.length r.C.r_bugs) in
  let ov = Util.geomean (List.map (fun t -> t.t_overhead) targets) in
  let checks = Util.sum_i (List.map (fun t -> t.t_checks) targets) in
  (* each campaign's mean time over the passes; every pass makes the
     same executions *)
  let camp_s =
    List.filter_map
      (fun c ->
        match (Util.mean_time times c.c_name, Hashtbl.find_opt first c.c_name) with
        | Some t, Some r -> Some (t, ops r)
        | _ -> None)
      cs
  in
  let lat_us = List.map (fun (t, n) -> t *. 1e6 /. float (max 1 n)) camp_s in
  let fail_pm = Util.permille !failed !attempted in
  let notes =
    [
      Printf.sprintf
        "fuzz-short: %d executions (%d campaigns, budget %d) in %.2fs, %d \
         failed (fail_permille %.1f); exec latency p50 %.1fus p99 %.1fus \
         over %d per-campaign means; setup %.4fs; peak rss %.1f MiB; host \
         calib %.2f ns"
        !attempted (List.length cs) budget elapsed !failed fail_pm
        (Util.median lat_us) (Util.percentile lat_us 99.0) (List.length lat_us)
        setup_s peak calib;
      Printf.sprintf
        "fuzz-short: %d unique bugs (deterministic per seed), benign-input \
         overhead %.4fx, checks emitted %d (independent of the seed)"
        unique_bugs ov checks;
      "fuzz-short: pass wall times "
      ^ String.concat " " (List.rev_map (Printf.sprintf "%.2fs") !pass_s);
    ]
  in
  if not trace then
    {
      Util.attempted = !attempted;
      failed = !failed;
      notes;
      metrics =
        Util.end_to_end
          ~ops_per_s:
            (float (Util.sum_i (List.map snd camp_s)) /. Util.sum_f (List.map fst camp_s))
          ~p50_us:(Util.median lat_us) ~p99_us:(Util.percentile lat_us 99.0)
          ~setup_s ~peak_rss_mb:peak ~overhead_x:ov ~checks;
    }
  else begin
    (* traced replay of one pass, campaign by campaign beside the
       untraced campaign *)
    let tr = Obs.create () in
    let untraced = ref 0.0 and traced = ref 0.0 and rfailed = ref 0 in
    List.iter
      (fun c ->
        match
          let r, du = Util.timed (fun () -> c.c_run eng) in
          let s, dt = Util.timed (fun () -> c.c_replay tr) in
          untraced := !untraced +. du;
          traced := !traced +. dt;
          Option.iter (fun t -> Layers.sweep tr t.t_hard) c.c_target;
          summary_of_report r = s
        with
        | true -> ()
        | false ->
          incr rfailed;
          Util.complain "fuzz-short: traced replay of %s differs" c.c_name
        | exception e ->
          incr rfailed;
          Util.complain "fuzz-short: traced replay of %s: %s" c.c_name
            (Printexc.to_string e))
      cs;
    Layers.write_chrome tr ~file:(Printf.sprintf "_perfbench/fuzz-short-%d.trace.json" seed);
    {
      Util.attempted = !attempted + List.length cs;
      failed = !failed + !rfailed;
      notes;
      metrics =
        Layers.metrics tr
        @ Layers.engine_metrics eng
        @ Layers.extras ~calib
            ~overhead:(Util.permille_f (!traced -. !untraced) !untraced)
            ~fail_permille:fail_pm ~unique_bugs
            ~useful_permille:(Util.permille (total (fun r -> r.C.r_corpus)) (total (fun r -> r.C.r_execs)))
            ~min_permille:(Util.permille (total (fun r -> r.C.r_min_execs)) (total (fun r -> r.C.r_execs)))
            ();
    }
  end
