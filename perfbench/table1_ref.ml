(* Workload table1-ref: the paper's Table 1 as users run it, one SPEC-
   shaped kernel row per operation, artifact cache off.  A row compiles
   the kernel, profiles it on its train input, hardens it under the
   seven Table-1 configurations and runs baseline, every hardened
   build and Memcheck on the ref input. *)

module Pl = Engine.Pipeline
module Rw = Redfat.Rewrite
module Rt = Redfat.Runtime

let log_opts = { Rt.default_options with mode = Rt.Log }

(* (column, rewriter options, runtime options), as in bench table1 *)
let configs =
  [
    ("unopt", Rw.unoptimized, log_opts);
    ("elim", Rw.with_elim, log_opts);
    ("batch", Rw.with_batch, log_opts);
    ("merge", Rw.optimized, log_opts);
    ("nosize", Rw.optimized, { log_opts with size_harden = false });
    ("hoist", Rw.with_hoist, { log_opts with size_harden = false });
    ( "noreads",
      { Rw.optimized with instrument_reads = false },
      { log_opts with size_harden = false; check_reads = false } );
  ]

type kernel = {
  k_name : string;
  k_prog : Minic.Ast.program;
  k_train : int list;
  k_ref : int list;
}

type run = Redfat.run_result * Redfat.verdict

(* everything a row produced that a later pass or the traced replay
   must reproduce *)
type row = {
  r_base : run;
  r_allow : int list;
  r_hard : (string * run * int) list;  (** column, run, checks emitted *)
  r_mc : run;
}

let finished = function Redfat.Finished _ -> true | _ -> false

(* The row's output checks: the baseline and Memcheck finish, and every
   hardened build finishes with the baseline's outputs.  Memcheck's
   outputs may differ: its redzone allocator changes what the kernels'
   planted out-of-bounds reads return. *)
let check_row (k : kernel) (r : row) =
  let base, _ = r.r_base in
  let bad ?(outputs = true) what ((run : Redfat.run_result), v) =
    if finished v && ((not outputs) || run.outputs = base.outputs) then None
    else
      Some
        (Printf.sprintf "%s %s: %s%s" k.k_name what (Redfat.verdict_to_string v)
           (if finished v then ", outputs differ from the baseline" else ""))
  in
  List.filter_map Fun.id
    (bad "baseline" r.r_base
    :: bad ~outputs:false "memcheck" r.r_mc
    :: List.map (fun (col, run, _) -> bad col run) r.r_hard)

(* One row through the engine, as bench table1 runs it.  Every row,
   traced or not, starts from an empty blueprint table: a later pass
   would otherwise find every plan built and skip the rewriter's
   analyses (graph recovery, dataflow, hoisting), which a cold
   [bench table1 --no-cache] pays.  Rows never share plans, not even
   between kernels of one pass. *)
let row eng (k : kernel) : row =
  Rewriter.Blueprint.reset ();
  let bin = Pl.compile eng k.k_prog in
  let r_base = Pl.run_baseline eng ~inputs:k.k_ref bin in
  let allow = Pl.profile eng ~test_suite:[ k.k_train ] bin in
  let r_hard =
    List.map
      (fun (col, opts, rt) ->
        let hard = Pl.harden eng ~opts:{ opts with Rw.allowlist = Some allow } bin in
        let hr = Pl.run_hardened eng ~options:rt ~inputs:k.k_ref hard.binary in
        (col, (hr.run, hr.verdict), hard.stats.Rw.checks_emitted))
      configs
  in
  let mc, mv, _ = Pl.run_memcheck eng ~inputs:k.k_ref bin in
  { r_base; r_allow = allow; r_hard; r_mc = (mc, mv) }

(* the same row from the layers' public parts, one span per layer call *)
let traced_row tr (k : kernel) : row =
  Rewriter.Blueprint.reset ();
  let bin = Layers.compile tr k.k_prog in
  Layers.sweep tr bin;
  let r_base = Layers.run_baseline tr ~inputs:k.k_ref bin in
  let allow = Layers.profile tr ~test_suite:[ k.k_train ] bin in
  let r_hard =
    List.map
      (fun (col, opts, rt) ->
        let hard = Layers.rewrite tr { opts with Rw.allowlist = Some allow } bin in
        let hr = Layers.run_hardened tr ~options:rt ~inputs:k.k_ref hard.binary in
        (col, (hr.run, hr.verdict), hard.stats.Rw.checks_emitted))
      configs
  in
  let r_mc = Layers.run_memcheck tr ~inputs:k.k_ref bin in
  { r_base; r_allow = allow; r_hard; r_mc }

let same_row a b =
  Layers.same_run a.r_base b.r_base
  && a.r_allow = b.r_allow
  && Layers.same_run a.r_mc b.r_mc
  && List.for_all2
       (fun (c1, r1, n1) (c2, r2, n2) -> c1 = c2 && n1 = n2 && Layers.same_run r1 r2)
       a.r_hard b.r_hard

let cycles ((r : Redfat.run_result), _) = float r.cycles

let kernels ~seed =
  Util.shuffle (Util.rng ~seed ~stream:1)
    (List.map
       (fun (b : Workloads.Spec.bench) ->
         {
           k_name = b.name;
           k_prog = Workloads.Spec.program b;
           k_train = Workloads.Spec.train_inputs b;
           k_ref = Workloads.Spec.ref_inputs b;
         })
       Workloads.Spec.all)

let run ~seed ~seconds ~trace : Util.outcome =
  let calib = Util.calib_ns () in
  (* set-up: a cold engine (one worker domain, no artifact cache) and
     the seed's kernel order.  The first one is what the timed phase
     uses; more are timed between rows, so that set-up is sampled
     across the whole run. *)
  let setup () = (Pl.create ~jobs:1 ~cache:false (), kernels ~seed) in
  let teardown (e, _) = Pl.close e in
  let (eng, ks), setup0 = Util.timed setup in
  let setups = ref [ setup0 ] in
  (* timed phase: rows in the seed's kernel order, round and round,
     until every kernel has run once and [seconds] is up *)
  let kernels = Array.of_list ks in
  let nk = Array.length kernels in
  let first = Hashtbl.create 32 in
  let times = Hashtbl.create 32 and failed = ref 0 and attempted = ref 0 in
  let t0 = Util.now () in
  while !attempted < nk || Util.now () -. t0 < seconds do
    let k = kernels.(!attempted mod nk) in
    incr attempted;
    (match Util.timed (fun () -> row eng k) with
    | r, dt ->
      Util.record_time times k.k_name dt;
      let errs = check_row k r in
      let errs =
        match Hashtbl.find_opt first k.k_name with
        | None ->
          Hashtbl.replace first k.k_name r;
          errs
        | Some r0 when same_row r0 r -> errs
        | Some _ -> (k.k_name ^ ": row differs from its first run") :: errs
      in
      if errs <> [] then begin
        incr failed;
        List.iter (Util.complain "table1-ref: %s") errs
      end
    | exception e ->
      incr failed;
      Util.complain "table1-ref: %s: %s" k.k_name (Printexc.to_string e));
    Util.sample_setup ~reps:10 ~setup ~teardown setups
  done;
  let elapsed = Util.now () -. t0 in
  let setup_s = Util.median !setups in
  let peak = Util.peak_rss_mb () in
  let rows = List.filter_map (fun k -> Hashtbl.find_opt first k.k_name) ks in
  let ratio f = Util.geomean (List.map (fun r -> f r /. cycles r.r_base) rows) in
  let merge r = List.find (fun (c, _, _) -> c = "merge") r.r_hard in
  let ov = ratio (fun r -> let _, run, _ = merge r in cycles run) in
  let mc_ov = ratio (fun r -> cycles r.r_mc) in
  let checks = Util.sum_i (List.map (fun r -> let _, _, n = merge r in n) rows) in
  (* each kernel's mean row time over the run *)
  let row_s = List.filter_map (fun k -> Util.mean_time times k.k_name) ks in
  let lat_us = List.map (fun x -> x *. 1e6) row_s in
  let fail_pm = Util.permille !failed !attempted in
  let notes =
    [
      Printf.sprintf
        "table1-ref: %d rows (%d kernels, %d to %d rows each) in %.2fs, %d \
         failed (fail_permille %.1f); row latency p50 %.0fus p99 %.0fus over \
         %d per-kernel means; setup %.6fs (median of %d); peak rss %.1f MiB; \
         host calib %.2f ns"
        !attempted nk (!attempted / nk)
        ((!attempted + nk - 1) / nk)
        elapsed !failed fail_pm (Util.median lat_us)
        (Util.percentile lat_us 99.0) (List.length lat_us) setup_s
        (List.length !setups) peak calib;
      Printf.sprintf
        "table1-ref: optimized overhead %.4fx, Memcheck %.4fx, checks emitted \
         %d (independent of the seed)"
        ov mc_ov checks;
    ]
  in
  if not trace then
    {
      Util.attempted = !attempted;
      failed = !failed;
      notes;
      metrics =
        Util.end_to_end
          ~ops_per_s:(float (List.length row_s) /. Util.sum_f row_s)
          ~p50_us:(Util.median lat_us) ~p99_us:(Util.percentile lat_us 99.0)
          ~setup_s ~peak_rss_mb:peak ~overhead_x:ov ~checks;
    }
  else begin
    (* traced replay of one pass, row by row beside the untraced row *)
    let tr = Obs.create () in
    let untraced = ref 0.0 and traced = ref 0.0 and rfailed = ref 0 in
    List.iter
      (fun k ->
        match
          let r, du = Util.timed (fun () -> row eng k) in
          let t, dt = Util.timed (fun () -> traced_row tr k) in
          untraced := !untraced +. du;
          traced := !traced +. dt;
          same_row r t
        with
        | true -> ()
        | false ->
          incr rfailed;
          Util.complain "table1-ref: traced replay of %s differs" k.k_name
        | exception e ->
          incr rfailed;
          Util.complain "table1-ref: traced replay of %s: %s" k.k_name
            (Printexc.to_string e))
      ks;
    Layers.write_chrome tr ~file:(Printf.sprintf "_perfbench/table1-ref-%d.trace.json" seed);
    {
      Util.attempted = !attempted + List.length ks;
      failed = !failed + !rfailed;
      notes;
      metrics =
        Layers.metrics tr
        @ Layers.engine_metrics eng
        @ Layers.extras ~calib
            ~overhead:(Util.permille_f (!traced -. !untraced) !untraced)
            ~fail_permille:fail_pm ~memcheck_overhead_x:mc_ov ();
    }
  end
