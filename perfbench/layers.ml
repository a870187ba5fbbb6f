(* The traced side of the benchmark.  Top-level calls such as
   [Pipeline.run_hardened], [Pipeline.run_memcheck] and a fuzz
   campaign's executions hide several layers, so the traced replay
   re-runs them from their public parts, with one span around each
   call into a layer, and the callers assert that the replay produced
   the same cycles, outputs and verdict.  Spans go to an in-memory
   [Obs] collector owned by the benchmark; [metrics] turns them into
   per-layer calls / self time / median latency. *)

module Rw = Redfat.Rewrite
module Rt = Redfat.Runtime

(* Every layer the benchmark reports, in report order.  A layer a
   workload does not reach reports zero calls. *)
let names =
  [
    "baselines.memcheck.setup"; "baselines.memcheck.exec"; "vm.prepare";
    "redfat_rt.setup"; "vm.exec.base"; "vm.exec.hard"; "x64.sweep";
    "minic.compile"; "profile"; "rewriter.rewrite"; "rewriter.shard";
    "dataflow.verify";
    "engine.cache"; "binfmt.parse"; "binfmt.serialize";
    "serve.handle.harden.hit"; "serve.handle.harden.miss";
    "serve.handle.verify"; "serve.handle.trace"; "fuzz.campaign";
    "fuzz.execute";
  ]

let span tr name f = Obs.span tr ~cat:"perfbench" name f

(* work counted at a layer boundary (steps interpreted, instructions
   decoded), kept beside the spans so per-unit costs are measured
   where the work happens *)
let count tr name n = Obs.add tr ~n name

(* --- running a binary from its public parts ----------------------------- *)

let collect (cpu : Vm.Cpu.t) exit_code : Redfat.run_result =
  {
    Redfat.exit_code;
    outputs = Vm.Cpu.outputs cpu;
    cycles = cpu.cycles;
    steps = cpu.steps;
    mem_reads = cpu.mem_reads;
    mem_writes = cpu.mem_writes;
  }

(* the verdict mapping of [Redfat.run_*] *)
let exec (cpu : Vm.Cpu.t) rt ~entry : Redfat.run_result * Redfat.verdict =
  let fault code msg = (collect cpu code, Redfat.Fault msg) in
  match Vm.Cpu.run cpu rt ~entry with
  | code -> (collect cpu code, Redfat.Finished code)
  | exception Rt.Memory_error e -> (collect cpu 134, Redfat.Detected e)
  | exception Vm.Mem.Segfault a -> fault 139 (Printf.sprintf "segfault at %#x" a)
  | exception Vm.Cpu.Div_by_zero a ->
    fault 136 (Printf.sprintf "division by zero at %#x" a)
  | exception Vm.Cpu.Invalid_opcode a ->
    fault 132 (Printf.sprintf "invalid opcode at %#x" a)
  | exception Vm.Cpu.Timeout n ->
    fault 124 (Printf.sprintf "timeout after %d steps" n)
  | exception Rt.Bad_free p -> fault 134 (Printf.sprintf "invalid free of %#x" p)
  | exception Lowfat.Alloc.Double_free p ->
    fault 134 (Printf.sprintf "double free of %#x" p)
  | exception Lowfat.Alloc.Invalid_free p ->
    fault 134 (Printf.sprintf "invalid free of %#x" p)

let timed_exec tr layer cpu rt ~entry =
  let r = span tr layer (fun () -> exec cpu rt ~entry) in
  count tr (layer ^ ".steps") cpu.Vm.Cpu.steps;
  r

(* [Redfat.run_baseline] *)
let run_baseline tr ?max_steps ~inputs (bin : Binfmt.Relf.t) =
  let cpu, alloc =
    span tr "vm.prepare" (fun () ->
        let cpu = Redfat.prepare ?max_steps bin in
        cpu.inputs <- inputs;
        (cpu, Baselines.Sysalloc.create cpu.mem))
  in
  timed_exec tr "vm.exec.base" cpu (Baselines.Sysalloc.vm_runtime alloc)
    ~entry:bin.entry

(* the VM and runtime of [Redfat.run_hardened], before it runs *)
let prepare_hardened tr ?(options = Rt.default_options) ?(profiling = false)
    ?max_steps ~inputs (bin : Binfmt.Relf.t) =
  let options = { options with Rt.backend = Redfat.backend_of_binary bin } in
  let cpu =
    span tr "vm.prepare" (fun () ->
        let cpu = Redfat.prepare ?max_steps bin in
        cpu.inputs <- inputs;
        List.iter
          (fun (a, t) -> Hashtbl.replace cpu.trap_table a t)
          (Rw.traps_of_binary bin);
        cpu)
  in
  let rt, vmrt =
    span tr "redfat_rt.setup" (fun () ->
        let rt = Rt.create ~options ~profiling cpu.mem in
        (rt, Rt.install rt cpu))
  in
  (cpu, rt, vmrt)

(* [Redfat.run_hardened] *)
let run_hardened tr ?options ?profiling ?max_steps ~inputs bin :
    Redfat.hardened_run =
  let cpu, rt, vmrt =
    prepare_hardened tr ?options ?profiling ?max_steps ~inputs bin
  in
  let run, verdict = timed_exec tr "vm.exec.hard" cpu vmrt ~entry:bin.entry in
  { Redfat.run; verdict; rt }

(* [Redfat.run_memcheck] *)
let run_memcheck tr ?max_steps ~inputs (bin : Binfmt.Relf.t) =
  let cpu, rt =
    span tr "baselines.memcheck.setup" (fun () ->
        let cpu = Vm.Cpu.create ?max_steps () in
        cpu.inputs <- inputs;
        let mc = Baselines.Memcheck.create cpu.mem in
        (cpu, Baselines.Memcheck.install mc cpu bin))
  in
  timed_exec tr "baselines.memcheck.exec" cpu rt ~entry:bin.entry

let rewrite tr ?tramp_base opts bin =
  span tr "rewriter.rewrite" (fun () -> Rw.rewrite ?tramp_base opts bin)

let compile tr prog = span tr "minic.compile" (fun () -> Minic.Codegen.compile prog)

(* [Redfat.profile_run]: one profiling run *)
let profile_run tr prof_binary inputs =
  let hr =
    run_hardened tr
      ~options:{ Rt.default_options with mode = Rt.Log }
      ~profiling:true ~inputs prof_binary
  in
  (Rt.allowlist hr.rt, Rt.lowfat_failing_sites hr.rt)

(* [Redfat.profile]: the profiling build, one run per suite entry, the
   merge *)
let profile tr ~test_suite bin =
  span tr "profile" (fun () ->
      let prof = rewrite tr Rw.profiling_build bin in
      List.map (profile_run tr prof.Rw.binary) test_suite |> Redfat.merge_profiles)

let verify tr bin = span tr "dataflow.verify" (fun () -> Rw.verify bin)

let serialize tr bin = span tr "binfmt.serialize" (fun () -> Binfmt.Relf.serialize bin)
let parse tr blob = span tr "binfmt.parse" (fun () -> Binfmt.Relf.parse blob)

(* Linear-sweep decode of a binary's .text: the work a fresh VM's
   instruction cache redoes on every run.  Patched text may not sweep
   linearly; such a binary is not counted. *)
let sweep tr (bin : Binfmt.Relf.t) =
  let text = Binfmt.Relf.text_exn bin in
  match
    span tr "x64.sweep" (fun () -> X64.Disasm.sweep ~addr:text.addr text.bytes)
  with
  | insns -> count tr "x64.sweep.insns" (List.length insns)
  | exception _ -> ()

let same_run (a : Redfat.run_result * Redfat.verdict)
    (b : Redfat.run_result * Redfat.verdict) =
  fst a = fst b
  && Redfat.verdict_to_string (snd a) = Redfat.verdict_to_string (snd b)

(* --- spans to per-layer metrics ----------------------------------------- *)

type agg = { mutable calls : int; mutable self : float; mutable durs : float list }

(* Self time is a span's duration minus its direct children's.  Spans
   of one domain never overlap at equal depth, so a span's parent is
   the latest earlier span one level up. *)
let aggregate (tr : Obs.t) =
  let tbl = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
      let a = { calls = 0; self = 0.0; durs = [] } in
      Hashtbl.replace tbl name a;
      a
  in
  let last = Hashtbl.create 8 (* (tid, depth) -> aggregate of open parent *) in
  List.iter
    (fun (s : Obs.span) ->
      let a = get s.sp_name in
      a.calls <- a.calls + 1;
      a.self <- a.self +. s.sp_dur;
      a.durs <- s.sp_dur :: a.durs;
      (match Hashtbl.find_opt last (s.sp_tid, s.sp_depth - 1) with
      | Some p when s.sp_depth > 0 -> p.self <- p.self -. s.sp_dur
      | _ -> ());
      Hashtbl.replace last (s.sp_tid, s.sp_depth) a)
    (Obs.spans tr);
  get

(* [calls], [self_s] and [p50_us] per layer, plus the per-unit costs
   measured at the execution and decode boundaries. *)
let metrics tr : Util.metric list =
  let get = aggregate tr in
  let per_unit layer unit_counter =
    let a = get layer in
    let n = Obs.counter tr unit_counter in
    if n = 0 then 0.0 else Util.sum_f a.durs *. 1e9 /. float n
  in
  List.concat_map
    (fun name ->
      let a = get name in
      [
        Util.m (name ^ ".calls") "count" (float a.calls);
        Util.m (name ^ ".self_s") "s" a.self;
        Util.m (name ^ ".p50_us") "us"
          (if a.calls = 0 then 0.0 else Util.median a.durs *. 1e6);
      ])
    names
  @ [
      Util.m "baselines.memcheck.exec.ns_per_step" "ns"
        (per_unit "baselines.memcheck.exec" "baselines.memcheck.exec.steps");
      Util.m "vm.exec.base.ns_per_step" "ns"
        (per_unit "vm.exec.base" "vm.exec.base.steps");
      Util.m "vm.exec.hard.ns_per_step" "ns"
        (per_unit "vm.exec.hard" "vm.exec.hard.steps");
      Util.m "x64.sweep.ns_per_insn" "ns" (per_unit "x64.sweep" "x64.sweep.insns");
    ]

(* Counters the engine already keeps, read after the untraced phase. *)
let engine_metrics (eng : Engine.Pipeline.t) : Util.metric list =
  let o = Engine.Pipeline.obs eng in
  let cs = Engine.Pipeline.cache_stats eng in
  let faults =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k > 6 && String.sub k 0 6 = "fault." then acc + v
        else acc)
      0 (Obs.counters o)
  in
  let bp_hit = Obs.counter o "blueprint.hit" in
  [
    Util.m "rewriter.blueprint.hit_permille" "permille"
      (Util.permille bp_hit (bp_hit + Obs.counter o "blueprint.miss"));
    Util.m "engine.cache.hit_permille" "permille"
      (Util.permille cs.Engine.Cache.hits (cs.hits + cs.misses));
    Util.m "engine.cache.retries" "count" (float cs.retries);
    Util.m "engine.faults" "count" (float faults);
  ]

(* The per-layer report's remaining entries: per-workload results and
   the layers only some workloads reach (zero elsewhere), the tracing
   overhead, and the host calibration loop. *)
let extras ~calib ~overhead ~fail_permille ?(memcheck_overhead_x = 0.0)
    ?(unique_bugs = 0) ?(hit_permille = 0.0) ?(transport_p50_us = 0.0)
    ?(lru_bytes = 0) ?(lru_evictions = 0) ?(useful_permille = 0.0)
    ?(min_permille = 0.0) () : Util.metric list =
  [
    Util.m "serve.transport.p50_us" "us" transport_p50_us;
    Util.m "serve.lru.bytes" "bytes" (float lru_bytes);
    Util.m "serve.lru.evictions" "count" (float lru_evictions);
    Util.m "fuzz.useful_permille" "permille" useful_permille;
    Util.m "fuzz.min_permille" "permille" min_permille;
    Util.m "obs.trace_overhead_permille" "permille" overhead;
    Util.m "host.calib_ns" "ns" calib;
    Util.m "result.fail_permille" "permille" fail_permille;
    Util.m "result.memcheck_overhead_x" "x" memcheck_overhead_x;
    Util.m "result.unique_bugs" "count" (float unique_bugs);
    Util.m "result.hit_permille" "permille" hit_permille;
  ]

(* Write the collector as Chrome trace-event JSON. *)
let write_chrome tr ~file =
  (try Sys.mkdir (Filename.dirname file) 0o755 with Sys_error _ -> ());
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Obs.to_chrome ~process_name:"perfbench" tr))
