(* Workload serve-mixed: a [redfat serve] daemon ([Server.listen] on a
   Unix socket, in this process) and one closed-loop client.  The cold
   phase hardens the fleet once and is set-up.  The timed phase sends
   Zipf(1.0) reads over the fleet (80/15/5 harden/verify/trace) and,
   in about one request in ten, a write: a harden of a never-seen
   [synth:<seed>] target.  One operation is one request round trip. *)

module Pl = Engine.Pipeline
module Rw = Redfat.Rewrite
module J = Obs.Json

(* hit_permille is taken over this many timed requests, and the traced
   replay replays them *)
let prefix = 2000

(* the timed phase never stops before this many requests; peak memory
   is read when it is reached, so every run has done the same work *)
let min_requests = 5000

let fleet () =
  List.map (fun (b : Workloads.Spec.bench) -> "spec:" ^ b.name) Workloads.Spec.all
  @ List.filter Sys.file_exists
      [ "examples/victim.mc"; "examples/interp.mc"; "examples/fortran_idiom.mc" ]

(* the checks a direct rewrite of the target emits, as the daemon
   hardens it: allow-list from the training suite, optimized options *)
let direct_checks target =
  let prog, train, _ = Serve.Targets.find_program target in
  let bin = Minic.Codegen.compile prog in
  let allow = Redfat.profile ~test_suite:train bin in
  (Rw.rewrite { Rw.optimized with allowlist = Some allow } bin).stats.Rw.checks_emitted

(* --- the request stream ------------------------------------------------- *)

type req = { q_op : string; q_target : string; q_write : bool; q_line : string }

let request ~id ~op ~target ~write =
  {
    q_op = op;
    q_target = target;
    q_write = write;
    q_line = Printf.sprintf "{\"id\": %S, \"op\": %S, \"target\": %S}" id op target;
  }

(* Request [i] of the seed's stream: reads pick a fleet target by
   Zipf(1.0) rank (fleet order) and an op by the 80/15/5 mix; writes
   name a synth seed the stream has not used before. *)
let stream ~seed fleet =
  let st = Util.rng ~seed ~stream:3 in
  let fleet = Array.of_list fleet in
  let cum = Array.make (Array.length fleet) 0.0 in
  Array.iteri
    (fun i _ -> cum.(i) <- (if i = 0 then 0.0 else cum.(i - 1)) +. (1.0 /. float (i + 1)))
    fleet;
  let total = cum.(Array.length fleet - 1) in
  let used = Hashtbl.create 256 in
  let rec fresh () =
    let s = Random.State.int st 1_000_000_000 in
    if Hashtbl.mem used s then fresh ()
    else begin
      Hashtbl.replace used s ();
      s
    end
  in
  fun i ->
    let id = Printf.sprintf "w%d" i in
    if Random.State.int st 100 < 10 then
      request ~id ~op:"harden" ~target:(Printf.sprintf "synth:%d" (fresh ())) ~write:true
    else begin
      let u = Random.State.float st total in
      let rec find k = if k >= Array.length fleet - 1 || cum.(k) >= u then k else find (k + 1) in
      let target = fleet.(find 0) in
      let r = Random.State.int st 100 in
      let op = if r < 80 then "harden" else if r < 95 then "verify" else "trace" in
      request ~id ~op ~target ~write:false
    end

(* --- the daemon and its client ------------------------------------------ *)

type daemon = {
  eng : Pl.t;
  srv : Serve.Server.t;
  dom : unit Domain.t;
  fd : Unix.file_descr;
  ic : In_channel.t;
  oc : Out_channel.t;
}

let run_dir = "_perfbench"

let start ~socket =
  (try Sys.mkdir run_dir 0o755 with Sys_error _ -> ());
  let eng = Pl.create ~jobs:1 ~cache:true () in
  let srv = Serve.Server.create eng in
  let dom = Domain.spawn (fun () -> Serve.Server.listen srv ~socket) in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  let rec connect attempt =
    match Unix.connect fd (ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when attempt < 500 ->
      Unix.sleepf 0.01;
      connect (attempt + 1)
  in
  connect 0;
  { eng; srv; dom; fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* close the connection, stop the accept loop, join the daemon *)
let stop d =
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  Serve.Server.request_stop d.srv;
  Domain.join d.dom;
  Pl.close d.eng

let round_trip d (q : req) =
  Out_channel.output_string d.oc q.q_line;
  Out_channel.output_char d.oc '\n';
  Out_channel.flush d.oc;
  match In_channel.input_line d.ic with
  | Some r -> r
  | None -> failwith "the daemon closed the connection"

(* --- checking responses -------------------------------------------------- *)

let field name resp = match J.parse resp with Ok j -> J.member name j | Error _ -> None
let num name resp = Option.bind (field name resp) J.to_num
let str name resp = Option.bind (field name resp) J.to_str
let flag name resp = field name resp = Some (J.Bool true)

type answered = {
  a_req : req;
  a_resp : string;
  a_rtt : float;
  a_checks : int option;  (** a harden response's checks_emitted *)
}

(* The response's own checks; a harden response's checks_emitted is
   compared with a direct rewrite by the caller. *)
let check (q : req) resp =
  if not (flag "ok" resp) then Some ("not ok: " ^ resp)
  else
    match q.q_op with
    | "harden" when num "checks_emitted" resp = None -> Some ("no checks_emitted: " ^ resp)
    | "verify" when not (flag "verified" resp) -> Some ("not verified: " ^ resp)
    | "trace" -> (
      match str "verdict" resp with
      | Some v when String.length v >= 8 && String.sub v 0 8 = "finished" -> None
      | _ -> Some ("trace did not finish: " ^ resp))
    | _ -> None

let send d q =
  let resp, rtt = Util.timed (fun () -> round_trip d q) in
  {
    a_req = q;
    a_resp = resp;
    a_rtt = rtt;
    a_checks = (if q.q_op = "harden" then Option.map int_of_float (num "checks_emitted" resp) else None);
  }

(* --- the traced replay --------------------------------------------------- *)

(* The daemon's miss path ([Server.compute_artifact]) as its engine runs
   it with the artifact cache on, from the layers' public parts and
   behind this replay's own cache tier: compile and profile memoized,
   harden through the binary manifest, then per function ([Shard.slices],
   one rewrite per slice at chained trampoline bases, each behind its
   own cache entry, [Shard.assemble]); then the audit, the baseline run
   and the artifact's serialization.  Cache keys are built as the
   engine builds them, key hashing and serialization included. *)
type decomposed = {
  d_cache : Engine.Cache.t;
  d_inject : string;  (** the engine's fault-injection spec, a key part *)
  d_arts : (string, string * int list * int * int) Hashtbl.t;
      (** target -> hardened binary bytes, ref inputs, baseline cycles, checks *)
}

(* a lookup in the replay's cache tier, key hashing included *)
let lookup tr d ~kind parts =
  Layers.span tr "engine.cache" (fun () ->
      let key = Engine.Cache.key ~kind (parts ()) in
      (key, Engine.Cache.find_opt d.d_cache ~key))

let store tr d ~key v = Layers.span tr "engine.cache" (fun () -> Engine.Cache.put d.d_cache ~key v)

(* [Engine.Cache.memo] *)
let cached tr d ~kind parts compute =
  match lookup tr d ~kind parts with
  | _, Some v -> v
  | key, None ->
    let v = compute () in
    store tr d ~key v;
    v

(* [Pipeline.harden] with the cache on *)
let harden tr d ~opts bin : Rw.t =
  let base = Rw.default_tramp_base in
  let fixed = [ Rw.options_key opts; d.d_inject; "degrade" ] in
  match
    lookup tr d ~kind:"manifest" (fun () -> Layers.serialize tr bin :: string_of_int base :: fixed)
  with
  | _, Some (r, (_ : int)) -> r
  | mkey, None -> (
    match Layers.span tr "rewriter.shard" (fun () -> Redfat.Shard.slices bin) with
    | None ->
      cached tr d ~kind:"harden"
        (fun () -> [ Layers.serialize tr bin; Rw.options_key opts; "-1"; d.d_inject; "degrade" ])
        (fun () -> Layers.rewrite tr opts bin)
    | Some slices ->
      let next = ref base in
      let parts =
        List.map
          (fun (sl : Redfat.Shard.slice) ->
            let part : Rw.t =
              cached tr d ~kind:"fnart"
                (fun () -> fixed @ [ string_of_int !next; string_of_int sl.sl_addr; sl.sl_digest ])
                (fun () ->
                  Layers.rewrite tr ~tramp_base:!next opts (Redfat.Shard.slice_binary bin sl))
            in
            next := !next + part.stats.tramp_bytes;
            part)
          slices
      in
      let r =
        Layers.span tr "rewriter.shard" (fun () ->
            Redfat.Shard.assemble ~binary:bin ~tramp_base:base parts)
      in
      store tr d ~key:mkey (r, List.length slices);
      r)

(* [Pipeline.profile]: the profiling build through [harden], then the
   memoized profiling runs *)
let profile tr d ~test_suite bin =
  Layers.span tr "profile" (fun () ->
      let prof = harden tr d ~opts:Rw.profiling_build bin in
      cached tr d ~kind:"profile"
        (fun () ->
          Layers.serialize tr bin :: d.d_inject :: "-1"
          :: List.map (fun i -> String.concat "," (List.map string_of_int i)) test_suite)
        (fun () ->
          List.map (Layers.profile_run tr prof.Rw.binary) test_suite |> Redfat.merge_profiles))

(* [Server.compute_artifact]; [expect] gives the in-process engine's
   serialized hardened binary, which the decomposed one must equal *)
let compute_artifact tr d ~expect target =
  let prog, train, inputs = Serve.Targets.find_program target in
  let bin =
    cached tr d ~kind:"compile"
      (fun () -> [ Marshal.to_string prog []; d.d_inject ])
      (fun () -> Layers.compile tr prog)
  in
  let allow = profile tr d ~test_suite:train bin in
  let hard = harden tr d ~opts:{ Rw.optimized with allowlist = Some allow } bin in
  (match Layers.verify tr hard.binary with
  | Ok r when Redfat.Verify.ok r -> ()
  | _ -> failwith (target ^ ": soundness audit failed"));
  let base, _ = Layers.run_baseline tr ~inputs bin in
  let blob = Layers.serialize tr hard.binary in
  if Some blob <> expect then failwith (target ^ ": hardened binary differs from the engine's");
  Hashtbl.replace d.d_arts target (blob, inputs, base.cycles, hard.stats.Rw.checks_emitted)

(* One request decomposed: the miss path unless the hot tier answered,
   then the op's own work on the artifact, checked against the daemon's
   response. *)
let decompose tr d ~expect (a : answered) =
  let q = a.a_req and resp = a.a_resp in
  if str "cache" resp <> Some "hit" then compute_artifact tr d ~expect q.q_target;
  let blob, inputs, base_cycles, checks = Hashtbl.find d.d_arts q.q_target in
  let agree what expected got = if expected <> got then failwith (q.q_target ^ ": " ^ what ^ " differs") in
  match q.q_op with
  | "harden" -> agree "checks_emitted" (num "checks_emitted" resp) (Some (float checks))
  | "verify" -> (
    match Layers.verify tr (Layers.parse tr blob) with
    | Ok r -> agree "accounted" (num "accounted" resp) (Some (float r.Redfat.Verify.total))
    | Error e -> failwith e)
  | "trace" ->
    let hr =
      Layers.run_hardened tr
        ~options:{ Redfat.Runtime.default_options with mode = Log }
        ~inputs (Layers.parse tr blob)
    in
    agree "hardened_cycles" (num "hardened_cycles" resp) (Some (float hr.run.cycles));
    agree "baseline_cycles" (num "baseline_cycles" resp) (Some (float base_cycles));
    agree "verdict" (str "verdict" resp) (Some (Redfat.verdict_to_string hr.verdict))
  | _ -> ()

(* The serialized hardened binary the engine holds for a target, read
   back through [Pipeline] calls that the daemon's miss path has just
   cached.  Each must be a hit, except the manifest lookup of a binary
   that is not shardable (it has no manifest; its whole-binary artifact
   then hits); [None] if anything had to be recomputed. *)
let engine_artifact eng target =
  let prog, train, _ = Serve.Targets.find_program target in
  let fresh () =
    (Pl.cache_stats eng).Engine.Cache.misses - Obs.counter (Pl.obs eng) "harden.manifest.miss"
  in
  let before = fresh () in
  let bin = Pl.compile eng prog in
  let allow = Pl.profile eng ~test_suite:train bin in
  let hard = Pl.harden eng ~opts:{ Rw.optimized with allowlist = Some allow } bin in
  if fresh () = before then Some (Binfmt.Relf.serialize hard.binary) else None

(* Replay the cold phase and the timed prefix in process, in two passes
   that each start from an empty blueprint table, as the daemon did, so
   both see the daemon's planning history.  Pass 1 sends every request
   through [Server.handle] on a fresh engine, untraced but for one span
   per request laid down from its own timing; every response must equal
   the daemon's.  Pass 2 decomposes every request under spans.  Returns
   (untraced pass seconds, traced pass seconds, failed replays). *)
let replay tr (answered : answered list) =
  let failed = ref 0 in
  let guard (a : answered) f =
    try f ()
    with e ->
      incr failed;
      Util.complain "serve-mixed: replay of %s: %s" a.a_req.q_line (Printexc.to_string e)
  in
  Rewriter.Blueprint.reset ();
  let srv = Serve.Server.create (Pl.create ~jobs:1 ~cache:true ()) in
  let eng = Serve.Server.engine srv in
  let expect = Hashtbl.create 64 and t_plain = ref 0.0 in
  List.iter
    (fun a ->
      guard a (fun () ->
          let start = Unix.gettimeofday () (* Obs's clock *) in
          let (resp, _), dur = Util.timed (fun () -> Serve.Server.handle srv a.a_req.q_line) in
          t_plain := !t_plain +. dur;
          let layer =
            match (a.a_req.q_op, str "cache" resp) with
            | "harden", Some "hit" -> "harden.hit"
            | "harden", _ -> "harden.miss"
            | op, _ -> op
          in
          Obs.add_span tr ~cat:"perfbench" ("serve.handle." ^ layer) ~start ~dur;
          if resp <> a.a_resp then failwith "in-process response differs from the daemon's";
          if not (Hashtbl.mem expect a.a_req.q_target) then
            Hashtbl.replace expect a.a_req.q_target (engine_artifact eng a.a_req.q_target)))
    answered;
  Pl.close eng;
  Rewriter.Blueprint.reset ();
  let d =
    {
      d_cache = Engine.Cache.create ();
      d_inject = Engine.Faultinject.to_string (Pl.inject eng);
      d_arts = Hashtbl.create 64;
    }
  in
  let t_traced = ref 0.0 in
  List.iter
    (fun a ->
      guard a (fun () ->
          let expect = Option.join (Hashtbl.find_opt expect a.a_req.q_target) in
          let (), dt = Util.timed (fun () -> decompose tr d ~expect a) in
          t_traced := !t_traced +. dt))
    answered;
  (!t_plain, !t_traced, !failed)

(* --- the workload -------------------------------------------------------- *)

let run ~seed ~seconds ~trace : Util.outcome =
  let calib = Util.calib_ns () in
  let fleet = fleet () in
  let expected = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace expected t (direct_checks t)) fleet;
  let failed = ref 0 in
  let judge (a : answered) =
    let err =
      match check a.a_req a.a_resp with
      | Some e -> Some e
      | None -> (
        match (a.a_checks, Hashtbl.find_opt expected a.a_req.q_target) with
        | Some got, Some want when got <> want ->
          Some (Printf.sprintf "checks_emitted %d, a direct rewrite emits %d" got want)
        | _ -> None)
    in
    Option.iter
      (fun e ->
        incr failed;
        Util.complain "serve-mixed: %s: %s" a.a_req.q_target e)
      err
  in
  (* set-up: a cold daemon and client, then every fleet target hardened
     once (the first touch only ghosts in the hot tier) *)
  let socket = Printf.sprintf "%s/serve-%d.sock" run_dir (Unix.getpid ()) in
  let (daemon, cold), setup_s =
    Util.repeated_setup ~reps:5
      ~setup:(fun () ->
        Rewriter.Blueprint.reset ();
        let d = start ~socket in
        let cold =
          List.mapi
            (fun i target ->
              send d (request ~id:(Printf.sprintf "c%d" i) ~op:"harden" ~target ~write:false))
            fleet
        in
        (d, cold))
      ~teardown:(fun (d, _) -> stop d)
  in
  List.iter judge cold;
  (* timed phase *)
  let next = stream ~seed fleet in
  let answered = ref [] and writes = ref [] and n = ref 0 and peak = ref 0.0 in
  let rtts = ref [] in
  let t0 = Util.now () in
  while !n < min_requests || Util.now () -. t0 < seconds do
    let q = next !n in
    (match send daemon q with
    | a ->
      rtts := a.a_rtt :: !rtts;
      if !n < prefix then answered := a :: !answered;
      if q.q_write then writes := a :: !writes;
      judge a
    | exception e ->
      incr failed;
      Util.complain "serve-mixed: %s: %s" q.q_line (Printexc.to_string e));
    incr n;
    if !n = min_requests then peak := Util.peak_rss_mb ()
  done;
  let elapsed = Util.now () -. t0 in
  (* off the clock: trace every fleet target once; the geo-mean of their
     overheads is the run's cycle metric, independent of the seed *)
  let sweep =
    List.mapi
      (fun i target -> send daemon (request ~id:(Printf.sprintf "t%d" i) ~op:"trace" ~target ~write:false))
      fleet
  in
  List.iter judge sweep;
  stop daemon;
  let lru = Serve.Lru.stats (Serve.Server.lru daemon.srv) in
  (* every write's checks against a direct rewrite, off the clock *)
  List.iter
    (fun (a : answered) ->
      match a.a_checks with
      | Some got when got <> direct_checks a.a_req.q_target ->
        incr failed;
        Util.complain "serve-mixed: %s: checks_emitted %d differs from a direct rewrite"
          a.a_req.q_target got
      | _ -> ())
    !writes;
  let answered = List.rev !answered in
  let reads = List.filter (fun a -> not a.a_req.q_write) answered in
  let hits = List.filter (fun a -> str "cache" a.a_resp = Some "hit") reads in
  let hit_pm = Util.permille (List.length hits) (List.length reads) in
  let checks = Util.sum_i (List.filter_map (fun a -> a.a_checks) cold) in
  let ov =
    Util.geomean
      (List.filter_map
         (fun a ->
           match (num "hardened_cycles" a.a_resp, num "baseline_cycles" a.a_resp) with
           | Some h, Some b when b > 0.0 -> Some (h /. b)
           | _ -> None)
         sweep)
  in
  let rps = float !n /. elapsed in
  let p50 = Util.percentile !rtts 50.0 *. 1e6 in
  let p99 = Util.percentile !rtts 99.0 *. 1e6 in
  let attempted = !n + List.length cold + List.length sweep in
  let fail_pm = Util.permille !failed attempted in
  let notes =
    [
      Printf.sprintf
        "serve-mixed: %d requests (%d writes) in %.2fs, %d failed \
         (fail_permille %.1f); %.1f req/s; round trip p50 %.1fus p99 \
         %.1fus over all %d; setup %.4fs; peak rss %.1f MiB at request %d; \
         host calib %.2f ns"
        !n (List.length !writes) elapsed !failed fail_pm rps p50 p99 !n
        setup_s !peak min_requests calib;
      Printf.sprintf
        "serve-mixed: hit_permille %.1f over the first %d requests \
         (deterministic per seed); fleet trace overhead %.4fx, cold-phase \
         checks emitted %d (independent of the seed)"
        hit_pm prefix ov checks;
    ]
  in
  if not trace then
    {
      Util.attempted;
      failed = !failed;
      notes;
      metrics =
        Util.end_to_end ~ops_per_s:rps ~p50_us:p50 ~p99_us:p99 ~setup_s
          ~peak_rss_mb:!peak ~overhead_x:ov ~checks;
    }
  else begin
    (* the daemon's own per-request spans give the untraced handle time,
       so round trip minus handle is the transport *)
    let handle_s =
      List.filter_map
        (fun (s : Obs.span) -> if s.sp_cat = "serve" then Some s.sp_dur else None)
        (Obs.spans (Pl.obs daemon.eng))
    in
    let handled =
      List.filteri (fun i _ -> i >= List.length cold && i < List.length cold + prefix) handle_s
    in
    let transport =
      if List.compare_lengths handled answered <> 0 then []
      else List.map2 (fun a h -> (a.a_rtt -. h) *. 1e6) answered handled
    in
    let replayed = cold @ answered in
    let tr = Obs.create () in
    let untraced, traced, rfailed = replay tr replayed in
    Layers.write_chrome tr ~file:(Printf.sprintf "%s/serve-mixed-%d.trace.json" run_dir seed);
    {
      Util.attempted = attempted + List.length replayed;
      failed = !failed + rfailed;
      notes;
      metrics =
        Layers.metrics tr
        @ Layers.engine_metrics daemon.eng
        @ Layers.extras ~calib
            ~overhead:(Util.permille_f (traced -. untraced) untraced)
            ~fail_permille:fail_pm ~hit_permille:hit_pm
            ~transport_p50_us:(Util.median transport) ~lru_bytes:lru.bytes
            ~lru_evictions:lru.evictions ();
    }
  end
