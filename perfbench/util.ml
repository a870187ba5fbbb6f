(* Shared measurement helpers: clocks, order statistics, process
   memory, the host calibration loop, seeded choice, and the result
   record every workload returns. *)

(* seconds on the kernel's monotonic clock, with nanosecond resolution
   (gettimeofday's microseconds quantize single round trips) *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* nearest-rank percentile of an unsorted sample (nan when empty) *)
let percentile (xs : float list) p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (p /. 100.0 *. float n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median xs = percentile xs 50.0

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float (List.length xs))

let sum_f = List.fold_left ( +. ) 0.0
let sum_i = List.fold_left ( + ) 0

let permille num den = if den = 0 then 0.0 else 1000.0 *. float num /. float den
let permille_f num den = if den = 0.0 then 0.0 else 1000.0 *. num /. den

(* Peak resident set of this process in MiB: the kernel's high-water
   mark, or the GC's peak major heap where /proc is unavailable. *)
let peak_rss_mb () =
  let from_gc () =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines -> (
    match
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
            Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                float kb /. 1024.0)
          | _ -> None)
        lines
    with
    | Some mb -> mb
    | None -> from_gc ())
  | exception Sys_error _ -> from_gc ()

(* A fixed pure-OCaml loop (integer mixing, a small hash table, short
   lists), timed before each workload so drift of the shared host shows
   on its own: median nanoseconds per iteration over five repetitions. *)
let calib_ns () =
  let iters = 200_000 in
  let once () =
    let h = Hashtbl.create 64 in
    let acc = ref 0 in
    let (), dt =
      timed (fun () ->
          for i = 1 to iters do
            let k = (i * 0x9E3779B1) land 1023 in
            Hashtbl.replace h k (i + !acc);
            acc := !acc lxor (Hashtbl.find h k + List.length [ i; k ])
          done)
    in
    ignore (Sys.opaque_identity !acc);
    dt *. 1e9 /. float iters
  in
  median (List.init 5 (fun _ -> once ()))

(* Per-item timings over the run: each item (a kernel row, a campaign)
   is timed once per pass over the items. *)
let record_time (tbl : (string, float list) Hashtbl.t) item dt =
  Hashtbl.replace tbl item (dt :: Option.value ~default:[] (Hashtbl.find_opt tbl item))

(* An item's mean time over the run.  The shared host changes speed
   for seconds at a time; a median over the passes picks the speed most
   passes ran at, while the mean weighs every speed by the time the run
   spent at it. *)
let mean_time tbl item = Option.map mean (Hashtbl.find_opt tbl item)

(* Seeded choice: every input the program sees is drawn from one of
   these, so the same seed replays the same inputs. *)
let rng ~seed ~stream = Random.State.make [| seed; stream |]

let shuffle st (xs : 'a list) =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Run a workload's set-up [reps] times (tearing down all but the
   last) and report the median duration: one set-up is a single noisy
   sample, and the last one is the state the timed phase starts from. *)
let repeated_setup ~reps ~(setup : unit -> 'a) ~(teardown : 'a -> unit) =
  let rec go k times =
    let v, dt = timed setup in
    if k <= 1 then (v, median (dt :: times))
    else begin
      teardown v;
      go (k - 1) (dt :: times)
    end
  in
  go reps []

(* Time [reps] more set-ups, each torn down at once, onto [samples]:
   called between operations, so the set-up samples spread over the
   whole run as the operations do, not over one instant of it. *)
let sample_setup ~reps ~(setup : unit -> 'a) ~(teardown : 'a -> unit) samples =
  for _ = 1 to reps do
    let v, dt = timed setup in
    teardown v;
    samples := dt :: !samples
  done

(* --- what a workload run returns -------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m name unit value = { m_name = name; m_value = value; m_unit = unit }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** end-to-end, or per-layer when traced *)
  notes : string list;    (** human-readable lines printed before the result *)
}

(* The end-to-end report, in BENCHMARK.json order. *)
let end_to_end ~ops_per_s ~p50_us ~p99_us ~setup_s ~peak_rss_mb ~overhead_x ~checks =
  [
    m "ops_per_s" "1/s" ops_per_s;
    m "op_p50_us" "us" p50_us;
    m "op_p99_us" "us" p99_us;
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MB" peak_rss_mb;
    m "cycles_overhead_x" "x" overhead_x;
    m "checks_emitted" "count" (float checks);
  ]

(* A failed check: counted by the caller, explained on stderr. *)
let complain fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
