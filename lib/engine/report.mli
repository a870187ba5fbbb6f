(** Per-stage observability for engine runs: call counts and summed
    wall time per stage (across all worker domains), per-target
    measurement records, and a structured JSON rendering for
    [BENCH_*.json] trajectory files.

    [Report] is the merged {e read side}: all hot-path recording
    (stage spans, counters, histograms) flows through the per-domain
    lock-free {!Obs} buffers, so worker domains never contend on a
    report mutex; only the cold per-target list is mutex-guarded. *)

type t

val create : unit -> t

val obs : t -> Obs.t
(** The underlying collector: spans with category ["stage"] are the
    stage table; any counters/histograms recorded on it are folded
    into {!to_json} and the Chrome trace export. *)

val set_jobs : t -> int -> unit
val jobs : t -> int

val timed : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside an [Obs] span of category ["stage"] named
    after the stage.  Exceptions still record the elapsed time. *)

val record : t -> string -> float -> unit
(** Record an already-measured stage interval of [dt] seconds. *)

(** How [bench_diff] gates a per-target counter against its baseline:
    it may never rise ([Lower]: emitted checks), never fall ([Higher]:
    hoisted checks, hit and reuse rates, found bugs), or is reported
    and never gated ([Info]). *)
type gate = Lower | Higher | Info

type target = {
  tg_name : string;
  tg_cycles : int option;
      (** baseline cycles; [None] for synthetic targets with no
          baseline execution (the JSON field is omitted, not 0) *)
  tg_overheads : (string * float) list;  (** column -> slowdown ratio *)
  tg_counters : (string * gate * int) list;
      (** named integer facts (e.g. [eliminated_global],
          [zero_save_sites]), each with its declared gate *)
  tg_wall : float;  (** seconds spent producing this target *)
}

val add_target :
  t -> name:string -> ?cycles:int -> ?overheads:(string * float) list ->
  ?counters:(string * gate * int) list -> wall:float -> unit -> unit

val targets : t -> target list
(** Sorted by name (parallel recording order is nondeterministic). *)

val add_fault : t -> Fault.t -> unit
(** Record a typed fault (per-target or global) in the report. *)

val faults : t -> Fault.t list
(** Sorted by (target, code) — parallel recording order is
    nondeterministic. *)

val stage_summary : t -> (string * int * float) list
(** [(stage, calls, seconds)], sorted by stage name. *)

val wall : t -> float
(** Seconds since [create]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable stage table. *)

val to_json :
  ?cache:Cache.stats -> ?cache_enabled:bool ->
  ?extra:(string * string) list -> t -> string
(** The full report as a JSON object: experiment metadata ([extra],
    emitted as string fields), jobs, wall seconds, cache hit/miss
    counters, per-stage timings, a ["gates"] object mapping each
    [Lower]/[Higher] counter to ["lower"]/["higher"] (omitted when no
    counter is gated), per-target records, and a ["faults"] array of
    typed per-target fault records (empty on a clean run; schema
    documented in docs/MANUAL.md).
    @raise Invalid_argument if two targets declare one counter with
    different gates. *)
