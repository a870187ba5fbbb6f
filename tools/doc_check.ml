(* doc_check: fail the build when the documentation drifts from the
   code.  Six checks:

   1. every CLI flag declared in bin/redfat_cli.ml appears in
      docs/MANUAL.md (and the manual doesn't document flags that no
      longer exist);
   2. the fault-taxonomy table embedded in docs/MANUAL.md is exactly
      [Engine.Fault.registry_markdown ()] (what `redfat errors --list`
      prints), and every registry code is mentioned;
   3. every intra-repo markdown link in the top-level and docs/
      markdown files resolves to an existing file;
   4. every CLI subcommand has a `### `redfat NAME`` section in
      docs/MANUAL.md, and the manual documents no verb the CLI does
      not declare;
   5. every `fuzz.*` counter or histogram docs/INTERNALS.md names in
      backticks is recorded in bench/fuzz_baseline.json — the fuzzing
      smoke campaign's committed report — so §16 can never document
      observability the fleet stopped emitting;
   6. every `lib/DIR` (`Mod`, ...) inventory entry and every `Lib.Mod`
      reference in DESIGN.md names a compilation unit of that library,
      or a module alias its main module declares.

   Run from the repository root (make check / make doc-check / the CI
   docs job): exits 1 listing every violation. *)

let errors = ref []
let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let read_file_exn what path =
  match read_file path with
  | Some s -> s
  | None ->
    Printf.eprintf "doc_check: cannot read %s (%s) -- run from the repo root\n"
      path what;
    exit 2

(* [f ()] at every match of [re] in [s], in order ([f] may read the
   match's groups) *)
let scan_with re s f =
  let rec go i acc =
    match Str.search_forward re s i with
    | p -> go (p + 1) (f () :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

(* every match of [re] in [s], as its first group *)
let scan re s = scan_with re s (fun () -> Str.matched_group 1 s)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* --- 1. CLI flags vs the manual ------------------------------------- *)

(* scrape `info [ "o"; "output" ] ...` occurrences out of the CLI
   source: every quoted string inside the first [...] after `info` is a
   flag name (positional args use `info []` and contribute nothing) *)
let cli_flags src =
  let flags = ref [] in
  let re = Str.regexp "info[ \n]*\\[" in
  let i = ref 0 in
  (try
     while true do
       let start = Str.search_forward re src !i in
       let j = ref (start + String.length (Str.matched_string src)) in
       while src.[!j] <> ']' do
         if src.[!j] = '"' then begin
           let k = String.index_from src (!j + 1) '"' in
           flags := String.sub src (!j + 1) (k - !j - 1) :: !flags;
           j := k + 1
         end
         else incr j
       done;
       i := !j
     done
   with Not_found -> ());
  List.sort_uniq compare !flags

let flag_syntax f = if String.length f = 1 then "-" ^ f else "--" ^ f

let check_flags () =
  let src = read_file_exn "the CLI source" "bin/redfat_cli.ml" in
  let manual = read_file_exn "the CLI manual" "docs/MANUAL.md" in
  let flags = cli_flags src in
  if flags = [] then err "no flags scraped from bin/redfat_cli.ml (scraper broken?)";
  List.iter
    (fun f ->
      let s = flag_syntax f in
      if not (contains manual ("`" ^ s)) then
        err "docs/MANUAL.md does not document CLI flag %s" s)
    flags;
  (* the reverse direction: every `--flag` the manual names in backticks
     must exist in the CLI (long flags only; short aliases and grammar
     meta-syntax are too noisy to scrape) *)
  List.iter
    (fun f ->
      if not (List.mem f flags) then
        err "docs/MANUAL.md documents `--%s`, which no CLI command declares" f)
    (scan (Str.regexp "`--\\([a-z][a-z-]*\\)") manual)

(* --- 4. CLI verbs vs the manual -------------------------------------- *)

(* scrape `Cmd.info "NAME"` subcommand declarations out of the CLI
   source (the group's own "redfat" info is not a verb) *)
let cli_verbs src =
  scan (Str.regexp "Cmd\\.info \"\\([a-z][a-z-]*\\)\"") src
  |> List.filter (fun v -> v <> "redfat")
  |> List.sort_uniq compare

let check_verbs () =
  let src = read_file_exn "the CLI source" "bin/redfat_cli.ml" in
  let manual = read_file_exn "the CLI manual" "docs/MANUAL.md" in
  let verbs = cli_verbs src in
  if verbs = [] then
    err "no subcommands scraped from bin/redfat_cli.ml (scraper broken?)";
  List.iter
    (fun v ->
      if not (contains manual (Printf.sprintf "### `redfat %s`" v)) then
        err "docs/MANUAL.md has no `### `redfat %s`` section" v)
    verbs;
  List.iter
    (fun v ->
      if not (List.mem v verbs) then
        err "docs/MANUAL.md documents `redfat %s`, which the CLI does not \
             declare" v)
    (scan (Str.regexp "### `redfat \\([a-z][a-z-]*\\)`") manual)

(* --- 2. the fault-taxonomy table ------------------------------------- *)

let check_taxonomy () =
  let manual = read_file_exn "the CLI manual" "docs/MANUAL.md" in
  let expected = String.trim (Engine.Fault.registry_markdown ()) in
  let begin_mark = "<!-- BEGIN FAULT TAXONOMY" in
  let end_mark = "<!-- END FAULT TAXONOMY -->" in
  (match (Str.search_forward (Str.regexp_string begin_mark) manual 0,
          Str.search_forward (Str.regexp_string end_mark) manual 0)
   with
  | b, e ->
    let b = String.index_from manual b '\n' + 1 in
    let embedded = String.trim (String.sub manual b (e - b)) in
    if embedded <> expected then
      err
        "the fault-taxonomy table in docs/MANUAL.md differs from \
         `redfat errors --list` -- regenerate it from Engine.Fault.registry"
  | exception Not_found ->
    err "docs/MANUAL.md is missing the FAULT TAXONOMY marker block");
  List.iter
    (fun (i : Engine.Fault.info) ->
      if not (contains manual ("`" ^ i.i_code ^ "`")) then
        err "docs/MANUAL.md does not mention fault code %s" i.i_code)
    Engine.Fault.registry

(* --- 3. intra-repo markdown links ------------------------------------ *)

let md_files () =
  let top =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".md")
  in
  let docs =
    Sys.readdir "docs" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".md")
    |> List.map (Filename.concat "docs")
  in
  top @ docs

let check_links () =
  let root = Sys.getcwd () in
  let re = Str.regexp "\\](\\([^)# ]+\\)[#)]" in
  List.iter
    (fun file ->
      let body = read_file_exn "a markdown file" file in
      let i = ref 0 in
      try
        while true do
          let p = Str.search_forward re body !i in
          let target = Str.matched_group 1 body in
          i := p + 1;
          let external_ =
            List.exists
              (fun p ->
                String.length target >= String.length p
                && String.sub target 0 (String.length p) = p)
              [ "http://"; "https://"; "mailto:" ]
          in
          if not external_ then begin
            let resolved = Filename.concat (Filename.dirname file) target in
            (* links that escape the repo (e.g. the README CI badge's
               ../../actions/... relative to the GitHub UI) are not
               checkable against the working tree *)
            let escapes =
              let rec depth parts d =
                match parts with
                | [] -> false
                | ".." :: rest -> d = 0 || depth rest (d - 1)
                | "." :: rest -> depth rest d
                | _ :: rest -> depth rest (d + 1)
              in
              depth (String.split_on_char '/' resolved) 0
            in
            if (not escapes) && not (Sys.file_exists resolved) then
              err "%s links to %s, which does not exist under %s" file target
                root
          end
        done
      with Not_found -> ())
    (md_files ())

(* --- 5. fuzz.* observability vs the smoke baseline ------------------- *)

let check_fuzz_counters () =
  let internals = read_file_exn "the internals doc" "docs/INTERNALS.md" in
  let baseline =
    read_file_exn "the fuzzing smoke baseline" "bench/fuzz_baseline.json"
  in
  let seen =
    List.sort_uniq compare
      (scan (Str.regexp "`\\(fuzz\\.[a-z_]+\\)`") internals)
  in
  if seen = [] then
    err "docs/INTERNALS.md names no `fuzz.*` counters (scraper broken, or \
         the fleet section dropped?)";
  List.iter
    (fun c ->
      if not (contains baseline ("\"" ^ c ^ "\"")) then
        err
          "docs/INTERNALS.md names `%s`, which bench/fuzz_baseline.json does \
           not record -- the smoke campaign stopped emitting it" c)
    seen

(* --- 6. DESIGN.md module references vs the libraries ----------------- *)

(* every library under lib/, as (OCaml module name, (dir, name)), from
   the (name ...) field of its dune stanza *)
let libraries () =
  Sys.readdir "lib" |> Array.to_list |> List.sort compare
  |> List.filter_map (fun d ->
         let dir = Filename.concat "lib" d in
         match read_file (Filename.concat dir "dune") with
         | None -> None
         | Some dune -> (
           match scan (Str.regexp "(name \\([a-z0-9_]+\\)") dune with
           | name :: _ -> Some (String.capitalize_ascii name, (dir, name))
           | [] -> None))

(* the modules a library exports: one per compilation unit, plus the
   aliases its main module declares (lib/core's redfat.ml re-exports
   [Rewrite], [Runtime], ...) *)
let lib_modules (dir, name) =
  let units =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
    |> List.map (fun f -> String.capitalize_ascii (Filename.remove_extension f))
  in
  let aliases =
    match read_file (Filename.concat dir (name ^ ".ml")) with
    | None -> []
    | Some src -> scan (Str.regexp "^module \\([A-Z][A-Za-z0-9_]*\\) =") src
  in
  units @ aliases

let check_design_modules () =
  let design = read_file_exn "the design doc" "DESIGN.md" in
  let libs = libraries () in
  if libs = [] then err "no libraries found under lib/ (scraper broken?)";
  let resolve what lib m =
    if not (List.mem m (lib_modules lib)) then
      err "DESIGN.md names %s, but library %s has no module %s" what
        (snd lib) m
  in
  (* `lib/DIR` (`Mod`, `Mod`) inventory entries *)
  let entry = Str.regexp "`lib/\\([a-z0-9_]+\\)` (\\(`[^)]*\\))" in
  scan_with entry design (fun () ->
      ("lib/" ^ Str.matched_group 1 design, Str.matched_group 2 design))
  |> List.iter (fun (dir, mods) ->
         match List.find_opt (fun (_, (d, _)) -> d = dir) libs with
         | None -> err "DESIGN.md names `%s`, which is no library" dir
         | Some (_, lib) ->
           List.iter
             (fun m -> resolve (Printf.sprintf "`%s` (`%s`)" dir m) lib m)
             (scan (Str.regexp "`\\([A-Z][A-Za-z0-9_]*\\)`") mods));
  (* `Lib.Mod` references; a first component that is no library
     (`Runtime.options`, `Rewrite.rewrite`) is a module path, skipped *)
  let re = Str.regexp "`\\([A-Z][a-z0-9_]*\\)\\.\\([A-Z][A-Za-z0-9_]*\\)" in
  scan_with re design (fun () ->
      (Str.matched_group 1 design, Str.matched_group 2 design))
  |> List.iter (fun (l, m) ->
         match List.assoc_opt l libs with
         | Some lib -> resolve (Printf.sprintf "`%s.%s`" l m) lib m
         | None -> ())

let () =
  check_flags ();
  check_verbs ();
  check_taxonomy ();
  check_links ();
  check_fuzz_counters ();
  check_design_modules ();
  match List.rev !errors with
  | [] ->
    print_endline
      "doc_check: docs/MANUAL.md, DESIGN.md and markdown links are in sync"
  | es ->
    List.iter (fun e -> Printf.eprintf "doc_check: %s\n" e) es;
    Printf.eprintf "doc_check: %d problem(s)\n" (List.length es);
    exit 1
