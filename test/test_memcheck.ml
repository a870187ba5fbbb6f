(* The Memcheck-style DBI comparator. *)

open Minic.Ast
open Minic.Build
module Mc = Baselines.Memcheck

let run prog inputs =
  let bin = Minic.Codegen.compile prog in
  Redfat.run_memcheck ~inputs bin

let simple body = Minic.Ast.program [ Minic.Ast.func ~name:"main" body ]

let test_clean_program_no_errors () =
  let _, v, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           for_ "j" (i 0) (i 8) [ set (v "a") (v "j") (v "j") ];
           let_ "s" (i 0);
           for_ "j" (i 0) (i 8) [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
           print_ (v "s");
           free_ (v "a");
           return_ (i 0);
         ])
      []
  in
  (match v with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "run: %s" (Redfat.verdict_to_string v));
  Alcotest.(check int) "no errors" 0 (List.length (Mc.errors mc))

let test_detects_overflow_into_redzone () =
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           set (v "a") (i 8) (i 1); (* one past the end: in the redzone *)
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "one error" 1 (List.length (Mc.errors mc));
  let e = List.hd (Mc.errors mc) in
  Alcotest.(check bool) "write error" true e.write

let test_detects_underflow () =
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           let_ "x" (idx (v "a") (i (-1))); (* leading redzone *)
           print_ (v "x" *: i 0);
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "one error" 1 (List.length (Mc.errors mc));
  Alcotest.(check bool) "read error" true (not (List.hd (Mc.errors mc)).write)

let test_detects_use_after_free () =
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           free_ (v "a");
           set (v "a") (i 0) (i 1);
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "UaF detected" 1 (List.length (Mc.errors mc))

let test_quarantine_no_reuse () =
  (* freed memory stays poisoned even after further allocations of the
     same size (the quarantine property redzone tools rely on) *)
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           free_ (v "a");
           let_ "b" (alloc_elems (i 8));
           set (v "b") (i 0) (i 1); (* fine *)
           set (v "a") (i 0) (i 2); (* still UaF *)
           free_ (v "b");
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "still detected after realloc" 1
    (List.length (Mc.errors mc))

let test_misses_redzone_skip () =
  (* the paper's core claim: a skip over the redzone into the next
     block is invisible to redzone-only tools *)
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           let_ "b" (alloc_elems (i 8));
           set (v "b") (i 0) (i 9);
           let_ "k" Input;
           set (v "a") (v "k") (i 1);
           print_ (idx (v "b") (i 0));
           return_ (i 0);
         ])
      [ 12 ]
  in
  Alcotest.(check int) "skip missed" 0 (List.length (Mc.errors mc))

let test_error_dedup_by_site () =
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           (* same faulting instruction executed 5 times *)
           for_ "j" (i 0) (i 5) [ set (v "a") (i 8) (v "j") ];
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "one report per site" 1 (List.length (Mc.errors mc))

let test_dispatch_overhead_charged () =
  let prog =
    simple
      [
        let_ "s" (i 0);
        for_ "j" (i 0) (i 100) [ assign "s" (v "s" +: v "j") ];
        print_ (v "s");
        return_ (i 0);
      ]
  in
  let bin = Minic.Codegen.compile prog in
  let base, _ = Redfat.run_baseline bin in
  let mc_run, _, _ = Redfat.run_memcheck bin in
  Alcotest.(check (list int)) "same output" base.outputs mc_run.outputs;
  Alcotest.(check bool) "DBI is much slower" true
    (mc_run.cycles > base.cycles * 4)

(* --- the shadow map ---------------------------------------------------- *)

let psz = Vm.Mem.page_size
let shadow_base = 0x60_0000
let shadow_pages = 8

(* [mark] against a model that marks byte by byte; ranges start near
   page boundaries and often cross them or cover whole pages *)
let prop_mark_matches_byte_model =
  let open QCheck in
  let gen_mark =
    Gen.(
      map3
        (fun a l acc -> (a, l, acc))
        (map2
           (fun page off -> shadow_base + (page * psz) + off)
           (int_bound (shadow_pages - 1))
           (oneof
              [ int_range 0 15; int_range (psz - 15) (psz - 1);
                int_bound (psz - 1) ]))
        (oneof [ int_range 0 32; int_range 1 (3 * psz); return psz ])
        bool)
  in
  let print = Print.(list (triple int int bool)) in
  Test.make ~count:200 ~name:"memcheck mark agrees with a byte model"
    (make ~print ~shrink:Shrink.list Gen.(list_size (int_range 1 20) gen_mark))
    (fun marks ->
      let t = Mc.create (Vm.Mem.create ()) in
      let span = (shadow_pages + 3) * psz in
      let model = Bytes.make span '\000' in
      List.iter
        (fun (addr, len, acc) ->
          Mc.mark t ~addr ~len ~accessible:acc;
          Bytes.fill model (addr - shadow_base) len
            (if acc then '\001' else '\000'))
        marks;
      for a = shadow_base - psz to shadow_base + span - 1 do
        let want =
          a >= shadow_base && Bytes.get model (a - shadow_base) = '\001'
        in
        if Mc.accessible t a <> want then
          Test.fail_reportf "byte %#x: accessible %b, model %b" a
            (not want) want
      done;
      true)

(* wholly addressable pages share one shadow page: clearing part of
   one of them must not clear the others, in this tool or another *)
let test_shared_page_never_mutated () =
  let t = Mc.create (Vm.Mem.create ()) in
  let other = Mc.create (Vm.Mem.create ()) in
  Mc.mark t ~addr:shadow_base ~len:(4 * psz) ~accessible:true;
  Mc.mark other ~addr:shadow_base ~len:psz ~accessible:true;
  Mc.mark t ~addr:(shadow_base + psz + 100) ~len:8 ~accessible:false;
  Mc.mark t ~addr:(shadow_base + (3 * psz) - 4) ~len:8 ~accessible:false;
  let cleared a =
    (a >= shadow_base + psz + 100 && a < shadow_base + psz + 108)
    || (a >= shadow_base + (3 * psz) - 4 && a < shadow_base + (3 * psz) + 4)
  in
  for a = shadow_base to shadow_base + (4 * psz) - 1 do
    if Mc.accessible t a = cleared a then
      Alcotest.failf "byte %#x: accessible %b" a (Mc.accessible t a)
  done;
  for a = shadow_base to shadow_base + psz - 1 do
    if not (Mc.accessible other a) then
      Alcotest.failf "other tool, byte %#x: unaddressable" a
  done;
  let fresh = Mc.create (Vm.Mem.create ()) in
  Mc.mark fresh ~addr:shadow_base ~len:psz ~accessible:true;
  Alcotest.(check bool) "a fresh whole-page mark is addressable" true
    (Mc.accessible fresh (shadow_base + 100))

let tests =
  [
    Alcotest.test_case "clean program" `Quick test_clean_program_no_errors;
    Alcotest.test_case "overflow into redzone" `Quick
      test_detects_overflow_into_redzone;
    Alcotest.test_case "underflow" `Quick test_detects_underflow;
    Alcotest.test_case "use-after-free" `Quick test_detects_use_after_free;
    Alcotest.test_case "quarantine prevents reuse" `Quick
      test_quarantine_no_reuse;
    Alcotest.test_case "misses redzone skip" `Quick test_misses_redzone_skip;
    Alcotest.test_case "error dedup" `Quick test_error_dedup_by_site;
    Alcotest.test_case "dispatch overhead" `Quick
      test_dispatch_overhead_charged;
    QCheck_alcotest.to_alcotest prop_mark_matches_byte_model;
    Alcotest.test_case "shared shadow page never mutated" `Quick
      test_shared_page_never_mutated;
  ]
