(* VM semantics: memory, interpreter, flags, costs, traps. *)

open X64

(* --- Mem ------------------------------------------------------------- *)

let test_mem_rw_widths () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:0x1000 ~len:64;
  List.iter
    (fun (len, v) ->
      Vm.Mem.write m ~addr:0x1000 ~len v;
      let mask = if len = 8 then -1 else (1 lsl (len * 8)) - 1 in
      Alcotest.(check int)
        (Printf.sprintf "width %d" len)
        (v land mask)
        (Vm.Mem.read m ~addr:0x1000 ~len))
    [ (1, 0xab); (2, 0xbeef); (4, 0xdeadbeef); (8, 0x1234_5678_9abc) ]

let test_mem_negative_roundtrip () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:0 ~len:16;
  List.iter
    (fun v ->
      Vm.Mem.write m ~addr:8 ~len:8 v;
      Alcotest.(check int) "neg round-trip" v (Vm.Mem.read m ~addr:8 ~len:8))
    [ -1; -42; min_int / 2; max_int / 2; -(1 lsl 40) ]

let test_mem_page_crossing () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:0x1000 ~len:0x2000;
  let addr = 0x1ffd in
  Vm.Mem.write m ~addr ~len:8 0x1122334455667788;
  Alcotest.(check int) "crosses page" 0x1122334455667788
    (Vm.Mem.read m ~addr ~len:8)

let test_mem_segfault () =
  let m = Vm.Mem.create () in
  Alcotest.check_raises "unmapped" (Vm.Mem.Segfault 0x5000) (fun () ->
      ignore (Vm.Mem.read m ~addr:0x5000 ~len:1))

let test_mem_unmap () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:0x1000 ~len:8;
  Vm.Mem.write m ~addr:0x1000 ~len:8 7;
  Vm.Mem.unmap m ~addr:0x1000 ~len:8;
  Alcotest.(check bool) "unmapped" false (Vm.Mem.is_mapped m 0x1000);
  Alcotest.check_raises "faults" (Vm.Mem.Segfault 0x1000) (fun () ->
      ignore (Vm.Mem.read m ~addr:0x1000 ~len:8))

let test_mem_sparse_far_addresses () =
  let m = Vm.Mem.create () in
  let far = 86 lsl 35 in
  Vm.Mem.map m ~addr:far ~len:16;
  Vm.Mem.write m ~addr:far ~len:8 99;
  Alcotest.(check int) "far address" 99 (Vm.Mem.read m ~addr:far ~len:8)

(* Random map/unmap/read/write/is_mapped sequences against a reference
   model that keeps one table entry per mapped page, zero-filled at map
   time.  Ranges fall in a 16-page window, so merges of adjacent and
   overlapping ranges and unmaps that split a range are frequent. *)

type mem_op =
  | Map of int * int
  | Unmap of int * int
  | Write of int * int * int
  | Read of int * int
  | Is_mapped of int

let window_base = 0x40_0000
let window_pages = 16
let psz = Vm.Mem.page_size

let show_mem_op = function
  | Map (a, l) -> Printf.sprintf "map %#x %d" a l
  | Unmap (a, l) -> Printf.sprintf "unmap %#x %d" a l
  | Write (a, l, v) -> Printf.sprintf "write %#x %d %d" a l v
  | Read (a, l) -> Printf.sprintf "read %#x %d" a l
  | Is_mapped a -> Printf.sprintf "is_mapped %#x" a

let gen_mem_ops =
  let open QCheck.Gen in
  (* addresses cluster near page boundaries, where the bugs live *)
  let addr =
    map2
      (fun page off -> window_base + (page * psz) + off)
      (int_range (-1) window_pages)
      (oneof
         [ int_range 0 15; int_range (psz - 15) (psz - 1); int_bound (psz - 1) ])
  in
  let range_len = oneof [ int_range 1 16; int_range 1 (4 * psz) ] in
  let width = oneofl [ 1; 2; 4; 8 ] in
  list_size (int_range 1 40)
    (frequency
       [
         (3, map2 (fun a l -> Map (a, l)) addr range_len);
         (2, map2 (fun a l -> Unmap (a, l)) addr range_len);
         (3, map3 (fun a l v -> Write (a, l, v)) addr width int);
         (3, map2 (fun a l -> Read (a, l)) addr width);
         (1, map (fun a -> Is_mapped a) addr);
       ])

module Model = struct
  let create () : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16

  let pages addr len f =
    for no = addr / psz to (addr + len - 1) / psz do
      f no
    done

  let map m addr len =
    pages addr len (fun no ->
        if not (Hashtbl.mem m no) then Hashtbl.add m no (Bytes.make psz '\000'))

  let unmap m addr len = pages addr len (Hashtbl.remove m)

  let page m a =
    match Hashtbl.find_opt m (a / psz) with
    | Some p -> p
    | None -> raise (Vm.Mem.Segfault a)

  (* byte by byte from the lowest address, like the VM *)
  let write m addr len v =
    for k = 0 to len - 1 do
      Bytes.set (page m (addr + k)) ((addr + k) mod psz)
        (Char.chr ((v lsr (8 * k)) land 0xff))
    done

  let read m addr len =
    let v = ref 0 in
    for k = 0 to len - 1 do
      let b = Char.code (Bytes.get (page m (addr + k)) ((addr + k) mod psz)) in
      v := !v lor (b lsl (8 * k))
    done;
    !v
end

let prop_mem_matches_page_model =
  QCheck.Test.make ~count:500 ~name:"mem agrees with a per-page model"
    (QCheck.make ~print:(QCheck.Print.list show_mem_op)
       ~shrink:QCheck.Shrink.list gen_mem_ops)
    (fun ops ->
      let m = Vm.Mem.create () and r = Model.create () in
      let outcome f = try Ok (f ()) with Vm.Mem.Segfault a -> Error a in
      let action f = outcome (fun () -> f (); 0) in
      let show = function
        | Ok v -> string_of_int v
        | Error a -> Printf.sprintf "segv %#x" a
      in
      let step op =
        let got, want =
          match op with
          | Map (a, l) ->
            (action (fun () -> Vm.Mem.map m ~addr:a ~len:l),
             action (fun () -> Model.map r a l))
          | Unmap (a, l) ->
            (action (fun () -> Vm.Mem.unmap m ~addr:a ~len:l),
             action (fun () -> Model.unmap r a l))
          | Write (a, l, v) ->
            (action (fun () -> Vm.Mem.write m ~addr:a ~len:l v),
             action (fun () -> Model.write r a l v))
          | Read (a, l) ->
            (outcome (fun () -> Vm.Mem.read m ~addr:a ~len:l),
             outcome (fun () -> Model.read r a l))
          | Is_mapped a ->
            (Ok (Bool.to_int (Vm.Mem.is_mapped m a)),
             Ok (Bool.to_int (Hashtbl.mem r (a / psz))))
        in
        if got <> want then
          QCheck.Test.fail_reportf "%s: %s, model %s" (show_mem_op op)
            (show got) (show want)
      in
      List.iter step ops;
      (* every page of the window: same mapped-ness, same bytes *)
      let first = window_base / psz in
      for no = first - 1 to first + window_pages + 4 do
        let a = no * psz in
        let mapped = Hashtbl.mem r no in
        if Vm.Mem.is_mapped m a <> mapped then
          QCheck.Test.fail_reportf "page %#x: is_mapped disagrees" a;
        if mapped
           && Vm.Mem.read_string m ~addr:a ~len:psz
              <> Bytes.to_string (Hashtbl.find r no)
        then QCheck.Test.fail_reportf "page %#x: bytes differ" a
      done;
      true)

(* --- Cpu ------------------------------------------------------------- *)

let null_rt =
  {
    Vm.Cpu.rt_malloc = (fun _ _ -> 0);
    rt_free = (fun _ _ -> ());
    rt_name = "null";
  }

(* assemble+load+run a code fragment; returns the cpu *)
let exec ?(inputs = []) items =
  let code, _ = Asm.assemble ~origin:0x400000 items in
  let cpu = Vm.Cpu.create () in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  cpu.inputs <- inputs;
  let (_ : int) = Vm.Cpu.run cpu null_rt ~entry:0x400000 in
  cpu

let i x = Asm.I x

let test_arith () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 10));
        i (Isa.Mov_ri (Isa.rbx, 3));
        i (Isa.Alu_rr (Isa.Add, Isa.rax, Isa.rbx)); (* 13 *)
        i (Isa.Mul_rr (Isa.rax, Isa.rax)); (* 169 *)
        i (Isa.Alu_ri (Isa.Sub, Isa.rax, 9)); (* 160 *)
        i (Isa.Div_rr (Isa.rax, Isa.rbx)); (* 53 *)
        i (Isa.Mov_ri (Isa.rcx, 7));
        i (Isa.Rem_rr (Isa.rcx, Isa.rbx)); (* 1 *)
        i (Isa.Shift_ri (Isa.Shl, Isa.rax, 2)); (* 212 *)
        i (Isa.Shift_ri (Isa.Sar, Isa.rax, 1)); (* 106 *)
        i (Isa.Neg Isa.rcx); (* -1 *)
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "rax" 106 cpu.regs.(Isa.rax);
  Alcotest.(check int) "rcx" (-1) cpu.regs.(Isa.rcx)

let test_logic () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 0b1100));
        i (Isa.Mov_ri (Isa.rbx, 0b1010));
        i (Isa.Mov_rr (Isa.rcx, Isa.rax));
        i (Isa.Alu_rr (Isa.And, Isa.rcx, Isa.rbx)); (* 0b1000 *)
        i (Isa.Mov_rr (Isa.rdx, Isa.rax));
        i (Isa.Alu_rr (Isa.Or, Isa.rdx, Isa.rbx)); (* 0b1110 *)
        i (Isa.Mov_rr (Isa.rsi, Isa.rax));
        i (Isa.Alu_rr (Isa.Xor, Isa.rsi, Isa.rbx)); (* 0b0110 *)
        i (Isa.Not Isa.rax);
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "and" 0b1000 cpu.regs.(Isa.rcx);
  Alcotest.(check int) "or" 0b1110 cpu.regs.(Isa.rdx);
  Alcotest.(check int) "xor" 0b0110 cpu.regs.(Isa.rsi);
  Alcotest.(check int) "not" (lnot 0b1100) cpu.regs.(Isa.rax)

(* all 10 condition codes against known operand pairs *)
let test_conditions () =
  let check cc a b expect =
    let cpu =
      exec
        [
          i (Isa.Mov_ri (Isa.rax, a));
          i (Isa.Mov_ri (Isa.rbx, b));
          i (Isa.Cmp_rr (Isa.rax, Isa.rbx));
          i (Isa.Setcc (cc, Isa.rcx));
          i Isa.Ret;
        ]
    in
    Alcotest.(check int)
      (Printf.sprintf "%s %d %d" (Disasm.cc_name cc) a b)
      (if expect then 1 else 0)
      cpu.regs.(Isa.rcx)
  in
  check Isa.Eq 5 5 true;
  check Isa.Eq 5 6 false;
  check Isa.Ne 5 6 true;
  check Isa.Lt (-1) 1 true;
  check Isa.Lt 1 (-1) false;
  check Isa.Le 5 5 true;
  check Isa.Gt 7 2 true;
  check Isa.Ge 2 7 false;
  (* unsigned: -1 is the largest value *)
  check Isa.Ult (-1) 1 false;
  check Isa.Ugt (-1) 1 true;
  check Isa.Ule 3 3 true;
  check Isa.Uge 1 (-1) false

let test_loop_and_branches () =
  (* sum 1..10 with a backward branch *)
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 0));
        i (Isa.Mov_ri (Isa.rcx, 1));
        Asm.Label "loop";
        i (Isa.Alu_rr (Isa.Add, Isa.rax, Isa.rcx));
        i (Isa.Alu_ri (Isa.Add, Isa.rcx, 1));
        i (Isa.Cmp_ri (Isa.rcx, 10));
        Asm.Jcc_l (Isa.Le, "loop");
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "sum" 55 cpu.regs.(Isa.rax)

let test_call_ret_stack () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 1));
        Asm.Call_l "double";
        Asm.Call_l "double";
        Asm.Call_l "double";
        i Isa.Ret;
        Asm.Label "double";
        i (Isa.Alu_rr (Isa.Add, Isa.rax, Isa.rax));
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "3 doublings" 8 cpu.regs.(Isa.rax)

let test_push_pop () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 111));
        i (Isa.Mov_ri (Isa.rbx, 222));
        i (Isa.Push Isa.rax);
        i (Isa.Push Isa.rbx);
        i (Isa.Pop Isa.rax); (* rax=222 *)
        i (Isa.Pop Isa.rbx); (* rbx=111 *)
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "rax" 222 cpu.regs.(Isa.rax);
  Alcotest.(check int) "rbx" 111 cpu.regs.(Isa.rbx)

let test_memory_operands () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rbx, 0x7f0000));
        i (Isa.Mov_ri (Isa.rcx, 3));
        i (Isa.Mov_ri (Isa.rax, 77));
        (* [rbx + rcx*8 + 16] = rax *)
        i (Isa.Store (Isa.W8, Isa.mem ~disp:16 ~base:Isa.rbx ~idx:Isa.rcx ~scale:8 (), Isa.rax));
        i (Isa.Load (Isa.W8, Isa.rdx, Isa.mem ~disp:40 ~base:Isa.rbx ()));
        (* byte store truncates *)
        i (Isa.Mov_ri (Isa.rax, 0x1ff));
        i (Isa.Store (Isa.W1, Isa.mem ~base:Isa.rbx (), Isa.rax));
        i (Isa.Load (Isa.W1, Isa.rsi, Isa.mem ~base:Isa.rbx ()));
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "indexed store/load" 77 cpu.regs.(Isa.rdx);
  Alcotest.(check int) "byte truncation" 0xff cpu.regs.(Isa.rsi)

let test_lea () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rbx, 1000));
        i (Isa.Mov_ri (Isa.rcx, 5));
        i (Isa.Lea (Isa.rax, Isa.mem ~disp:(-8) ~base:Isa.rbx ~idx:Isa.rcx ~scale:4 ()));
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "lea" (1000 + 20 - 8) cpu.regs.(Isa.rax)

let test_io_runtime () =
  let cpu =
    exec ~inputs:[ 5; 7 ]
      [
        i (Isa.Callrt Isa.Input);
        i (Isa.Mov_rr (Isa.rbx, Isa.rax));
        i (Isa.Callrt Isa.Input);
        i (Isa.Alu_rr (Isa.Add, Isa.rax, Isa.rbx));
        i (Isa.Mov_rr (Isa.rdi, Isa.rax));
        i (Isa.Callrt Isa.Print);
        (* input exhausted -> 0 *)
        i (Isa.Callrt Isa.Input);
        i (Isa.Mov_rr (Isa.rdi, Isa.rax));
        i (Isa.Callrt Isa.Print);
        i Isa.Ret;
      ]
  in
  Alcotest.(check (list int)) "outputs" [ 12; 0 ] (Vm.Cpu.outputs cpu)

let test_div_by_zero () =
  Alcotest.check_raises "div0" (Vm.Cpu.Div_by_zero 0x40000c) (fun () ->
      ignore
        (exec
           [
             i (Isa.Mov_ri (Isa.rax, 5));
             i (Isa.Mov_ri (Isa.rbx, 0));
             i (Isa.Div_rr (Isa.rax, Isa.rbx));
             i Isa.Ret;
           ]))

let test_indirect_call_and_jump () =
  let code, labels =
    Asm.assemble ~origin:0x400000
      [
        Asm.Mov_label (Isa.rbx, "fn");
        i (Isa.Call_ind Isa.rbx);      (* rax = 5 *)
        Asm.Mov_label (Isa.rcx, "out");
        i (Isa.Jmp_ind Isa.rcx);
        i (Isa.Mov_ri (Isa.rax, 0));   (* skipped *)
        Asm.Label "out";
        i Isa.Ret;
        Asm.Label "fn";
        i (Isa.Mov_ri (Isa.rax, 5));
        i Isa.Ret;
      ]
  in
  ignore labels;
  let cpu = Vm.Cpu.create () in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  let (_ : int) = Vm.Cpu.run cpu null_rt ~entry:0x400000 in
  Alcotest.(check int) "indirect call result survives indirect jump" 5
    cpu.regs.(Isa.rax)

let test_trap_table () =
  (* a Trap redirects through the table and costs extra *)
  let code, labels =
    Asm.assemble ~origin:0x400000
      [
        i Isa.Trap;
        i (Isa.Nop 1);
        Asm.Label "after";
        i Isa.Ret;
        Asm.Label "tramp";
        i (Isa.Mov_ri (Isa.rax, 0xfeed));
        Asm.Jmp_l "after";
      ]
  in
  let cpu = Vm.Cpu.create () in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  Hashtbl.replace cpu.trap_table 0x400000 (Hashtbl.find labels "tramp");
  let (_ : int) = Vm.Cpu.run cpu null_rt ~entry:0x400000 in
  Alcotest.(check int) "trampoline ran" 0xfeed cpu.regs.(Isa.rax)

let test_trap_without_entry_faults () =
  Alcotest.check_raises "invalid opcode" (Vm.Cpu.Invalid_opcode 0x400000)
    (fun () -> ignore (exec [ i Isa.Trap; i Isa.Ret ]))

let test_timeout () =
  let code, _ =
    Asm.assemble ~origin:0x400000
      [ Asm.Label "spin"; Asm.Jmp_l "spin" ]
  in
  let cpu = Vm.Cpu.create ~max_steps:1000 () in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  Alcotest.check_raises "timeout" (Vm.Cpu.Timeout 1000) (fun () ->
      ignore (Vm.Cpu.run cpu null_rt ~entry:0x400000))

let test_exit_code () =
  let cpu = Vm.Cpu.create () in
  let code, _ =
    Asm.assemble ~origin:0x400000
      [ i (Isa.Mov_ri (Isa.rdi, 3)); i (Isa.Callrt Isa.Exit); i Isa.Ret ]
  in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  Alcotest.(check int) "exit code" 3 (Vm.Cpu.run cpu null_rt ~entry:0x400000)

let test_cost_model_monotone () =
  let run items =
    let cpu = exec items in
    cpu.cycles
  in
  let base = run [ i (Isa.Nop 1); i Isa.Ret ] in
  let with_mem =
    run
      [
        i (Isa.Mov_ri (Isa.rbx, 0x7f0000));
        i (Isa.Load (Isa.W8, Isa.rax, Isa.mem ~base:Isa.rbx ()));
        i Isa.Ret;
      ]
  in
  Alcotest.(check bool) "memory access costs more" true (with_mem > base + 1)

let test_dispatch_cost () =
  let run dispatch =
    let code, _ =
      Asm.assemble ~origin:0x400000 [ i (Isa.Nop 1); i (Isa.Nop 1); i Isa.Ret ]
    in
    let cpu = Vm.Cpu.create () in
    Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
    Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
    cpu.regs.(Isa.rsp) <- 0x7fff00;
    cpu.dispatch_cost <- dispatch;
    let (_ : int) = Vm.Cpu.run cpu null_rt ~entry:0x400000 in
    cpu.cycles
  in
  Alcotest.(check int) "DBI dispatch charged per instruction"
    (run 0 + (3 * 5))
    (run 5)

(* --- decoded-instruction tables ---------------------------------------- *)

module R = Binfmt.Relf

let text_binary ?(entry = 0x400000) code =
  {
    R.entry;
    pic = false;
    stripped = true;
    sections = [ R.section ~executable:true ~name:".text" ~addr:0x400000 code ];
  }

(* load [bin] into a fresh VM (stack included) and run it from [entry] *)
let run_loaded ?entry (bin : R.t) =
  let cpu = Vm.Cpu.create () in
  R.load_into cpu.mem bin;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  let (_ : int) =
    Vm.Cpu.run cpu null_rt ~entry:(Option.value entry ~default:bin.entry)
  in
  cpu

let test_code_store_faults () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:0x1000 ~len:0x1000;
  Vm.Mem.add_code m (Vm.Code.create ~base:0x1010 ~size:0x10);
  Vm.Mem.write m ~addr:0x1000 ~len:8 7;
  Alcotest.(check int) "a store beside the code lands" 7
    (Vm.Mem.read m ~addr:0x1000 ~len:8);
  Alcotest.check_raises "store into code" (Vm.Mem.Segfault 0x1010) (fun () ->
      Vm.Mem.write m ~addr:0x1010 ~len:1 0);
  Alcotest.check_raises "a store reaching into code faults at its first code byte"
    (Vm.Mem.Segfault 0x1010) (fun () -> Vm.Mem.write m ~addr:0x100c ~len:8 0);
  Alcotest.(check int) "code stays readable" 0 (Vm.Mem.read m ~addr:0x1010 ~len:8)

(* Jump into the immediate of a [mov rcx, imm64] whose bytes encode
   [mov rax, rdx; ret]: the fetch decodes from the byte it lands on,
   on a table that already holds the enclosing instruction. *)
let test_jump_into_instruction () =
  let inner = Encode.encode_seq ~addr:0 [ Isa.Mov_rr (Isa.rax, Isa.rdx); Isa.Ret ] in
  let imm = ref 0 in
  String.iteri (fun k c -> imm := !imm lor (Char.code c lsl (8 * k))) inner;
  let host = Isa.Mov_ri (Isa.rcx, !imm) in
  let host_bytes = Encode.encode_seq ~addr:0 [ host ] in
  let k =
    let n = String.length inner in
    let rec find k =
      if String.sub host_bytes k n = inner then k else find (k + 1)
    in
    find 0
  in
  let prog target =
    [ i (Isa.Mov_ri (Isa.rdx, 77)); i (Isa.Jmp target); Asm.Label "host"; i host; i Isa.Ret ]
  in
  let _, labels = Asm.assemble ~origin:0x400000 (prog 0x400000) in
  let host_addr = Hashtbl.find labels "host" in
  let code, _ = Asm.assemble ~origin:0x400000 (prog (host_addr + k)) in
  let bin = text_binary code in
  let straight = run_loaded ~entry:host_addr bin in
  Alcotest.(check int) "the host instruction runs whole" !imm straight.regs.(Isa.rcx);
  let inside = run_loaded bin in
  Alcotest.(check int) "decoded from the byte jumped to" 77 inside.regs.(Isa.rax);
  Alcotest.(check int) "the host instruction never ran" 0 inside.regs.(Isa.rcx)

let undecodable_byte () =
  List.find
    (fun b ->
      match Decode.decode ~addr:0 (String.make 1 (Char.chr b) ^ String.make 39 '\000') 0 with
      | _ -> false
      | exception Decode.Decode_error _ -> true)
    (List.init 256 Fun.id)

let test_decode_failure_not_cached () =
  let code, _ = Asm.assemble ~origin:0x400000 [ i (Isa.Nop 1) ] in
  let bin = text_binary (code ^ String.make 1 (Char.chr (undecodable_byte ())) ^ "\000") in
  for run = 1 to 3 do
    match run_loaded bin with
    | _ -> Alcotest.failf "run %d: the undecodable byte ran" run
    | exception Decode.Decode_error _ -> ()
  done

let test_code_table_shared () =
  let code, _ = Asm.assemble ~origin:0x400000 [ i (Isa.Mov_ri (Isa.rax, 5)); i Isa.Ret ] in
  let bin = text_binary code in
  let text = R.text_exn bin in
  let a = run_loaded bin and b = run_loaded bin in
  Alcotest.(check int) "same result" a.regs.(Isa.rax) b.regs.(Isa.rax);
  Alcotest.(check bool) "runs on one domain share the table" true
    (a.code == b.code && a.code == R.code_table text);
  let other = Domain.join (Domain.spawn (fun () -> R.code_table text)) in
  Alcotest.(check bool) "another domain has its own" true (other != R.code_table text)

(* Once the table is filled, a step allocates nothing: no option,
   tuple or closure per fetch or jump.  A second run over the loaded
   binary is measured; its set-up allocates a few hundred words. *)
let test_step_allocation_free () =
  let open Isa in
  let code, _ =
    Asm.assemble ~origin:0x400000
      [
        i (Mov_ri (rcx, 10_000));
        i (Mov_ri (rbx, 0x7f0100));
        Asm.Label "loop";
        i (Store (W8, mem ~base:rbx (), rcx));
        i (Load (W8, rax, mem ~base:rbx ()));
        i (Alu_rr (Add, rdx, rax));
        Asm.Call_l "fn";
        i (Alu_ri (Sub, rcx, 1));
        i (Cmp_ri (rcx, 0));
        Asm.Jcc_l (Ne, "loop");
        i Ret;
        Asm.Label "fn";
        i (Push rax);
        i (Pop rax);
        i Ret;
      ]
  in
  let bin = text_binary code in
  let (_ : Vm.Cpu.t) = run_loaded bin in
  let before = Gc.minor_words () in
  let cpu = run_loaded bin in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d steps" words cpu.steps)
    true
    (cpu.steps > 100_000 && words < 2000.0)

(* the table of a binary nothing refers to any more is collected *)
let weak_table () =
  let code, _ = Asm.assemble ~origin:0x400000 [ i (Isa.Mov_ri (Isa.rax, 5)); i Isa.Ret ] in
  let bin = text_binary code in
  let (_ : Vm.Cpu.t) = run_loaded bin in
  let w = Weak.create 1 in
  Weak.set w 0 (Some (R.code_table (R.text_exn bin)));
  w
[@@inline never]

let test_code_table_collected () =
  let w = weak_table () in
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "collected with its binary" false (Weak.check w 0)

(* MiniC source through the compiler, as a binary *)
let compile src = Minic.Codegen.compile (Minic.Parser.parse_program src)

let verdicts bin =
  let _, base = Redfat.run_baseline bin in
  ( Redfat.verdict_to_string base,
    List.map
      (fun backend ->
        let hard = Redfat.harden ~opts:{ Redfat.Rewrite.optimized with backend } bin in
        ( Backend.Check_backend.name backend,
          Redfat.verdict_to_string (Redfat.run_hardened hard.binary).verdict ))
      Backend.Check_backend.all )

let test_text_store_segfaults () =
  let bin = compile "fn main() { var p = &main; p[1] = 7; print(1); return 0; }" in
  let text = R.text_exn bin in
  let base, hard = verdicts bin in
  let addr = Scanf.sscanf base "fault: segfault at %i" Fun.id in
  Alcotest.(check bool) "the baseline faults inside .text" true
    (addr >= text.addr && addr < text.addr + String.length text.bytes);
  List.iter
    (fun (name, v) -> Alcotest.(check string) ("hardened, " ^ name) base v)
    hard

let test_null_load_segfaults () =
  let bin = compile "fn main() { var p = 0; print(p[0]); return 0; }" in
  let base, hard = verdicts bin in
  Alcotest.(check string) "baseline" "fault: segfault at 0" base;
  List.iter
    (fun (name, v) -> Alcotest.(check string) ("hardened, " ^ name) base v)
    hard

let tests =
  [
    Alcotest.test_case "mem rw widths" `Quick test_mem_rw_widths;
    Alcotest.test_case "mem negative round-trip" `Quick
      test_mem_negative_roundtrip;
    Alcotest.test_case "mem page crossing" `Quick test_mem_page_crossing;
    Alcotest.test_case "mem segfault" `Quick test_mem_segfault;
    Alcotest.test_case "mem unmap" `Quick test_mem_unmap;
    Alcotest.test_case "mem sparse far addresses" `Quick
      test_mem_sparse_far_addresses;
    QCheck_alcotest.to_alcotest prop_mem_matches_page_model;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "logic" `Quick test_logic;
    Alcotest.test_case "condition codes" `Quick test_conditions;
    Alcotest.test_case "loops and branches" `Quick test_loop_and_branches;
    Alcotest.test_case "call/ret stack" `Quick test_call_ret_stack;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "memory operands" `Quick test_memory_operands;
    Alcotest.test_case "lea" `Quick test_lea;
    Alcotest.test_case "scripted io" `Quick test_io_runtime;
    Alcotest.test_case "division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "indirect call/jump" `Quick
      test_indirect_call_and_jump;
    Alcotest.test_case "trap table" `Quick test_trap_table;
    Alcotest.test_case "trap without entry" `Quick
      test_trap_without_entry_faults;
    Alcotest.test_case "timeout" `Quick test_timeout;
    Alcotest.test_case "exit code" `Quick test_exit_code;
    Alcotest.test_case "memory access cost" `Quick test_cost_model_monotone;
    Alcotest.test_case "dispatch cost" `Quick test_dispatch_cost;
    Alcotest.test_case "store into code faults" `Quick test_code_store_faults;
    Alcotest.test_case "jump into an instruction" `Quick test_jump_into_instruction;
    Alcotest.test_case "decode failures are not cached" `Quick
      test_decode_failure_not_cached;
    Alcotest.test_case "code table shared per domain" `Quick test_code_table_shared;
    Alcotest.test_case "a step allocates nothing" `Quick test_step_allocation_free;
    Alcotest.test_case "code table collected with its binary" `Quick
      test_code_table_collected;
    Alcotest.test_case "store into .text segfaults" `Quick test_text_store_segfaults;
    Alcotest.test_case "NULL load segfaults when hardened" `Quick
      test_null_load_segfaults;
  ]
