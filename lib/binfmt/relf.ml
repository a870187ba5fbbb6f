(** RELF: the binary container format of the simulated toolchain.

    A stripped-down ELF analogue: named sections at fixed virtual
    addresses, an entry point, and PIC/stripped flags.  Crucially there
    is no symbol or type information — the rewriter sees exactly what
    RedFat sees in a stripped COTS binary: bytes, section boundaries,
    and an entry point. *)

type section = {
  name : string;
  addr : int;
  bytes : string;
  executable : bool;
  writable : bool;
}

type t = {
  entry : int;
  pic : bool;
  stripped : bool;
  sections : section list;
}

let magic = "RELF1\n"

let section ?(executable = false) ?(writable = false) ~name ~addr bytes =
  { name; addr; bytes; executable; writable }

let find_section t name = List.find_opt (fun s -> s.name = name) t.sections

let text_exn t =
  match find_section t ".text" with
  | Some s -> s
  | None -> invalid_arg "Relf.text_exn: no .text section"

let code_size t =
  List.fold_left
    (fun acc s -> if s.executable then acc + String.length s.bytes else acc)
    0 t.sections

let total_size t =
  List.fold_left (fun acc s -> acc + String.length s.bytes) 0 t.sections

(* --- serialization ------------------------------------------------- *)

let serialize (t : t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  let add_int v = Buffer.add_string b (Printf.sprintf "%x\n" v) in
  let add_str s =
    add_int (String.length s);
    Buffer.add_string b s
  in
  add_int t.entry;
  add_int (if t.pic then 1 else 0);
  add_int (if t.stripped then 1 else 0);
  add_int (List.length t.sections);
  List.iter
    (fun s ->
      add_str s.name;
      add_int s.addr;
      add_int ((if s.executable then 1 else 0) lor if s.writable then 2 else 0);
      add_str s.bytes)
    t.sections;
  Buffer.contents b

exception Parse_error of string

let parse (data : string) : t =
  let pos = ref 0 in
  let fail msg = raise (Parse_error msg) in
  if
    String.length data < String.length magic
    || String.sub data 0 (String.length magic) <> magic
  then fail "bad magic";
  pos := String.length magic;
  let read_int () =
    match String.index_from_opt data !pos '\n' with
    | None -> fail "truncated"
    | Some nl ->
      let s = String.sub data !pos (nl - !pos) in
      pos := nl + 1;
      (try int_of_string ("0x" ^ s) with _ -> fail ("bad int " ^ s))
  in
  let read_str () =
    let n = read_int () in
    if !pos + n > String.length data then fail "truncated string";
    let s = String.sub data !pos n in
    pos := !pos + n;
    s
  in
  let entry = read_int () in
  let pic = read_int () = 1 in
  let stripped = read_int () = 1 in
  let nsec = read_int () in
  let sections =
    List.init nsec (fun _ ->
        let name = read_str () in
        let addr = read_int () in
        let flags = read_int () in
        let bytes = read_str () in
        { name; addr; bytes;
          executable = flags land 1 <> 0;
          writable = flags land 2 <> 0 })
  in
  { entry; pic; stripped; sections }

let save path t =
  let oc = open_out_bin path in
  output_string oc (serialize t);
  close_out oc

let load_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s

(* --- loading into a VM --------------------------------------------- *)

(* A section at address 0 is file-only metadata ([.elimtab],
   [.traptab]), like a non-alloc ELF section: never mapped, so page 0
   stays unmapped and a NULL access faults in every binary. *)
let loadable s = s.addr <> 0

(* One decoded-instruction table per executable section and domain,
   shared by every run that loads the section.  Keyed by the section's
   physical identity through an ephemeron, so a dropped binary takes
   its tables with it. *)
module Code_memo = Ephemeron.K1.Make (struct
  type t = section

  let equal = ( == )
  let hash s = Hashtbl.hash s.addr lxor String.length s.bytes
end)

let code_memo : Vm.Code.t Code_memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Code_memo.create 16)

let code_table s =
  let memo = Domain.DLS.get code_memo in
  match Code_memo.find_opt memo s with
  | Some c -> c
  | None ->
    let c = Vm.Code.create ~base:s.addr ~size:(String.length s.bytes) in
    Code_memo.replace memo s c;
    c

(** Map the loadable sections into memory (an exec-style loader) and
    attach each executable one's decoded-instruction table, which
    makes it read-only. *)
let load_into (mem : Vm.Mem.t) (t : t) : unit =
  List.iter
    (fun s ->
      if loadable s then begin
        Vm.Mem.write_string mem ~addr:s.addr s.bytes;
        if s.executable then Vm.Mem.add_code mem (code_table s)
      end)
    t.sections

(** Disassemble the text section (for the CLI and debugging). *)
let disasm t =
  let s = text_exn t in
  X64.Disasm.dump ~addr:s.addr s.bytes
