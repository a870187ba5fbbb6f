(** RELF: the binary container of the simulated toolchain — a
    stripped-down ELF analogue (named sections at fixed virtual
    addresses, an entry point, PIC/stripped flags, no symbols). *)

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

val magic : string

val section :
  ?executable:bool ->
  ?writable:bool ->
  name:string ->
  addr:int ->
  string ->
  section

val find_section : t -> string -> section option

val text_exn : t -> section
(** The [.text] section; raises [Invalid_argument] if absent. *)

val code_size : t -> int
val total_size : t -> int

exception Parse_error of string

val serialize : t -> string
val parse : string -> t

val save : string -> t -> unit
val load_file : string -> t

val loadable : section -> bool
(** Whether the loader maps the section: every section but the
    file-only metadata at address 0 ([.elimtab], [.traptab]). *)

val load_into : Vm.Mem.t -> t -> unit
(** Map the loadable sections into memory (an exec-style loader).
    Each executable section gets its {!code_table} attached and is
    read-only from then on. *)

val code_table : section -> Vm.Code.t
(** The section's decoded-instruction table on the calling domain:
    made on first use, then shared by every run that loads this
    section (physically the same value) on that domain, and collected
    with the section. *)

val disasm : t -> string
(** Disassembly of the text section. *)
