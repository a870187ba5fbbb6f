(** Decoded-instruction tables: one slot per byte offset of a code
    range, filled on first fetch.

    A table covers [base, base+size).  The interpreter fills a slot
    the first time it fetches the instruction starting at that byte
    and reads it back by array index from then on.  A jump into the
    middle of an instruction simply fills another slot: each slot
    decodes from its own first byte.  Only successful decodes are
    stored, and only when the whole instruction lies inside the
    range, so a slot is a pure function of the range's bytes. *)

type entry = { ins : X64.Isa.instr; len : int }

type t = { base : int; size : int; slots : entry array }

(* [len = 0] marks a slot not decoded yet *)
let empty = { ins = X64.Isa.Hlt; len = 0 }

let create ~base ~size = { base; size; slots = Array.make size empty }

(* the table that covers nothing: the interpreter's starting point *)
let none = create ~base:0 ~size:0

let contains t addr = addr >= t.base && addr - t.base < t.size
