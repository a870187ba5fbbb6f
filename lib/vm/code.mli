(** Decoded-instruction tables: one slot per byte offset of a code
    range, filled on first fetch by {!Cpu}.

    The loader ({!Binfmt.Relf.load_into}) attaches one table per
    executable section, shared by every run of that binary on a
    domain; {!Cpu} makes a per-run table for code outside every
    loaded executable section.  A slot holds an instruction only when
    it decoded and lies wholly inside the range, so a filled slot is a
    pure function of the range's bytes and a failed decode is retried
    (and fails again) on every fetch. *)

type entry = { ins : X64.Isa.instr; len : int }
(** A decoded instruction and its encoded length ([len = 0]: not
    decoded yet). *)

type t = private { base : int; size : int; slots : entry array }

val create : base:int -> size:int -> t
(** An empty table over [base, base+size). *)

val none : t
(** A table over no address at all. *)

val contains : t -> int -> bool
