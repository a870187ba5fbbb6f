(** Binary encoder for x64l.  Variable-length by design: the rewriter's
    patching problem exists because [jmp rel32] occupies 5 bytes while
    the smallest instrumentable instruction occupies 4. *)

exception Encode_error of string

val fits_i32 : int -> bool
val fits_i8 : int -> bool

(** {2 Opcode map (shared with {!Decode})} *)

val op_mov_rr : int
val op_mov_ri32 : int
val op_mov_ri64 : int
val op_load : int
val op_store : int
val op_store_i : int
val op_lea : int
val op_alu_rr : int
val op_alu_ri : int
val op_mul_rr : int
val op_div_rr : int
val op_rem_rr : int
val op_neg : int
val op_not : int
val op_shift_ri : int
val op_cmp_rr : int
val op_cmp_ri : int
val op_test_rr : int
val op_setcc : int
val op_jmp : int
val op_jcc : int
val op_call : int
val op_ret : int
val op_call_ind : int
val op_jmp_ind : int
val op_callrt : int
val op_push : int
val op_pop : int
val op_nop : int
val op_check : int
val op_trap : int
val op_hlt : int

val encode_at : Buffer.t -> int -> Isa.instr -> unit
(** [encode_at b addr i] appends the encoding of [i], with [addr] as
    the instruction's virtual address (for rel32 fields). *)

val length : Isa.instr -> int
(** Encoded length in bytes (address-independent). *)

val encode_seq : addr:int -> Isa.instr list -> string
(** Encode a straight-line sequence starting at [addr]. *)
