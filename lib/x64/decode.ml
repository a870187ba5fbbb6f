(** Binary decoder for x64l; the exact inverse of {!Encode}. *)

exception Decode_error of { addr : int; byte : int }

type cursor = { buf : string; mutable pos : int }

let u8 c =
  if c.pos >= String.length c.buf then
    raise (Decode_error { addr = c.pos; byte = -1 });
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let i8 c =
  let v = u8 c in
  if v > 127 then v - 256 else v

let i32 c =
  let b0 = u8 c and b1 = u8 c and b2 = u8 c and b3 = u8 c in
  let v = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
  if v > 0x7fff_ffff then v - (1 lsl 32) else v

let i64 c =
  let lo = Int64.of_int (i32 c) in
  let hi = Int64.of_int (i32 c) in
  Int64.to_int
    (Int64.logor
       (Int64.logand lo 0xffff_ffffL)
       (Int64.shift_left hi 32))

let alu_of = function
  | 0 -> Isa.Add | 1 -> Isa.Sub | 2 -> Isa.And | 3 -> Isa.Or | _ -> Isa.Xor

let shift_of = function 0 -> Isa.Shl | 1 -> Isa.Shr | _ -> Isa.Sar

let cc_of = function
  | 0 -> Isa.Eq | 1 -> Isa.Ne | 2 -> Isa.Lt | 3 -> Isa.Le | 4 -> Isa.Gt
  | 5 -> Isa.Ge | 6 -> Isa.Ult | 7 -> Isa.Ule | 8 -> Isa.Ugt | _ -> Isa.Uge

let rtfn_of addr = function
  | 0 -> Isa.Malloc | 1 -> Isa.Free | 2 -> Isa.Input | 3 -> Isa.Print
  | 4 -> Isa.Exit
  | b -> raise (Decode_error { addr; byte = b })

let width_of = function 0 -> Isa.W1 | 1 -> Isa.W2 | 2 -> Isa.W4 | _ -> Isa.W8

(* full-byte register fields must name a real register *)
let reg_checked addr b =
  if b < Isa.num_regs then b else raise (Decode_error { addr; byte = b })

let get_mem c : Isa.mem =
  let flags = u8 c in
  let has_base = flags land 1 <> 0 in
  let has_idx = flags land 2 <> 0 in
  let scale = 1 lsl ((flags lsr 2) land 3) in
  let disp_code = (flags lsr 4) land 3 in
  let has_seg = flags land 0x40 <> 0 in
  let base, idx =
    if has_base || has_idx then begin
      let rb = u8 c in
      ( (if has_base then Some (rb lsr 4) else None),
        if has_idx then Some (rb land 0xf) else None )
    end
    else (None, None)
  in
  let seg = if has_seg then u8 c else 0 in
  let disp = match disp_code with 0 -> 0 | 1 -> i8 c | _ -> i32 c in
  { Isa.seg; disp; base; idx; scale }

(** [decode ~addr buf off] decodes one instruction whose first byte is
    [buf.[off]] and whose virtual address is [addr].  Returns the
    instruction and its encoded length. *)
let decode ~(addr : int) (buf : string) (off : int) : Isa.instr * int =
  let c = { buf; pos = off } in
  let op = u8 c in
  let regpair () =
    let b = u8 c in
    (b lsr 4, b land 0xf)
  in
  let rel32 pre_len =
    (* instruction length = 1 + pre_len + 4 *)
    let _ = pre_len in
    let r = i32 c in
    addr + (c.pos - off) + r
  in
  let i : Isa.instr =
    if op >= Encode.op_push && op < Encode.op_push + 16 then
      Push (op - Encode.op_push)
    else if op >= Encode.op_pop && op < Encode.op_pop + 16 then
      Pop (op - Encode.op_pop)
    else if op >= Encode.op_alu_rr && op < Encode.op_alu_rr + 5 then begin
      let d, s = regpair () in
      Alu_rr (alu_of (op - Encode.op_alu_rr), d, s)
    end
    else if op >= Encode.op_alu_ri && op < Encode.op_alu_ri + 5 then begin
      let d = reg_checked addr (u8 c) in
      let v = i32 c in
      Alu_ri (alu_of (op - Encode.op_alu_ri), d, v)
    end
    else if op >= Encode.op_shift_ri && op < Encode.op_shift_ri + 3 then begin
      let r = reg_checked addr (u8 c) in
      let n = u8 c in
      if n > 63 then raise (Decode_error { addr; byte = n });
      Shift_ri (shift_of (op - Encode.op_shift_ri), r, n)
    end
    else
      match op with
      | o when o = Encode.op_mov_rr ->
        let d, s = regpair () in
        Mov_rr (d, s)
      | o when o = Encode.op_mov_ri32 ->
        let d = reg_checked addr (u8 c) in
        Mov_ri (d, i32 c)
      | o when o = Encode.op_mov_ri64 ->
        let d = reg_checked addr (u8 c) in
        Mov_ri (d, i64 c)
      | o when o = Encode.op_load ->
        let w, r = regpair () in
        Load (width_of w, r, get_mem c)
      | o when o = Encode.op_store ->
        let w, r = regpair () in
        let m = get_mem c in
        Store (width_of w, m, r)
      | o when o = Encode.op_store_i ->
        let w, _ = regpair () in
        let m = get_mem c in
        Store_i (width_of w, m, i32 c)
      | o when o = Encode.op_lea ->
        let d = reg_checked addr (u8 c) in
        Lea (d, get_mem c)
      | o when o = Encode.op_mul_rr ->
        let d, s = regpair () in
        Mul_rr (d, s)
      | o when o = Encode.op_div_rr ->
        let d, s = regpair () in
        Div_rr (d, s)
      | o when o = Encode.op_rem_rr ->
        let d, s = regpair () in
        Rem_rr (d, s)
      | o when o = Encode.op_neg -> Neg (reg_checked addr (u8 c))
      | o when o = Encode.op_not -> Not (reg_checked addr (u8 c))
      | o when o = Encode.op_cmp_rr ->
        let a, b = regpair () in
        Cmp_rr (a, b)
      | o when o = Encode.op_cmp_ri ->
        let a = reg_checked addr (u8 c) in
        Cmp_ri (a, i32 c)
      | o when o = Encode.op_test_rr ->
        let a, b = regpair () in
        Test_rr (a, b)
      | o when o = Encode.op_setcc ->
        let cc, r = regpair () in
        Setcc (cc_of cc, r)
      | o when o = Encode.op_jmp -> Jmp (rel32 0)
      | o when o = Encode.op_jcc ->
        let cc = cc_of (u8 c) in
        Jcc (cc, rel32 1)
      | o when o = Encode.op_call -> Call (rel32 0)
      | o when o = Encode.op_call_ind -> Call_ind (reg_checked addr (u8 c))
      | o when o = Encode.op_jmp_ind -> Jmp_ind (reg_checked addr (u8 c))
      | o when o = Encode.op_ret -> Ret
      | o when o = Encode.op_callrt -> Callrt (rtfn_of addr (u8 c))
      | o when o = Encode.op_nop -> Nop 1
      | o when o = Encode.op_hlt -> Hlt
      | o when o = Encode.op_trap -> Trap
      | o when o = Encode.op_check ->
        let flags = u8 c in
        let nsaves = u8 c in
        let m = get_mem c in
        let lo = i32 c in
        let hi = i32 c in
        let site = i32 c in
        Check
          { ck_variant =
              (if flags land 1 <> 0 then Isa.Full
               else if flags land 8 <> 0 then Isa.Temporal
               else Isa.Redzone);
            ck_mem = m;
            ck_lo = lo;
            ck_hi = hi;
            ck_write = flags land 2 <> 0;
            ck_site = site;
            ck_nsaves = nsaves;
            ck_save_flags = flags land 4 <> 0 }
      | b -> raise (Decode_error { addr; byte = b })
  in
  (i, c.pos - off)
