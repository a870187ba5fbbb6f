(** Sparse paged memory over a simulated 64-bit virtual address space.

    Pages are 4 KiB.  [map] reserves them as page intervals and a page
    is materialized (zero-filled) on first touch; accessing an unmapped
    page faults, like the MMU would.  Addresses are OCaml [int]s: the
    simulated layout tops out at a few TiB (see {!Lowfat.Layout}),
    comfortably inside 62 bits. *)

exception Segfault of int

let page_bits = 12
let page_size = 1 lsl page_bits

module Imap = Map.Make (Int)
module Itbl = Hashtbl.Make (Int)

type t = {
  pages : Bytes.t Itbl.t;     (* materialized pages *)
  mutable reserved : int Imap.t;
  (* every mapped page, materialized or not, as disjoint and
     non-adjacent intervals first -> last *)
  (* one-entry cache: page lookups dominate the interpreter profile *)
  mutable last_page_no : int;
  mutable last_page : Bytes.t;
  (* the same for stores, holding only a page no code range touches *)
  mutable last_wpage_no : int;
  mutable last_wpage : Bytes.t;
  mutable code : Code.t list;
  (* the loaded executable sections: read-only, decoded once *)
}

let none = Bytes.create 0

(* small enough for the minor heap: a run touches tens to hundreds of
   pages, and the table grows as needed *)
let create () =
  {
    pages = Itbl.create 64;
    reserved = Imap.empty;
    last_page_no = -1;
    last_page = none;
    last_wpage_no = -1;
    last_wpage = none;
    code = [];
  }

(* is page [no] inside a reserved interval? *)
let reserved t no =
  match Imap.find_last_opt (fun first -> first <= no) t.reserved with
  | Some (_, last) -> no <= last
  | None -> false

(* Demand-zero paging: [map] only reserves; the backing bytes appear on
   first touch.  This keeps huge sparse allocations (the legacy heap
   serves multi-hundred-MB requests) and the 8 MiB stack cheap on the
   host. *)
let page_of t addr =
  let no = addr lsr page_bits in
  if no = t.last_page_no then t.last_page
  else
    (* [find], not [find_opt]: a lookup allocates nothing *)
    match Itbl.find t.pages no with
    | p ->
      t.last_page_no <- no;
      t.last_page <- p;
      p
    | exception Not_found ->
      if reserved t no then begin
        let p = Bytes.make page_size '\000' in
        Itbl.add t.pages no p;
        t.last_page_no <- no;
        t.last_page <- p;
        p
      end
      else raise (Segfault addr)

let is_mapped t addr = reserved t (addr lsr page_bits)

(** Reserve (demand-zero) every page covering [addr, addr+len): one
    interval, merged with any it overlaps or touches. *)
let map t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr page_bits and last = (addr + len - 1) lsr page_bits in
    let first, last =
      match Imap.find_last_opt (fun f -> f <= first) t.reserved with
      | Some (f, l) when l >= first - 1 ->
        t.reserved <- Imap.remove f t.reserved;
        (f, max l last)
      | _ -> (first, last)
    in
    let rec absorb last =
      match Imap.find_first_opt (fun f -> f > first) t.reserved with
      | Some (f, l) when f <= last + 1 ->
        t.reserved <- Imap.remove f t.reserved;
        absorb (max l last)
      | _ -> last
    in
    let last = absorb last in
    t.reserved <- Imap.add first last t.reserved
  end

(** Remove the mapping; later access faults.  Used to model redzone
    poisoning of never-reused areas and by tests.  Intervals that
    straddle the range are split. *)
let unmap t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr page_bits and last = (addr + len - 1) lsr page_bits in
    let rec cut () =
      match Imap.find_last_opt (fun f -> f <= last) t.reserved with
      | Some (f, l) when l >= first ->
        let m = Imap.remove f t.reserved in
        let m = if f < first then Imap.add f (first - 1) m else m in
        t.reserved <- (if l > last then Imap.add (last + 1) l m else m);
        cut ()
      | _ -> ()
    in
    cut ();
    Itbl.filter_map_inplace
      (fun no p -> if no >= first && no <= last then None else Some p)
      t.pages;
    if t.last_page_no >= first && t.last_page_no <= last then
      t.last_page_no <- -1;
    if t.last_wpage_no >= first && t.last_wpage_no <= last then
      t.last_wpage_no <- -1;
    let lo = first lsl page_bits and hi = (last + 1) lsl page_bits in
    t.code <-
      List.filter
        (fun (c : Code.t) -> c.base + c.size <= lo || c.base >= hi)
        t.code
  end

(** Attach a loaded executable section's decoded-instruction table:
    its bytes become read-only. *)
let add_code t (c : Code.t) =
  t.code <- c :: t.code;
  t.last_wpage_no <- -1

let code t = t.code

(* closure-free scans: a store's page-cache miss allocates nothing *)
let rec in_code addr = function
  | [] -> false
  | c :: rest -> Code.contains c addr || in_code addr rest

let rec code_overlaps lo hi = function
  | [] -> false
  | (c : Code.t) :: rest ->
    (c.base < hi && c.base + c.size > lo) || code_overlaps lo hi rest

(* the page a store to [addr] lands in.  Executable sections are
   read-only, like r-x text under a real loader, so a store into one
   faults; a page no code range touches is cached for the next store. *)
let wpage_of t addr =
  let no = addr lsr page_bits in
  if no = t.last_wpage_no then t.last_wpage
  else begin
    if in_code addr t.code then raise (Segfault addr);
    let p = page_of t addr in
    let lo = no lsl page_bits in
    if not (code_overlaps lo (lo + page_size) t.code) then begin
      t.last_wpage_no <- no;
      t.last_wpage <- p
    end;
    p
  end

let read_u8 t addr =
  let p = page_of t addr in
  Char.code (Bytes.unsafe_get p (addr land (page_size - 1)))

let write_u8 t addr v =
  let p = wpage_of t addr in
  Bytes.unsafe_set p (addr land (page_size - 1)) (Char.unsafe_chr (v land 0xff))

(** Little-endian read of [len] in {1,2,4,8} bytes, zero-extended.
    An 8-byte read reconstructs the stored 63-bit int. *)
(* explicit lets fix the evaluation (and hence faulting) order at the
   first byte of the access, like hardware would *)
let read t ~addr ~len =
  match len with
  | 1 -> read_u8 t addr
  | 2 ->
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (addr + 1) in
    b0 lor (b1 lsl 8)
  | 4 ->
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (addr + 1) in
    let b2 = read_u8 t (addr + 2) in
    let b3 = read_u8 t (addr + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  | 8 ->
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (addr + 1) in
    let b2 = read_u8 t (addr + 2) in
    let b3 = read_u8 t (addr + 3) in
    let b4 = read_u8 t (addr + 4) in
    let b5 = read_u8 t (addr + 5) in
    let b6 = read_u8 t (addr + 6) in
    let b7 = read_u8 t (addr + 7) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) lor (b4 lsl 32)
    lor (b5 lsl 40) lor (b6 lsl 48) lor (b7 lsl 56)
  | _ -> invalid_arg "Mem.read"

let write t ~addr ~len v =
  match len with
  | 1 -> write_u8 t addr v
  | 2 ->
    write_u8 t addr v;
    write_u8 t (addr + 1) (v lsr 8)
  | 4 ->
    write_u8 t addr v;
    write_u8 t (addr + 1) (v lsr 8);
    write_u8 t (addr + 2) (v lsr 16);
    write_u8 t (addr + 3) (v lsr 24)
  | 8 ->
    write_u8 t addr v;
    write_u8 t (addr + 1) (v lsr 8);
    write_u8 t (addr + 2) (v lsr 16);
    write_u8 t (addr + 3) (v lsr 24);
    write_u8 t (addr + 4) (v lsr 32);
    write_u8 t (addr + 5) (v lsr 40);
    write_u8 t (addr + 6) (v lsr 48);
    write_u8 t (addr + 7) (v lsr 56)
  | _ -> invalid_arg "Mem.write"

(* the loader's copy: page by page, past the read-only check *)
let write_string t ~addr s =
  let n = String.length s in
  map t ~addr ~len:n;
  let k = ref 0 in
  while !k < n do
    let a = addr + !k in
    let off = a land (page_size - 1) in
    let chunk = min (n - !k) (page_size - off) in
    Bytes.blit_string s !k (page_of t a) off chunk;
    k := !k + chunk
  done

(** Read up to [len] bytes starting at [addr], stopping early at the
    first unmapped page.  Used by the instruction fetcher. *)
let read_string t ~addr ~len =
  let b = Buffer.create len in
  (try
     for k = 0 to len - 1 do
       Buffer.add_char b (Char.chr (read_u8 t (addr + k)))
     done
   with Segfault _ -> ());
  Buffer.contents b
