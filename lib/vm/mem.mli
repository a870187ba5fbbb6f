(** Sparse paged memory over a simulated 64-bit virtual address space.

    Pages are 4 KiB.  {!map} reserves pages as intervals, so its cost
    does not grow with the length mapped; a reserved page is
    materialized (zero-filled) on its first access.  Accessing an
    unmapped page raises {!Segfault}, like the MMU would.  Addresses
    are OCaml [int]s (the simulated layout tops out at a few TiB).

    The loaded executable sections are read-only: each carries its
    decoded-instruction table ({!add_code}), and a store into one
    raises {!Segfault}. *)

exception Segfault of int
(** Raised with the faulting address on access to an unmapped page or
    on a store into a loaded executable section.  Multi-byte accesses
    fault on their first faulting byte. *)

val page_bits : int
val page_size : int

type t

val create : unit -> t

val map : t -> addr:int -> len:int -> unit
(** Reserve every page covering [addr, addr+len) as demand-zero: it
    reads as zeros, and its backing bytes appear on first access.
    Pages already mapped keep their contents. *)

val unmap : t -> addr:int -> len:int -> unit
(** Remove the mapping of every page covering [addr, addr+len),
    dropping their contents and any code table inside them; later
    access faults. *)

val is_mapped : t -> int -> bool

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read : t -> addr:int -> len:int -> int
(** Little-endian read of [len] in {1,2,4,8} bytes, zero-extended.
    An 8-byte read reconstructs a stored OCaml int exactly. *)

val write : t -> addr:int -> len:int -> int -> unit

val write_string : t -> addr:int -> string -> unit
(** Map and copy a byte string, page by page (used by the loader and
    by tests that poke code into memory); read-only ranges are not
    checked. *)

val add_code : t -> Code.t -> unit
(** Attach the decoded-instruction table of a loaded executable
    section; its range becomes read-only.  Used by the loader. *)

val code : t -> Code.t list
(** The attached code tables, most recent first. *)

val read_string : t -> addr:int -> len:int -> string
(** Read up to [len] bytes, stopping early at the first unmapped page
    (used by the instruction fetcher). *)
