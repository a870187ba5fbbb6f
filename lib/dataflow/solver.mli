(** A generic worklist fixpoint solver, functorized over the lattice. *)

module type PROBLEM = sig
  type fact

  val equal : fact -> fact -> bool
  val direction : [ `Forward | `Backward ]

  val init : fact
  (** Optimistic starting value for every non-boundary node. *)

  val boundary : fact
  (** Fact at roots (forward) / blocks without successors (backward). *)

  val join : fact -> fact -> fact

  val succs : Graph.t -> Graph.block -> int list
  (** The edge relation the problem flows along. *)

  val transfer : Graph.t -> Graph.block -> fact -> fact
end

module Make (P : PROBLEM) : sig
  type result = { in_facts : P.fact array; out_facts : P.fact array }

  val solve : Graph.t -> result
  (** Fixpoint facts at every block boundary, indexed by block id.
      Terminates for any finite-height lattice. *)
end
