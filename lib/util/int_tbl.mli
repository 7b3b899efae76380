(** Hash tables keyed by [int]: the stdlib [Hashtbl] functor applied to
    an integer key with a monomorphic equality and a few-instruction mix
    in place of the generic [caml_hash] C call and polymorphic compare.
    This is the one int-keyed instance the simulator's per-reference
    tables share (page tables, touched sets, working-set slot maps).

    Iteration order differs from the generic [Hashtbl]'s; callers that
    need a deterministic order sort what they fold. *)

include Hashtbl.S with type key = int
