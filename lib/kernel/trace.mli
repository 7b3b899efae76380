(** Reference traces: the program behaviour a simulated process executes.

    A trace is the sequence of page references a program makes, each
    preceded by some compute time.  The microengine state we migrate is,
    operationally, "which step comes next" — so a trace plus a program
    counter is the whole execution context beyond memory. *)

type step = {
  page : Accent_mem.Page.index;  (** virtual page referenced *)
  think_ms : float;  (** compute time before the reference *)
  write : bool;  (** the reference stores (dirties the page) *)
}

val step_read : ?think_ms:float -> Accent_mem.Page.index -> step

type t

val of_steps : step list -> t
val of_array : step array -> t

val of_arrays :
  pages:Accent_mem.Page.index array ->
  think_ms:float array ->
  writes:Bytes.t ->
  t
(** Build a trace directly from its flat columns (one byte per step in
    [writes], zero meaning read).  The arrays are adopted, not copied —
    the caller must not mutate them afterwards.  This is the
    allocation-cheap constructor the workload generator uses; raises
    [Invalid_argument] on length mismatch. *)

val length : t -> int

val page_at : t -> int -> Accent_mem.Page.index
val think_at : t -> int -> float
val write_at : t -> int -> bool
(** Flat column reads of step [i]: no record is built and no float is
    boxed at the read site.  [step] records exist only to build traces
    ({!of_steps}); a built trace is read through these. *)

val total_think_ms : t -> float
(** Pure compute time of the whole trace — a lower bound on execution
    time with an infinitely fast memory system. *)

val distinct_pages : t -> int
val pages : t -> Accent_mem.Page.index list
(** Distinct pages in first-reference order. *)

val write_count : t -> int

val with_writes : rng:Accent_util.Rng.t -> fraction:float -> t -> t
(** Mark each step as a store with probability [fraction] — used to give a
    read trace the dirtying behaviour that pre-copy migration (Theimer's
    V system, §5) is sensitive to. *)
