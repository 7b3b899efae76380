(** Immutable runs of page values with O(1) adoption, O(1)/O(log n)
    slicing and cheap concatenation.

    The wire path (RIMAS chunks, segment-store extents, cold runs, image
    runs) used to carry [Page.value array] everywhere, which forced an
    O(pages) copy at every hand-off: excision copied the space into the
    image, the image copied itself into chunks, chunks copied themselves
    into backing extents.  A [Page_run.t] is a read-only view — a slice
    of an adopted array, a symbolic pattern generator, or a concatenation
    of such parts — so those hand-offs become pointer adoption and the
    bytes are only ever materialized where a consumer genuinely reads
    them.  This is what keeps freeze/residual/cold-tail cost O(runs), not
    O(address-space pages).

    Digests are taken a run at a time too: {!digests} (the trusted
    names, through the Pattern memo) and {!checksums} (the integrity
    check, re-derived from content) hand a generator part over as its
    [(tag, first, len)], so it is never turned into values. *)

type t

val empty : t

val length : t -> int
(** Number of pages in the run. *)

val of_array : Page.value array -> t
(** Adopt [values] without copying.  The caller must not mutate the array
    afterwards — runs are shared freely across images, chunks and
    stores. *)

val copy_of_array : Page.value array -> t
(** Defensive variant of {!of_array} for callers that keep writing to
    their array. *)

val of_list : Page.value list -> t
val singleton : Page.value -> t

val pattern : tag:int -> first:Page.index -> len:int -> t
(** The run whose [i]th page is [Page.pattern_value ~tag (first + i)],
    represented symbolically in O(1) space. *)

val get : t -> int -> Page.value
(** O(1) for slices and generators, O(log parts) for concatenations. *)

val sub : t -> pos:int -> len:int -> t
(** A view of [pos, pos+len); never copies page values. *)

type builder
(** Growable accumulator for building a concatenation part by part with
    no intermediate list — the allocation-lean form of {!concat} for
    gather loops that discover parts one at a time. *)

val builder : unit -> builder
val builder_add : builder -> t -> unit
(** Append a run; empties are dropped and nested concatenations are
    flattened, preserving {!concat}'s structural invariants. *)

val builder_run : builder -> t
(** The concatenation of everything added so far. *)

val concat : t list -> t
(** Concatenation in O(total parts); nested concatenations are flattened
    one level so lookup depth stays bounded. *)

val to_array : t -> Page.value array
(** Materialize as a fresh array (O(length)). *)

val digests : t -> int array
(** [Page.digest] of every page, in order: the Pattern memo is read a
    64-page chunk at a time and its misses are computed four pages per
    loop, and a [Gen] part is never turned into values. *)

val checksums : t -> int array
(** [Page.checksum_value] of every page, in order: the integrity path,
    re-derived from the content with no memo and no stored digest
    (Pattern pages four per loop, Literal bytes hashed in place). *)

val iteri : (int -> Page.value -> unit) -> t -> unit
val init : int -> (int -> Page.value) -> t

val equal : t -> t -> bool
(** Element-wise {!Page.equal_value}: two runs are equal when they carry
    the same page contents, regardless of representation. *)
