(** Pages: the 512-byte unit of all memory movement in Accent.

    A page's contents are an immutable {!value}: either symbolic ([Zero],
    or [Pattern] — deterministically generated from a [(tag, idx)] key) or
    a materialized [Literal].  Symbolic pages cost no heap space and are
    never copied however many hops they travel; a page only becomes
    [Literal] when something actually writes to it ([of_bytes] at the
    mutation edge).  Every value carries (or can derive in O(1) amortized
    time) a digest equal to {!checksum} of its materialized bytes, so the
    migration machinery can compare and checksum pages without ever
    allocating their contents. *)

val size : int
(** 512, as in Accent. *)

type index = int
(** Page number: virtual address divided by {!size}. *)

val index_of_addr : int -> index
val addr_of_index : index -> int

val span : lo:int -> hi:int -> index * index
(** [span ~lo ~hi] is the inclusive range of page indices touched by the
    half-open byte range [lo, hi).  Requires [lo < hi]. *)

val count_in : lo:int -> hi:int -> int
(** Number of pages overlapping the byte range. *)

type data = bytes
(** Always exactly {!size} bytes long.  The mutable edge representation;
    all storage and transport layers hold {!value} instead. *)

val zero : unit -> data
(** A fresh zero-filled page. *)

val is_zero : data -> bool

val pattern : tag:int -> index -> data
(** [pattern ~tag idx] deterministically fills a page from [(tag, idx)], so
    every page of a synthetic process has distinct, checkable contents. *)

val checksum : data -> int
(** FNV-1a over the page contents (63-bit, non-cryptographic). *)

val copy : data -> data

(** {1 Immutable page values} *)

type value =
  | Zero  (** all '\000'; never materialized *)
  | Pattern of { tag : int; idx : index }
      (** generator-backed: the bytes [pattern ~tag idx], never
          materialized until someone needs them *)
  | Literal of { data : bytes; digest : int }
      (** materialized contents; [data] is owned by the value and must
          never be mutated — promotion goes through {!of_bytes} *)

val zero_value : value
val pattern_value : tag:int -> index -> value

val of_bytes : data -> value
(** Capture one page of bytes as a value.  The bytes are copied (the
    caller keeps ownership of its buffer); an all-zero page collapses to
    [Zero].  Raises if the buffer is not exactly {!size} bytes. *)

val to_bytes : value -> data
(** Materialize: always a fresh, caller-owned buffer. *)

val digest : value -> int
(** Equals [checksum (to_bytes v)], without materializing: constant for
    [Zero], precomputed for [Literal], memoized per domain for [Pattern]
    under one int packing [(tag, idx)] (a pair with [tag] outside
    \[0, 2{^30}) or [idx] outside \[0, 2{^32}) is never memoized). *)

val checksum_value : value -> int
(** [checksum (to_bytes v)], re-derived from the content on every call:
    no memo, no stored digest, no copy.  The check for a value whose
    digest cannot be trusted (off the wire, out of a store). *)

val equal_value : value -> value -> bool
(** Content equality across representations.  O(1) for same-shape
    symbolic values and digest-mismatched literals. *)

val is_symbolic : value -> bool
(** [true] for [Zero] and [Pattern] — pages that occupy no heap. *)

val values_of_bytes : bytes -> value array
(** Split a page-multiple buffer into one value per page (copying;
    all-zero pages collapse to [Zero]). *)

val bytes_of_values : value array -> bytes
(** Concatenate materialized page contents into one fresh buffer. *)
