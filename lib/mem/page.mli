(** Pages: the 512-byte unit of all memory movement in Accent.

    A page's contents are an immutable {!value}: either symbolic ([Zero],
    or [Pattern] — deterministically generated from a [(tag, idx)] key) or
    a materialized [Literal].  Symbolic pages hold no page bytes and are
    never copied however many hops they travel; [Zero] is a constant and
    costs no heap space, while a [Pattern] value is a 3-word block (one
    is built per page whenever a generator run is read page by page:
    {!Page_run.get}, [iteri], [to_array]).  A page only becomes
    [Literal] when something actually writes to it ([of_bytes] at the
    mutation edge).  Every value carries (or can derive in O(1) amortized
    time) a digest equal to {!checksum} of its materialized bytes, so the
    migration machinery can compare and checksum pages without ever
    allocating their contents.

    Pattern digests are memoized per domain in 64-page chunks, and the
    run-level {!sink} reads that memo a chunk at a time and computes
    Pattern checksums four pages per loop ({!Page_run.digests} and
    {!Page_run.checksums} are built on it).  {!checksum_value} and a
    sink made with [~memo:false] never read the memo or a stored
    digest. *)

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
    in 64-slot chunks keyed by [(tag, idx / 64)] (a pair with [tag]
    outside \[0, 2{^30}) or [idx] outside \[0, 2{^32}) is never
    memoized). *)

val checksum_value : value -> int
(** [checksum (to_bytes v)], re-derived from the content on every call:
    no memo, no stored digest, no copy.  The check for a value whose
    digest cannot be trusted (off the wire, out of a store). *)

(** {1 Digests a run at a time} *)

type sink
(** Fills an [int array] with one digest per page.  Pattern pages are
    computed four at a time in one loop of four independent LCG→FNV
    chains, bit-identical to the single-page checksum. *)

val sink : memo:bool -> int array -> sink
(** [sink ~memo out] writes into [out]: with [memo], each page's
    {!digest}, reading (and filling) the Pattern memo a chunk at a time;
    without it, each page's {!checksum_value}, re-derived from the
    content with no memo and no stored digest. *)

val sink_values : sink -> value array -> off:int -> len:int -> pos:int -> unit
(** The digests of [values.(off)] .. [values.(off + len - 1)] go to
    [out.(pos)] onwards. *)

val sink_pattern : sink -> tag:int -> first:index -> len:int -> pos:int -> unit
(** The digests of [pattern_value ~tag first] .. [pattern_value ~tag
    (first + len - 1)] go to [out.(pos)] onwards; no value is built. *)

val sink_close : sink -> unit
(** Computes the pages still waiting for a lane.  [out] is complete only
    after this call. *)

val equal_value : value -> value -> bool
(** Content equality across representations.  O(1) for same-shape
    symbolic values and digest-mismatched literals. *)

val is_symbolic : value -> bool
(** [true] for [Zero] and [Pattern] — pages that hold no bytes ([Zero]
    occupies no heap; a [Pattern] value is a 3-word block). *)

val values_of_bytes : bytes -> value array
(** Split a page-multiple buffer into one value per page (copying;
    all-zero pages collapse to [Zero]). *)

val bytes_of_values : value array -> bytes
(** Concatenate materialized page contents into one fresh buffer. *)
