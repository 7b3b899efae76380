(** Virtual addresses and half-open address ranges.

    Accent gives each process a 4-gigabyte virtual address space; addresses
    are plain ints (63-bit on every supported platform), ranges are
    half-open [lo, hi). *)

type range = { lo : int; hi : int }

val space_limit : int
(** 4 GB: one past the largest valid address. *)

val range : int -> int -> range
(** [range lo hi] checks [0 <= lo <= hi <= space_limit]. *)

val of_len : int -> int -> range
(** [of_len lo len] is [range lo (lo + len)]. *)

val len : range -> int
val contains : range -> int -> bool
val overlaps : range -> range -> bool
val intersect : range -> range -> range option
val page_aligned : range -> bool

val align_out : range -> range
(** Smallest page-aligned range containing the argument. *)

val pp : Format.formatter -> range -> unit
