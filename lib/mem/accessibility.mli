(** The four memory "distances" Accent defines for accessibility maps
    (paper §2.3). *)

type t =
  | Real_zero_mem
      (** Validated but never touched; conceptually zero-filled.  Served by
          the cheap FillZero fault without consulting the disk. *)
  | Real_mem
      (** Present in physical memory or fetchable from the local paging
          disk. *)
  | Imag_mem
      (** Mapped to an imaginary segment: touching it sends an Imaginary
          Read Request through IPC to the backing port. *)
  | Bad_mem
      (** Not validated; touching it is an addressing error. *)

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
