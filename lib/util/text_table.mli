(** Aligned plain-text tables, used to print the paper's tables from the
    benchmark harness. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers and
    alignments. *)

val add_row : t -> string list -> unit
(** Append a row.  Raises [Invalid_argument] if the arity does not match the
    header. *)

val add_rule : t -> unit
(** Append a horizontal rule (drawn when rendered). *)

val render : t -> string
(** The full table as a string, trailing newline included. *)

val print : t -> unit
(** [render] to stdout. *)

(** {2 Cell formatting helpers} *)

val cell_f : ?dec:int -> float -> string
(** Fixed-point float cell, default 2 decimals. *)

val cell_bytes : int -> string
(** Comma-separated byte count, matching the paper's style. *)
