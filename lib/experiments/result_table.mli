(** A printed table as data: labelled rows of measured numbers, each
    optionally beside the value the paper printed, rendered once as an
    aligned text table and once as CSV.

    Every table the library and [accentctl] print as aligned text is one
    of these, so the text and the CSV of a table always show the same
    cells.  The simulation is deterministic: the same seed renders
    byte-identical text and CSV. *)

type align = Left | Right

type format =
  | Bytes  (** comma-grouped integer in text, [%d] in CSV *)
  | Fixed of int  (** [%.nf] in text *)
  | Bracketed of int  (** [[%.nf]] in text, the paper's share-of-total style *)
  | Custom of (float -> string)  (** [f v] in text *)
  | Text of align  (** a column of [Label]s; [Left] pads them on the right *)
(** How a column's values print.  Every non-[Bytes] value prints as
    [%.6f] in CSV, whatever its text precision.  Only a [Text] column
    may be left-aligned. *)

type column = {
  header : string;  (** text header *)
  csv : string;  (** CSV header *)
  format : format;
  in_paper : bool;
      (** the paper printed this column: its CSV gains a [paper_<csv>]
          column after the measured ones *)
}

type number = {
  measured : float;
  paper : float option;  (** the paper's value, where it printed one *)
}

type cell = Number of number | Label of string  (** printed as is *)

type row = {
  keys : string list;  (** one per [key_headers] entry *)
  cells : cell list;  (** one per column *)
}

type line = Row of row | Rule  (** a rule of dashes; CSV skips it *)

type t = {
  title : string;
  key_headers : (string * string) list;
      (** text and CSV header of each key column *)
  columns : column list;
  lines : line list;
}

val table :
  string -> ?keys:(string * string) list -> column list -> line list -> t
(** [table title ~keys columns lines], with no key columns by default. *)

val column : string -> string -> format -> column
(** [column header csv format]: a column the paper did not print. *)

val row : string list -> cell list -> line
(** [row keys cells]. *)

val measured : float -> cell
(** A number with no paper value. *)

val rows : t -> row list
(** The rows, without the rules.  [rows], [text], [csv] and [find] raise
    [Invalid_argument], naming the title, on a row whose key or cell
    count differs from the table's headers. *)

val text : t -> string
(** Aligned text under [title]: headers padded on the right and ruled
    off, keys left-aligned, each column as wide as its widest entry.  A
    number prints in its column's format, then [" (p)"] with the paper's
    value [p] at the same precision when it has one.  Trailing newline
    included. *)

val csv : t -> string
(** A header line, then one line per row: the keys, the measured values
    and labels in column order, then one [paper_<csv>] value per
    [in_paper] column, empty where the row has no paper value.  Every
    line ends in a newline. *)

val csv_line : string list -> string
(** One CSV record, quoting any field that holds a comma, a double quote
    or a newline (no trailing newline). *)

val find : t -> row:string list -> column:string -> number
(** The number in the row with those keys and the column with that CSV
    header.  Raises [Not_found] if either is absent or the cell is a
    [Label]. *)
