(** Machine-readable export of every reproduced table and figure.

    `dune exec bench/main.exe -- --csv DIR` (and
    `accentctl evaluate --csv DIR`) drop one CSV per artifact into [DIR]
    so the results can be plotted or diffed without parsing the text
    tables.  Values are written with enough precision to be compared
    across runs; the simulation is deterministic, so two runs at the same
    seed produce byte-identical files. *)

val csv_line : string list -> string
(** One properly-quoted CSV record (no trailing newline). *)

val table_4_1 : Table_4_1.row list -> string
val table_4_2 : Table_4_2.row list -> string
val table_4_3 : Table_4_3.row list -> string
val table_4_4 : Table_4_4.row list -> string
val table_4_5 : Table_4_5.row list -> string

val figure_grid :
  Sweep.t -> metric:(Trial.summary -> float) -> string
(** Long-format rows: representative, strategy, prefetch, value. *)

val figure_4_2 : Sweep.t -> string
(** Long-format speedup-over-copy rows (copy itself omitted). *)

val figure_4_5 : Figure_4_5.panel list -> string
(** Long-format rate series: strategy, second, fault_Bps, other_Bps. *)

val write_all : dir:string -> Sweep.t -> Figure_4_5.panel list -> unit
(** Write every artifact (plus the three figure grids) into [dir],
    creating it if needed. *)
