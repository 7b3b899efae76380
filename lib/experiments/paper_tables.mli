(** The paper's §4 tables and bar-chart figures as {!Result_table.t}
    values, and the trial measures {!Claims} reads beside them.

    Tables 4-1..4-5 have one row per representative, keyed [process]; a
    column the paper printed carries Zayas's value in each cell of a row
    the paper has.  Figures 4-1..4-4 are long-form tables with one
    (process, strategy, prefetch) row per trial of the sweep; {!grid} and
    {!chart} render the paper's wide grid and bar panels from those same
    cells. *)

val table_4_1 :
  ?seed:int64 -> ?specs:Accent_workloads.Spec.t list -> unit -> Result_table.t
(** Address-space sizes in bytes: non-zero data (Real), allocated but
    untouched zero fill (RealZ), total validated memory, RealZ's share.
    They are the workload definition, so they match the paper exactly. *)

val table_4_2 :
  ?seed:int64 -> ?specs:Accent_workloads.Spec.t list -> unit -> Result_table.t
(** Resident set sizes at migration time, as a share of Real and of the
    total. *)

val table_4_3 : Sweep.t -> Result_table.t
(** Percent of Real (and, bracketed, of the total) shipped under pure-IOU
    and RS without prefetch: migration-time data plus demand fetches. *)

val table_4_4 : Sweep.t -> Result_table.t
(** Excision times in seconds (AMap, RIMAS, the whole ExciseProcess trap)
    beside the paper's, and this system's InsertProcess time. *)

val table_4_5 : Sweep.t -> Result_table.t
(** RIMAS transfer times in seconds under pure-IOU, RS and pure-copy,
    beside the paper's. *)

val figure_4_1 : Sweep.t -> Result_table.t
(** Remote execution seconds per trial. *)

val figure_4_2 : Sweep.t -> Result_table.t
(** {!speedup_pct} of each lazy trial over pure-copy (CSV column
    [speedup_pct]; no copy rows). *)

val figure_4_3 : Sweep.t -> Result_table.t
(** Bytes between the machines per trial. *)

val figure_4_4 : Sweep.t -> Result_table.t
(** Message-processing seconds per trial (both hosts' NetMsgServer and
    kernel IPC CPUs). *)

val grid : Result_table.t -> string
(** A long-form figure as text: one row per process, one column per trial
    cell (["iou pf0"] .. ["copy"]). *)

val chart : title:string -> unit_label:string -> Result_table.t -> string
(** A long-form figure as bar panels under [title], one per process, each
    scaled on its own like the paper's. *)

val penalties : Sweep.t -> string
(** Figure 4-1's footnote: each representative's {!iou_penalty} and IOU
    prefetch hit ratios. *)

(** {2 Trial measures} *)

val speedup_pct : baseline:Trial.summary -> Trial.summary -> float
(** [(T_copy - T_x) / T_copy * 100] over transfer + remote execution. *)

val iou_penalty : Sweep.rep_results -> float
(** Remote execution under IOU (no prefetch) over pure-copy's: ~44 for
    Minprog, ~1.03 for Chess in the paper. *)

val hit_ratio : Sweep.rep_results -> prefetch:int -> float option
(** Prefetch hit ratio of the IOU trial at that prefetch value. *)
