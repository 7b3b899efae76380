(** The paper's scalar claims as one list: each claim is the value Zayas
    printed, the band a reproduction must land in, and how to measure it
    from one seed's evidence.

    {b The band rule.}  No claim carries a tolerance of its own:
    - a bare figure (58.2% fewer bytes) holds within ±10% of the paper's
      value;
    - a hedged figure ("~44×", "up to 1,000×", "practically independent")
      holds within ±25% of it;
    - a predicate ("prefetching one page always helps") measures 1 or 0
      and holds only at 1.

    A claim {e holds} when its band contains the measured value and
    {e misses} otherwise.  A claim known to miss carries a [deviation]
    note that names the cause; EXPERIMENTS.md lists the same notes under
    "Known deviations".  A claim about a range is two claims, one per
    end. *)

type evidence = {
  sweep : Sweep.t;
  panels : Figure_4_5.panel list;
      (** Figure 4-5's three Lisp-Del panels: pure-IOU, RS, pure-copy *)
  table_4_4 : Result_table.t;
  table_4_5 : Result_table.t;
  figure_4_3 : Result_table.t;
  figure_4_4 : Result_table.t;
}
(** What one seed's run measures: the trial grid, the rate panels and
    the four {!Paper_tables} of the grid the claims read. *)

val evidence : Sweep.t -> Figure_4_5.panel list -> evidence
(** The evidence of a sweep and its panels, each table built once. *)

type t = {
  name : string;
  paper : float;  (** the paper's value; 1 for a predicate *)
  band : float * float;  (** inclusive, from the band rule *)
  measure : evidence -> float option;
      (** [None] when the evidence lacks what the claim reads (a
          representative, a prefetch value, the panels) *)
  deviation : string option;  (** why the reproduction misses the band *)
}

val all : t list
(** Every claim: Table 4-5's copy/IOU ratio and IOU spread, the byte and
    message-cost savings, the Minprog and Chess penalties, the PM-Start
    and Lisp-Del hit ratios, the two prefetch-one predicates, the peak
    wire-rate cut and the InsertProcess range.  Where a [Result_table]
    holds the number, the measure reads its cells. *)

val find : string -> t
(** By [name].  Raises [Not_found]. *)

val holds : t -> float -> bool
(** Whether the band contains the value. *)

val unexplained : t list -> evidence -> t list
(** The claims that measure a value outside their band and carry no
    [deviation] note. *)

val replicate :
  ?seeds:int64 list ->
  ?specs:Accent_workloads.Spec.t list ->
  ?progress:bool ->
  unit ->
  (t * float option list) list
(** Every claim measured at each seed (default 1..5) over the full sweep
    of [specs] (default the seven representatives): same compositions,
    re-randomised layouts, touched sets and reference orders.  The
    panels are Lisp-Del's, and absent when [specs] lacks it.  [progress]
    (default true) prints one line per seed on stderr. *)

val render_replication : (t * float option list) list -> string
(** One row per claim: the paper's value, the band, the least..greatest
    measured value and in how many of the measuring seeds it holds ([-]
    where no seed measured it). *)
