(** Figure 4-5: network byte-transfer rates over the migration and remote
    execution of Lisp-Del under the three strategies (no prefetch).

    Fault-driven traffic is drawn distinctly from bulk/control transfers,
    reproducing the paper's white-vs-black split: pure-copy shows its
    characteristic early bulk burst; pure-IOU a low, steady trickle that
    finishes while the copy transfer is still in flight. *)

type panel = {
  strategy : Accent_core.Strategy.t;
  fault : (float * float) array;  (** (second, bytes/s) bins *)
  other : (float * float) array;
  end_to_end_s : float;
}

val panels :
  ?seed:int64 -> ?spec:Accent_workloads.Spec.t -> unit -> panel list
(** Runs the three trials (default Lisp-Del, 1-second bins). *)

val render : panel list -> string

val peak_rate : panel -> float
(** Peak combined bytes/s — pure-IOU's should be far below pure-copy's
    ("sustained network transmission speeds are reduced up to 66%"). *)

val to_csv : panel list -> string
(** Long-form rate series, one line per [other] bin: strategy, second,
    fault bytes/s (0 where the bin has no fault traffic), other bytes/s. *)
