(** Figure 4-1: remote execution times in seconds — restart at the new
    host to termination — for every strategy and prefetch value, plus the
    §4.3.3 anchors: prefetch hit ratios and the IOU execution penalty
    relative to pure-copy. *)

val render : Sweep.t -> string

val remote_seconds : Trial.summary -> float

val iou_penalty : Sweep.rep_results -> float
(** Remote execution time under IOU (no prefetch) divided by pure-copy's —
    ~44 for Minprog, ~1.03 for Chess in the paper. *)

val hit_ratio : Sweep.rep_results -> prefetch:int -> float option
(** Prefetch hit ratio of the IOU trial at that prefetch value. *)
