(** Figure 4-3: bytes transferred between the machines per trial, from the
    migration request to remote completion, plus the headline average
    savings of pure-IOU over pure-copy. *)

val bytes : Trial.summary -> float
val render : Sweep.t -> string

val mean_iou_savings_pct : Sweep.t -> float
(** Mean over representatives of the no-prefetch IOU byte reduction
    relative to pure-copy — 58.2% in the paper. *)
