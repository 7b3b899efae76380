(** Figure 4-4: elapsed node time spent processing the IPC messages of each
    trial (both hosts' NetMsgServer and kernel IPC CPUs), plus the headline
    average savings. *)

val seconds : Trial.summary -> float
val render : Sweep.t -> string

val mean_iou_savings_pct : Sweep.t -> float
(** 47.8% in the paper (IOU, no prefetch, vs pure-copy). *)

val pf1_reduces_cost : Sweep.t -> bool
(** §4.4.2: one page of prefetch slightly reduces total message-handling
    time across the representatives; more starts increasing it again. *)
