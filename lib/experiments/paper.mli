(** The paper's published numbers, embedded for side-by-side comparison.

    Only values printed in the paper are recorded; figures 4-1..4-4 were
    charts without readable absolute values, so for them we compare against
    the qualitative anchors stated in the text (§4.3.3, §4.4). *)

val table_4_4 : (string * (float * float * float)) list
(** name, (AMap s, RIMAS s, Overall s). *)

val table_4_5 : (string * (float * float * float)) list
(** name, (pure-IOU s, RS s, pure-copy s). *)

val insert_range_s : float * float
(** 0.263 (Minprog) .. 0.853 (Lisp-Del). *)

val max_copy_over_iou : float
(** 1000: pure-copy's address-space transfer takes "up to 1,000 times"
    pure-IOU's (Lisp-Del in Table 4-5). *)

val byte_savings_pct : float
(** 58.2: mean byte-traffic reduction, IOU vs copy, no prefetch. *)

val message_cost_savings_pct : float
(** 47.8: mean message-handling reduction, IOU vs copy, no prefetch. *)

val remote_fault_ms : float
(** 115: end-to-end imaginary fault service time. *)

val local_disk_fault_ms : float
(** 40.8 *)

val minprog_iou_slowdown : float
(** 44: Minprog executes ~44x slower remotely under pure IOU. *)

val chess_iou_penalty_pct : float
(** ~3: Chess runs only about 3% longer under IOU. *)

val pasmac_hit_ratio : float
(** 0.78 across all prefetch values. *)

val lisp_hit_ratio_range : float * float
(** 0.40 down to 0.20 as prefetch grows. *)
