(** The paper's reference rows and calibration inputs.

    Tables 4-4 and 4-5 print beside the measured tables ({!Paper_tables});
    the paper's scalar result figures are claims, checked by {!Claims}.
    The two fault times are the primitive measurements the cost model is
    calibrated against. *)

val table_4_4 : (string * (float * float * float)) list
(** name, (AMap s, RIMAS s, Overall s). *)

val table_4_5 : (string * (float * float * float)) list
(** name, (pure-IOU s, RS s, pure-copy s). *)

val remote_fault_ms : float
(** 115: end-to-end imaginary fault service time. *)

val local_disk_fault_ms : float
(** 40.8: a local disk fault. *)
