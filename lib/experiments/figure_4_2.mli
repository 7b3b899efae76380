(** Figure 4-2: overall migration speedup — transfer plus remote-execution
    time, each lazy strategy against pure-copy, across prefetch values.
    Positive bars are speedups, negative slowdowns. *)

val speedup_pct : baseline:Trial.summary -> Trial.summary -> float
(** [(T_copy - T_x) / T_copy * 100] over transfer + remote execution. *)

val render : Sweep.t -> string

val pf1_always_helps : Sweep.t -> bool
(** The paper's rule: prefetching one page improves on no prefetch in
    every IOU trial. *)
