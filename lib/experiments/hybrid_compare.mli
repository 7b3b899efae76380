(** Push/pull split of the hybrid engine against its two parents.

    Pre-copy pushes everything (cold pages included) before restart;
    working-set pushes only its window estimate and pulls the rest on
    reference; the hybrid pushes the window in live rounds and leaves the
    cold tail pullable.  This table runs every representative workload
    under all three with the same write fraction and splits the memory
    traffic into bytes {e pushed} (rounds + freeze residual, or the
    physical RIMAS portion) and bytes {e pulled} (network faults and
    prefetch), alongside the freeze downtime each strategy imposes. *)

val rows :
  ?seed:int64 ->
  ?write_fraction:float ->
  ?migrate_after_ms:float ->
  unit ->
  Trial.summary list
(** Workload-major, strategy order pre-copy, working-set, hybrid.  The
    process runs at the source for [migrate_after_ms] (default one
    recency window, 5 s) before migration, so the push phase has a live
    working set to ship. *)

val render : Trial.summary list -> string
(** The rows as a {!Result_table}, a rule between workloads. *)

val to_csv : Trial.summary list -> string
