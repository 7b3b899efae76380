(** Ablations of the design choices DESIGN.md §7 calls out.

    Each returns its table as a {!Result_table.t}: [accentctl ablate]
    prints it, and the tests read its cells to assert the directions.
    Rows are in the order of the swept values.

    - {b bandwidth}: does the headline copy/IOU gap survive faster
      networks?  (§6 claims "any distributed system in the same class can
      expect similar results" — so what defines the class?)
    - {b caching}: switch off the NetMsgServer's §2.4 IOU caching and
      watch pure-IOU degenerate into a physical copy.
    - {b backer load}: §2.3 rates ImagMem "distantly accessible ... the
      load on the machines involved" — sweep the backing process's service
      time and watch remote execution stretch.
    - {b memory pressure}: shrink destination physical memory; pure-copy
      insertion starts thrashing the paging disk while IOU, which only
      materialises what is touched, barely notices.
    - {b strategy face-off}: pure-copy vs pure-IOU vs resident-set vs the
      pre-copy baseline on downtime, bytes, and end-to-end time. *)

val bandwidth_sweep :
  ?spec:Accent_workloads.Spec.t -> ?factors:float list -> unit ->
  Result_table.t
(** One keyless row per factor by which network and protocol byte costs
    shrink: [speedup], [copy_s] and [iou_s] (transfer), their [ratio],
    [copy_end_to_end_s], [iou_end_to_end_s]. *)

val caching_ablation : ?spec:Accent_workloads.Spec.t -> unit -> Result_table.t
(** Pure-IOU rows keyed ["on"] and ["off"]: [transfer_s], [bulk_bytes],
    [fault_bytes]. *)

val backer_load_sweep :
  ?spec:Accent_workloads.Spec.t -> ?lookups:float list -> unit ->
  Result_table.t
(** One keyless pure-IOU row per backing lookup time: [lookup_ms],
    [remote_exec_s], [per_fault_ms]. *)

val memory_pressure_sweep :
  ?spec:Accent_workloads.Spec.t -> ?frame_counts:int list -> unit ->
  Result_table.t
(** One keyless row per destination frame count: [frames],
    [copy_exec_s], [copy_disk_faults], [iou_exec_s], [iou_disk_faults]. *)

val strategy_face_off :
  ?spec:Accent_workloads.Spec.t -> ?write_fraction:float -> unit ->
  Result_table.t
(** Rows keyed by {!Accent_core.Strategy.name} (copy, iou+pf1, rs+pf1,
    precopy): [downtime_s], [bytes], [end_to_end_s], [message_s]. *)

val ws_vs_rs :
  ?spec:Accent_workloads.Spec.t -> ?migrate_after_ms:float -> unit ->
  Result_table.t
(** Live-migrate the process part-way through its run under resident-set
    shipment, working-set shipment (two windows) and pure IOU, and compare
    how much of the eagerly-shipped memory was actually wanted.  §4.2.2
    frames the resident set as a working-set approximation; this measures
    how much better the real estimator predicts.  Rows keyed ["rs"],
    ["ws 2s"], ["ws 10s"] (the working-set window) and ["iou"]; columns
    [shipped_bytes] (physically, at migration time), [demand_faults]
    (fetched afterwards), [useful_pct] (of the shipped pages, the share
    the process went on to touch: §4.3.4's "did it pay its way") and
    [end_to_end_s]. *)

val flow_window_sweep :
  ?spec:Accent_workloads.Spec.t -> ?windows:int list -> unit ->
  Result_table.t
(** What if the NetMsgServer pipelined instead of stop-and-wait?  Bulk
    transfers speed up with the window while the single-packet fault
    exchange is indifferent — the modernisation that erodes (but does not
    erase) the paper's headline gap.  Theimer's pre-copy measurements blamed
    exactly this kind of aggressive streaming for buffer overruns.  One
    keyless row per window: [window], [copy_s], [iou_s], [per_fault_ms]. *)

val adaptive_prefetch :
  ?specs:Accent_workloads.Spec.t list -> unit -> Result_table.t
(** §6: "tasks with special knowledge of the data requirements they will
    encounter may apply that knowledge".  The adaptive controller learns
    each program's prefetch sweet spot online: it should walk up towards
    large prefetch on Pasmac and down to one page on Lisp, approaching the
    best static setting for each without being told which is which.  Rows
    keyed by workload and ["pf0"], ["pf1"], ["pf7"], ["adaptive"]:
    [remote_exec_s], [bytes], [settled_at] (the adaptive row's final
    prefetch; nan on the static rows). *)

val run_all : unit -> unit
(** Print every ablation, then the cluster placement policies. *)
