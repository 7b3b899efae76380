(** The content-addressed transfer experiment.

    How many bytes does the digest-first protocol keep off the wire when
    a process migrates to a host that has already seen (some of) its
    pages?  Each cell runs the same two-migration scenario twice — a
    content-identical warm process migrates first, then the measured
    process follows — once with dedup off and once with it on, and
    compares the measured migration's total wire bytes.

    The [overlap] axis is realised as the destination store's LRU
    capacity (that fraction of the warm process's pages is retained when
    the second migration's digests arrive), so the sweep exercises
    eviction as well as lookup; [0.] runs with a disabled (capacity-0)
    digest index and measures pure handshake overhead. *)

type cell = {
  overlap : float;
  strategy : Accent_core.Strategy.t;
  off : Accent_core.Report.t;  (** the measured migration, dedup off *)
  on_ : Accent_core.Report.t;  (** the measured migration, dedup on *)
}

type t = {
  spec : Accent_workloads.Spec.t;
  seed : int64;
  cells : cell list;
}

val reduction_pct : cell -> float
(** Percent of the dedup-off wire bytes the dedup-on run avoided. *)

val run :
  ?seed:int64 ->
  ?spec:Accent_workloads.Spec.t ->
  ?overlaps:float list ->
  ?strategies:Accent_core.Strategy.t list ->
  unit ->
  t
(** Defaults: pm_start, pure-copy and hybrid, overlaps 0, 0.5, 0.9 and 1. *)

val to_csv : t -> string
val render : t -> string
