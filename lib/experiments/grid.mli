(** Shared rendering for the per-representative × per-strategy figures. *)

val cells :
  Sweep.rep_results ->
  metric:(Trial.summary -> float) ->
  (string * float) list
(** One labelled value per strategy/prefetch cell: iou+pf*, rs+pf*, copy. *)

val table :
  Sweep.t -> title:string -> metric:(Trial.summary -> float) -> string
(** Numeric grid, representatives as rows and strategy cells as columns. *)

val chart :
  Sweep.t ->
  title:string ->
  unit_label:string ->
  metric:(Trial.summary -> float) ->
  string
(** Bar-chart rendering (one group per representative, individually
    scaled like the paper's panels). *)
