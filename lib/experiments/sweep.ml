open Accent_core

type rep_results = {
  spec : Accent_workloads.Spec.t;
  copy : Trial.summary;
  iou : (int * Trial.summary) list;
  rs : (int * Trial.summary) list;
}

type t = rep_results list

let run ?seed ?costs ?on_event ?(specs = Accent_workloads.Representative.all)
    ?(prefetches = Strategy.paper_prefetch_values) ?(progress = true) () =
  let note fmt = Printf.ksprintf (fun s -> if progress then prerr_endline s) fmt in
  List.map
    (fun spec ->
      let trial strategy =
        note "  trial: %-9s %s" spec.Accent_workloads.Spec.name
          (Strategy.name strategy);
        Trial.summary (Trial.run ?seed ?costs ?on_event ~spec ~strategy ())
      in
      (* let-bound so that trials run, and print progress, in grid order:
         copy, then IOU and RS at each prefetch *)
      let copy = trial Strategy.pure_copy in
      let iou =
        List.map
          (fun p -> (p, trial (Strategy.pure_iou ~prefetch:p ())))
          prefetches
      in
      let rs =
        List.map
          (fun p -> (p, trial (Strategy.resident_set ~prefetch:p ())))
          prefetches
      in
      { spec; copy; iou; rs })
    specs

let find t name =
  List.find (fun r -> r.spec.Accent_workloads.Spec.name = name) t

let iou_at rep p = List.assoc p rep.iou
let rs_at rep p = List.assoc p rep.rs
