open Accent_core

type rep_results = {
  spec : Accent_workloads.Spec.t;
  copy : Trial.summary;
  iou : (int * Trial.summary) list;
  rs : (int * Trial.summary) list;
}

type t = rep_results list

let run ?seed ?costs ?on_event ?(specs = Accent_workloads.Representative.all)
    ?(prefetches = Strategy.paper_prefetch_values) ?(progress = true)
    ?(domains = 1) () =
  let note fmt = Printf.ksprintf (fun s -> if progress then prerr_endline s) fmt in
  (* every (spec, strategy) cell is an independent world, so the flat grid
     fans across domains; [domains = 1] runs the exact sequential order *)
  let strategies =
    (Strategy.pure_copy
    :: List.map (fun p -> Strategy.pure_iou ~prefetch:p ()) prefetches)
    @ List.map (fun p -> Strategy.resident_set ~prefetch:p ()) prefetches
  in
  let grid =
    List.concat_map
      (fun spec -> List.map (fun s -> (spec, s)) strategies)
      specs
  in
  let trials =
    Accent_util.Domain_pool.map_list ~domains
      (fun (spec, strategy) ->
        note "  trial: %-9s %s" spec.Accent_workloads.Spec.name
          (Strategy.name strategy);
        Trial.summary (Trial.run ?seed ?costs ?on_event ~spec ~strategy ()))
      grid
  in
  let per_spec = List.length strategies in
  let arr = Array.of_list trials in
  List.mapi
    (fun i spec ->
      let at j = arr.((i * per_spec) + j) in
      let n = List.length prefetches in
      {
        spec;
        copy = at 0;
        iou = List.mapi (fun k p -> (p, at (1 + k))) prefetches;
        rs = List.mapi (fun k p -> (p, at (1 + n + k))) prefetches;
      })
    specs

let find t name =
  List.find (fun r -> r.spec.Accent_workloads.Spec.name = name) t

let iou_at rep p = List.assoc p rep.iou
let rs_at rep p = List.assoc p rep.rs
