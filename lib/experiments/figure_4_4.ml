open Accent_core

let seconds (result : Trial.summary) =
  result.Trial.report.Report.message_seconds

let render sweep =
  Grid.table sweep
    ~title:"Figure 4-4: Message Processing Costs per Trial (seconds)"
    ~metric:seconds
  ^ Grid.chart sweep ~title:"" ~unit_label:"s" ~metric:seconds

let mean_iou_savings_pct sweep =
  Accent_util.Stats.mean_of
    (List.map
       (fun (rep : Sweep.rep_results) ->
         let copy = seconds rep.Sweep.copy in
         (copy -. seconds (Sweep.iou_at rep 0)) /. Float.max 1e-9 copy *. 100.)
       sweep)

(* The paper's claim is aggregate ("the time spent processing messages
   drops slightly"); per-representative, weak-locality programs can tick up
   at pf1 because the larger replies outweigh the faults saved. *)
let pf1_reduces_cost sweep =
  let total p =
    List.fold_left
      (fun acc (rep : Sweep.rep_results) ->
        match List.assoc_opt p rep.Sweep.iou with
        | Some r -> acc +. seconds r
        | None -> acc)
      0. sweep
  in
  total 1 <= total 0 +. 1e-9
