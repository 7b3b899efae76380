open Accent_core

let bytes (result : Trial.summary) =
  float_of_int (Report.bytes_total result.Trial.report)

let render sweep =
  Grid.table sweep ~title:"Figure 4-3: Bytes Transferred per Trial"
    ~metric:bytes
  ^ Grid.chart sweep ~title:"" ~unit_label:"B" ~metric:bytes

let mean_iou_savings_pct sweep =
  Accent_util.Stats.mean_of
    (List.map
       (fun (rep : Sweep.rep_results) ->
         let copy = bytes rep.Sweep.copy in
         (copy -. bytes (Sweep.iou_at rep 0)) /. Float.max 1. copy *. 100.)
       sweep)
