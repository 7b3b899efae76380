open Accent_core
open Accent_util

type row = {
  name : string;
  iou_pct_real : float;
  iou_pct_total : float;
  rs_pct_real : float;
  rs_pct_total : float;
}

let pcts (result : Trial.summary) =
  let fetched =
    result.report.Report.remote_real_bytes_fetched
  in
  let spec = result.spec in
  ( 100. *. float_of_int fetched
    /. float_of_int spec.Accent_workloads.Spec.real_bytes,
    100. *. float_of_int fetched
    /. float_of_int spec.Accent_workloads.Spec.total_bytes )

let rows sweep =
  List.map
    (fun (rep : Sweep.rep_results) ->
      let iou_real, iou_total = pcts (Sweep.iou_at rep 0) in
      let rs_real, rs_total = pcts (Sweep.rs_at rep 0) in
      {
        name = rep.spec.Accent_workloads.Spec.name;
        iou_pct_real = iou_real;
        iou_pct_total = iou_total;
        rs_pct_real = rs_real;
        rs_pct_total = rs_total;
      })
    sweep

let render rows =
  let t =
    Text_table.create ~title:"Table 4-3: Percent of Address Space Accessed"
      [
        ("", Text_table.Left);
        ("IOU %Real", Text_table.Right);
        ("[%Total]", Text_table.Right);
        ("RS %Real", Text_table.Right);
        ("[%Total]", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          r.name;
          Text_table.cell_pct r.iou_pct_real;
          Printf.sprintf "[%.3f]" r.iou_pct_total;
          Text_table.cell_pct r.rs_pct_real;
          Printf.sprintf "[%.3f]" r.rs_pct_total;
        ])
    rows;
  Text_table.render t
