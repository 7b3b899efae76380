open Accent_core
open Accent_util

type row = {
  name : string;
  iou_s : float;
  rs_s : float;
  copy_s : float;
  paper : Paper.row_4_5 option;
}

let rows sweep =
  List.map
    (fun (rep : Sweep.rep_results) ->
      let name = rep.Sweep.spec.Accent_workloads.Spec.name in
      let rimas (result : Trial.summary) =
        Report.rimas_transfer_seconds result.Trial.report
      in
      {
        name;
        iou_s = rimas (Sweep.iou_at rep 0);
        rs_s = rimas (Sweep.rs_at rep 0);
        copy_s = rimas rep.Sweep.copy;
        paper =
          List.find_opt (fun p -> p.Paper.name = name) Paper.table_4_5;
      })
    sweep

let render rows =
  let t =
    Text_table.create
      ~title:
        "Table 4-5: Address Space Transfer Times in Seconds (paper values \
         in parentheses)"
      [
        ("", Text_table.Left);
        ("Pure-IOU", Text_table.Right);
        ("RS", Text_table.Right);
        ("Copy", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      let cell v paper_v =
        match paper_v with
        | Some p -> Printf.sprintf "%.2f (%.2f)" v p
        | None -> Printf.sprintf "%.2f" v
      in
      Text_table.add_row t
        [
          r.name;
          cell r.iou_s (Option.map (fun p -> p.Paper.iou_s) r.paper);
          cell r.rs_s (Option.map (fun p -> p.Paper.rs_s) r.paper);
          cell r.copy_s (Option.map (fun p -> p.Paper.copy_s) r.paper);
        ])
    rows;
  Text_table.render t

let max_copy_over_iou rows =
  List.fold_left
    (fun acc r -> Float.max acc (r.copy_s /. Float.max 1e-9 r.iou_s))
    0. rows
