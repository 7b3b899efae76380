open Accent_core

let remote_seconds (result : Trial.summary) =
  Report.remote_execution_seconds result.Trial.report

let iou_penalty rep =
  remote_seconds (Sweep.iou_at rep 0)
  /. Float.max 1e-9 (remote_seconds rep.Sweep.copy)

let hit_ratio rep ~prefetch =
  Report.prefetch_hit_ratio (Sweep.iou_at rep prefetch).Trial.report

let render sweep =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Grid.table sweep ~title:"Figure 4-1: Remote Execution Times in Seconds"
       ~metric:remote_seconds);
  Buffer.add_string buf
    (Grid.chart sweep ~title:"" ~unit_label:"s" ~metric:remote_seconds);
  Buffer.add_string buf "\n  IOU/copy execution penalty and prefetch hit ratios (IOU trials):\n";
  List.iter
    (fun (rep : Sweep.rep_results) ->
      let ratios =
        List.filter_map
          (fun (p, _) ->
            match hit_ratio rep ~prefetch:p with
            | Some r when p > 0 -> Some (Printf.sprintf "pf%d:%.0f%%" p (100. *. r))
            | _ -> None)
          rep.Sweep.iou
      in
      Buffer.add_string buf
        (Printf.sprintf "    %-9s penalty %5.1fx   hits %s\n"
           rep.Sweep.spec.Accent_workloads.Spec.name (iou_penalty rep)
           (if ratios = [] then "-" else String.concat " " ratios)))
    sweep;
  Buffer.contents buf
