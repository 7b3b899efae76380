open Accent_core
open Accent_net

type point = {
  loss_pct : float;
  strategy : Strategy.t;
  report : Report.t;
}

type t = {
  spec : Accent_workloads.Spec.t;
  seed : int64;
  points : point list;
}

let default_rates_pct = [ 0.; 1.; 2.; 5.; 10. ]

let run ?(seed = 42L) ?(spec = Accent_workloads.Representative.pm_start)
    ?(rates_pct = default_rates_pct) () =
  let strategies =
    [ Strategy.pure_copy; Strategy.pure_iou (); Strategy.hybrid () ]
  in
  let points =
    List.concat_map
      (fun strategy ->
        List.map
          (fun loss_pct ->
            let fault_plan = Fault_plan.iid (loss_pct /. 100.) in
            let result = Trial.run ~seed ~fault_plan ~spec ~strategy () in
            { loss_pct; strategy; report = result.Trial.report })
          rates_pct)
      strategies
  in
  { spec; seed; points }

let to_csv t =
  let header =
    Result_table.csv_line
      [
        "strategy";
        "loss_pct";
        "goodput_bytes";
        "retransmit_bytes";
        "ack_bytes";
        "total_bytes";
        "retransmits";
        "end_to_end_s";
        "outcome";
      ]
  in
  let rows =
    List.map
      (fun p ->
        let r = p.report in
        Result_table.csv_line
          [
            Strategy.name p.strategy;
            Printf.sprintf "%g" p.loss_pct;
            string_of_int (Report.goodput_bytes r);
            string_of_int r.Report.bytes_retransmit;
            string_of_int r.Report.bytes_ack;
            string_of_int (Report.bytes_total r);
            string_of_int r.Report.retransmits;
            Printf.sprintf "%.3f" (Report.end_to_end_seconds r);
            Report.outcome_name r.Report.outcome;
          ])
      t.points
  in
  String.concat "\n" (header :: rows) ^ "\n"

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Byte cost of reliability: %s, i.i.d. fragment loss (seed %Ld)\n"
       t.spec.Accent_workloads.Spec.name t.seed);
  Buffer.add_string buf
    (Printf.sprintf "  %-12s %8s %12s %12s %10s %8s %12s %10s\n" "strategy"
       "loss%" "goodput" "retransmit" "acks" "resend" "total" "e2e (s)");
  List.iter
    (fun p ->
      let r = p.report in
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %8g %12s %12s %10s %8d %12s %10.2f%s\n"
           (Strategy.name p.strategy) p.loss_pct
           (Accent_util.Bytesize.to_string (Report.goodput_bytes r))
           (Accent_util.Bytesize.to_string r.Report.bytes_retransmit)
           (Accent_util.Bytesize.to_string r.Report.bytes_ack)
           r.Report.retransmits
           (Accent_util.Bytesize.to_string (Report.bytes_total r))
           (Report.end_to_end_seconds r)
           (match r.Report.outcome with
           | Report.Completed -> ""
           | o -> "  [" ^ Report.outcome_name o ^ "]")))
    t.points;
  Buffer.contents buf
