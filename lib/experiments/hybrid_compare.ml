open Accent_core

let strategies () =
  [ Strategy.pre_copy (); Strategy.working_set (); Strategy.hybrid () ]

let pulled_bytes (r : Report.t) =
  Accent_mem.Page.size * (r.Report.dest_faults_imag + r.Report.prefetch_extra)

(* Push-style strategies account every round (and the freeze residual) in
   precopy_bytes; for working-set the pushed data is the physical portion
   of the RIMAS, i.e. what was fetched remotely minus the pulled pages. *)
let pushed_bytes (r : Report.t) =
  if r.Report.frozen_at <> None then r.Report.precopy_bytes
  else r.Report.remote_real_bytes_fetched - pulled_bytes r

(* The default warm-up matches the hybrid/ws recency window: the process
   executes at the source long enough for the working-set estimate to
   mean something before migration is requested. *)
let rows ?(seed = 42L) ?(write_fraction = 0.1) ?(migrate_after_ms = 5_000.) ()
    =
  List.concat_map
    (fun spec ->
      List.map
        (fun strategy ->
          Trial.summary
            (Trial.run ~seed ~write_fraction ~migrate_after_ms ~spec ~strategy
               ()))
        (strategies ()))
    Accent_workloads.Representative.all

let render rows =
  let table =
    Accent_util.Text_table.create
      ~title:
        "Hybrid push/pull vs pre-copy and working-set (write fraction 0.1)"
      [
        ("workload", Accent_util.Text_table.Left);
        ("strategy", Accent_util.Text_table.Left);
        ("pushed", Accent_util.Text_table.Right);
        ("pulled", Accent_util.Text_table.Right);
        ("downtime (s)", Accent_util.Text_table.Right);
        ("end-to-end (s)", Accent_util.Text_table.Right);
      ]
  in
  let last = ref "" in
  List.iter
    (fun (row : Trial.summary) ->
      let name = row.spec.Accent_workloads.Spec.name in
      if !last <> "" && !last <> name then Accent_util.Text_table.add_rule table;
      last := name;
      let r = row.report in
      Accent_util.Text_table.add_row table
        [
          name;
          Strategy.name row.strategy;
          Accent_util.Text_table.cell_bytes (pushed_bytes r);
          Accent_util.Text_table.cell_bytes (pulled_bytes r);
          Accent_util.Text_table.cell_f (Report.downtime_seconds r);
          Accent_util.Text_table.cell_f (Report.end_to_end_seconds r);
        ])
    rows;
  Accent_util.Text_table.render table

let to_csv rows =
  let header =
    Result_table.csv_line
      [
        "workload";
        "strategy";
        "pushed_bytes";
        "pulled_bytes";
        "downtime_s";
        "end_to_end_s";
        "outcome";
      ]
  in
  let lines =
    List.map
      (fun (row : Trial.summary) ->
        let r = row.report in
        Result_table.csv_line
          [
            row.spec.Accent_workloads.Spec.name;
            Strategy.name row.strategy;
            string_of_int (pushed_bytes r);
            string_of_int (pulled_bytes r);
            Printf.sprintf "%.3f" (Report.downtime_seconds r);
            Printf.sprintf "%.3f" (Report.end_to_end_seconds r);
            Report.outcome_name r.Report.outcome;
          ])
      rows
  in
  String.concat "\n" (header :: lines) ^ "\n"
