open Accent_core
open Accent_kernel

(* One cell: the same two-migration scenario run with dedup off and on.
   A warm process built from the spec migrates first, seeding the
   destination's content store; then an identical process migrates and we
   measure its wire bytes.  [overlap] is realised as the store's LRU
   capacity — the destination retains that fraction of the previously
   seen pages — so the sweep exercises eviction, not just lookup. *)
type cell = {
  overlap : float;
  strategy : Strategy.t;
  off : Report.t;  (** the measured migration, dedup off *)
  on_ : Report.t;  (** the measured migration, dedup on *)
}

type t = {
  spec : Accent_workloads.Spec.t;
  seed : int64;
  cells : cell list;
}

let default_overlaps = [ 0.; 0.5; 0.9; 1.0 ]

let reduction_pct cell =
  let off = Report.bytes_total cell.off and on_ = Report.bytes_total cell.on_ in
  if off = 0 then 0. else 100. *. (1. -. (float_of_int on_ /. float_of_int off))

let run_once ~seed ~spec ~strategy ~dedup ~capacity_pages =
  let costs =
    {
      Cost_model.default with
      Cost_model.nms =
        {
          Accent_net.Netmsgserver.default_params with
          Accent_net.Netmsgserver.dedup;
          dedup_capacity_pages = capacity_pages;
        };
    }
  in
  let world = World.create ~seed ~costs ~n_hosts:2 () in
  let live_start proc =
    if Strategy.is_live strategy then
      Proc_runner.start (World.host world 0) proc
  in
  (* warm: an identical process migrates first and runs to completion,
     leaving its page contents behind in the destination's store *)
  let warm = Accent_workloads.Spec.build (World.host world 0) spec in
  live_start warm;
  ignore (World.migrate_and_run world ~proc:warm ~src:0 ~dst:1 ~strategy);
  (* measure: the second, content-identical process *)
  let proc = Accent_workloads.Spec.build (World.host world 0) spec in
  live_start proc;
  World.migrate_and_run world ~proc ~src:0 ~dst:1 ~strategy

let run ?(seed = 42L) ?(spec = Accent_workloads.Representative.pm_start)
    ?(overlaps = default_overlaps) ?strategies () =
  let strategies =
    match strategies with
    | Some s -> s
    | None -> [ Strategy.pure_copy; Strategy.hybrid () ]
  in
  let pages = Accent_workloads.Spec.real_pages spec in
  (* each cell is a pair of independent two-host worlds *)
  let cells =
    List.concat_map
      (fun strategy ->
        List.map
          (fun overlap ->
            let capacity_pages =
              int_of_float (overlap *. float_of_int pages)
            in
            let run ~dedup =
              run_once ~seed ~spec ~strategy ~dedup ~capacity_pages
            in
            let off = run ~dedup:false in
            let on_ = run ~dedup:true in
            { overlap; strategy; off; on_ })
          overlaps)
      strategies
  in
  { spec; seed; cells }

let to_csv t =
  let header =
    Result_table.csv_line
      [
        "strategy";
        "overlap";
        "off_total_bytes";
        "on_total_bytes";
        "reduction_pct";
        "pages_checked";
        "digest_hits";
        "bytes_elided";
        "off_e2e_s";
        "on_e2e_s";
      ]
  in
  let rows =
    List.map
      (fun c ->
        Result_table.csv_line
          [
            Strategy.name c.strategy;
            Printf.sprintf "%g" c.overlap;
            string_of_int (Report.bytes_total c.off);
            string_of_int (Report.bytes_total c.on_);
            Printf.sprintf "%.1f" (reduction_pct c);
            string_of_int c.on_.Report.dedup_pages_checked;
            string_of_int c.on_.Report.dedup_hits;
            string_of_int c.on_.Report.dedup_bytes_elided;
            Printf.sprintf "%.3f" (Report.end_to_end_seconds c.off);
            Printf.sprintf "%.3f" (Report.end_to_end_seconds c.on_);
          ])
      t.cells
  in
  String.concat "\n" (header :: rows) ^ "\n"

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Content-addressed transfer: %s re-migrated to a warm host (seed %Ld)\n"
       t.spec.Accent_workloads.Spec.name t.seed);
  Buffer.add_string buf
    (Printf.sprintf "  %-12s %8s %12s %12s %10s %12s %12s\n" "strategy"
       "overlap" "dedup off" "dedup on" "saved%" "hits" "elided");
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %8g %12s %12s %9.1f%% %7d/%-5d %12s\n"
           (Strategy.name c.strategy) c.overlap
           (Accent_util.Bytesize.to_string (Report.bytes_total c.off))
           (Accent_util.Bytesize.to_string (Report.bytes_total c.on_))
           (reduction_pct c) c.on_.Report.dedup_hits
           c.on_.Report.dedup_pages_checked
           (Accent_util.Bytesize.to_string c.on_.Report.dedup_bytes_elided)))
    t.cells;
  Buffer.contents buf
