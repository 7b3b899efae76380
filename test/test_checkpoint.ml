(* Checkpoint subsystem coverage.

   - qcheck round-trip: [rebuild_image store (save store image)] is the
     frozen image, across every Page.value kind (Zero / Pattern /
     Literal), cold-extent homes (a post-copy destination), imaginary
     runs with IOU provenance (a post-IOU destination), and empty
     (never-ran) vs. full (ran-to-completion) working sets.
   - replay ≡ live: for each strategy, interrupting the relocated
     process mid-run, checkpointing it, and restoring it on the other
     host finishes with exactly the memory the uninterrupted twin ends
     with. *)
open Accent_sim
open Accent_mem
open Accent_net
open Accent_kernel
open Accent_core

(* --- generated workloads (a compact cousin of test_properties') --------- *)

let spec_gen =
  QCheck.Gen.(
    let* real_pages = int_range 8 48 in
    let* zero_pages = int_range 2 40 in
    let* touched = int_range 1 real_pages in
    let* rs_pages = int_range 0 real_pages in
    let min_overlap = max 0 (rs_pages - (real_pages - touched)) in
    let max_overlap = min touched rs_pages in
    let* overlap = int_range (min min_overlap max_overlap) max_overlap in
    let* runs = int_range 1 (max 1 (real_pages / 2)) in
    let* segments = int_range 1 4 in
    let* zero_touch = int_range 0 2 in
    return
      {
        Accent_workloads.Spec.name = "CkProp";
        description = "generated";
        real_bytes = real_pages * Page.size;
        total_bytes = (real_pages + zero_pages) * Page.size;
        rs_bytes = rs_pages * Page.size;
        touched_real_pages = touched;
        rs_touched_overlap = overlap;
        real_runs = runs;
        vm_segments = segments;
        pattern =
          Accent_workloads.Access_pattern.Sequential
            { streams = 2; revisit = 0.2; run = 8 };
        refs = touched * 2;
        total_think_ms = 100.;
        zero_touch_pages = zero_touch;
        base_addr = 0x40000;
      })

(* --- structural image equality ------------------------------------------ *)

(* Field-wise: the AMap holds a closure (compare by ranges) and the trace
   is shared physically through freeze/save. *)
let core_equal (a : Context.core) (b : Context.core) =
  a.Context.proc_id = b.Context.proc_id
  && a.Context.proc_name = b.Context.proc_name
  && a.Context.pcb = b.Context.pcb
  && a.Context.port_rights = b.Context.port_rights
  && Amap.ranges a.Context.amap = Amap.ranges b.Context.amap
  && (a.Context.trace == b.Context.trace || a.Context.trace = b.Context.trace)

let run_equal (a : Address_space.image_run) (b : Address_space.image_run) =
  match (a, b) with
  | Address_space.Img_zero a, Address_space.Img_zero b ->
      a.lo = b.lo && a.hi = b.hi
  | Address_space.Img_real a, Address_space.Img_real b ->
      a.lo = b.lo && Page_run.equal a.run b.run && a.homes = b.homes
  | Address_space.Img_imag a, Address_space.Img_imag b ->
      a.lo = b.lo && a.hi = b.hi
      && a.segment_id = b.segment_id
      && a.offset = b.offset
  | _ -> false

let image_equal (a : Proc_image.t) (b : Proc_image.t) =
  core_equal a.Proc_image.core b.Proc_image.core
  && List.length a.Proc_image.mem = List.length b.Proc_image.mem
  && List.for_all2 run_equal a.Proc_image.mem b.Proc_image.mem
  && a.Proc_image.backings = b.Proc_image.backings
  && a.Proc_image.ws = b.Proc_image.ws
  && a.Proc_image.dirty = b.Proc_image.dirty
  && a.Proc_image.resident = b.Proc_image.resident

(* Mode 0: capture at build — Pattern/Zero values only, empty working
   set.  Mode 1: the destination of a completed pure-copy migration with
   writes — Literal values, cold-extent homes, full working set.  Mode 2:
   a pure-IOU destination captured at restart — imaginary runs with
   their IOU backing provenance (captured before termination, which
   releases the pager's segment bindings). *)
let image_of_mode spec mode =
  match mode with
  | 0 ->
      let world, proc = Accent_experiments.Trial.build_only ~spec () in
      Proc_image.freeze (Proc_image.capture (World.host world 0) proc)
  | 1 ->
      let result =
        Accent_experiments.Trial.run ~write_fraction:0.3 ~spec
          ~strategy:Strategy.pure_copy ()
      in
      Proc_image.freeze
        (Proc_image.capture
           (World.host result.Accent_experiments.Trial.world 1)
           result.Accent_experiments.Trial.proc)
  | _ ->
      let world = World.create ~n_hosts:2 () in
      let h0 = World.host world 0 and h1 = World.host world 1 in
      let proc = Accent_workloads.Spec.build h0 spec in
      let image = ref None in
      let _ =
        Migration_manager.migrate (World.manager world 0) ~proc
          ~dest:(Migration_manager.port (World.manager world 1))
          ~strategy:(Strategy.pure_iou ())
          ~on_restart:(fun p ->
            image := Some (Proc_image.freeze (Proc_image.capture h1 p)))
          ()
      in
      ignore (World.run world);
      Option.get !image

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~count:30
    ~name:"restore (save image) = image, all value kinds and WS states"
    (QCheck.make
       ~print:(fun (spec, mode) ->
         Printf.sprintf "real=%d total=%d touched=%d mode=%d"
           spec.Accent_workloads.Spec.real_bytes
           spec.Accent_workloads.Spec.total_bytes
           spec.Accent_workloads.Spec.touched_real_pages mode)
       QCheck.Gen.(pair spec_gen (int_range 0 2)))
    (fun (spec, mode) ->
      let frozen = image_of_mode spec mode in
      let store = Content_store.create ~capacity_pages:4096 () in
      let ck = Checkpoint.save store frozen in
      image_equal frozen (Checkpoint.rebuild_image store ck))

(* --- replay ≡ live per strategy ----------------------------------------- *)

let strategies =
  [
    Strategy.pure_copy;
    Strategy.pure_iou ();
    Strategy.resident_set ();
    Strategy.working_set ();
    Strategy.pre_copy ();
    Strategy.hybrid ();
  ]

let live_strategy (s : Strategy.t) =
  match s.Strategy.transfer with
  | Strategy.Pre_copy _ | Strategy.Working_set _ | Strategy.Hybrid _ -> true
  | _ -> false

let content_fingerprint space =
  List.concat_map
    (fun (lo, hi) ->
      let first = Page.index_of_addr lo
      and last = Page.index_of_addr (hi - 1) in
      List.init
        (last - first + 1)
        (fun i ->
          let idx = first + i in
          (idx, Option.map Bytes.to_string (Address_space.page_data space idx))))
    (Address_space.real_ranges space)

let replay_equals_live strategy () =
  let seed = 77L and spec = Accent_workloads.Representative.minprog in
  let live =
    Accent_experiments.Trial.run ~seed ~write_fraction:0.2 ~spec ~strategy ()
  in
  let live_proc = live.Accent_experiments.Trial.proc in
  Alcotest.(check bool) "live twin completed" true (Proc.is_done live_proc);
  (* the twin: identical world, but 25 ms into the relocated process's
     remote execution it is stopped, checkpointed, dismantled, and
     restored onto the source host to finish there *)
  let world = World.create ~seed ~n_hosts:2 () in
  let h0 = World.host world 0 and h1 = World.host world 1 in
  let proc = Accent_workloads.Spec.build ~write_fraction:0.2 h0 spec in
  let store = Content_store.create ~capacity_pages:8192 () in
  let restored_final = ref None in
  let checkpoint_and_move (p : Proc.t) =
    let rec when_quiet () =
      if p.Proc.in_flight then
        ignore
          (Engine.schedule world.World.engine ~delay:(Time.ms 2.) (fun () ->
               when_quiet ()))
      else begin
        Proc_runner.interrupt p;
        let ck = Checkpoint.save store (Proc_image.capture h1 p) in
        (match p.Proc.space with
        | Some space ->
            p.Proc.space <- None;
            Host.drop_space h1 space
        | None -> ());
        Host.remove_proc h1 p;
        Checkpoint.restore store h0 ck ~k:(fun q ->
            q.Proc.on_complete <- Some (fun q -> restored_final := Some q);
            Proc_runner.start h0 q)
      end
    in
    when_quiet ()
  in
  let on_restart p =
    ignore
      (Engine.schedule world.World.engine ~delay:(Time.ms 25.) (fun () ->
           if Proc.is_done p then
             (* finished before the checkpoint point: the equivalence is
                trivially about the final state *)
             restored_final := Some p
           else checkpoint_and_move p))
  in
  let _report =
    Migration_manager.migrate (World.manager world 0) ~proc
      ~dest:(Migration_manager.port (World.manager world 1))
      ~strategy ~on_restart ()
  in
  if live_strategy strategy then Proc_runner.start h0 proc;
  ignore (World.run world);
  match !restored_final with
  | None -> Alcotest.fail "restored process never completed"
  | Some q ->
      Alcotest.(check bool) "restored twin completed" true (Proc.is_done q);
      Alcotest.(check bool)
        "replayed memory = live memory" true
        (content_fingerprint (Proc.space_exn live_proc)
        = content_fingerprint (Proc.space_exn q))

(* --- file round trip ----------------------------------------------------- *)

let file_roundtrip () =
  let world, proc = Accent_experiments.Trial.build_only
      ~spec:Accent_workloads.Representative.minprog ()
  in
  let image = Proc_image.freeze (Proc_image.capture (World.host world 0) proc) in
  let store = Content_store.create ~capacity_pages:4096 () in
  let ck = Checkpoint.save store image in
  let path = Filename.temp_file "accent_ck" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.write_file path store ck;
      let store' = Content_store.create ~capacity_pages:4096 () in
      let ck' = Checkpoint.read_file path store' in
      Alcotest.(check bool)
        "image survives the file round trip" true
        (image_equal image (Checkpoint.rebuild_image store' ck')))

let restore_detects_corruption () =
  let world, proc = Accent_experiments.Trial.build_only
      ~spec:Accent_workloads.Representative.minprog ()
  in
  let image = Proc_image.freeze (Proc_image.capture (World.host world 0) proc) in
  let store = Content_store.create ~capacity_pages:4096 () in
  let ck = Checkpoint.save store image in
  (* a too-small store evicts checkpointed pages: restore must refuse *)
  let starved = Content_store.create ~capacity_pages:4 () in
  let _ = Checkpoint.save starved image in
  Alcotest.check_raises "missing page fails loudly"
    (Failure "Checkpoint: page missing from durable store") (fun () ->
      ignore (Checkpoint.rebuild_image starved ck))

(* A page whose bytes change after capture must fail restore even though
   the value still carries the digest it was saved under: restore
   re-derives every page from its content. *)
let restore_refuses_corrupted_page () =
  let image = image_of_mode Accent_workloads.Representative.minprog 1 in
  let store = Content_store.create ~capacity_pages:4096 () in
  let ck = Checkpoint.save store image in
  let literal =
    List.find_map
      (fun d ->
        match Content_store.find store d with
        | Some (Page.Literal { data; _ }) -> Some data
        | _ -> None)
      (Checkpoint.digests ck)
  in
  match literal with
  | None -> Alcotest.fail "no written page to corrupt"
  | Some data ->
      Alcotest.(check bool) "intact store verifies" true
        (Content_store.verify store);
      Bytes.set data 0 (Char.chr (Char.code (Bytes.get data 0) lxor 1));
      Alcotest.(check bool) "the sweep sees the flipped byte" false
        (Content_store.verify store);
      Alcotest.check_raises "restore refuses the page"
        (Failure "Checkpoint: page fails digest integrity check") (fun () ->
          ignore (Checkpoint.rebuild_image store ck))

(* A crash trial saves its checkpoint before the migration's report
   exists; the report must still carry the save's stamp and page count. *)
let crash_trials_stamp_the_checkpoint () =
  let sweep =
    Accent_experiments.Crash_recovery.run ~seeds:1
      ~spec:Accent_workloads.Representative.minprog ~kill_fracs:[ 0.5 ] ()
  in
  List.iter
    (fun (tr : Accent_experiments.Crash_recovery.trial) ->
      let name = Strategy.name tr.strategy in
      Alcotest.(check bool)
        (name ^ ": checkpointed_at stamped")
        true
        (tr.report.Report.checkpointed_at <> None);
      Alcotest.(check int)
        (name ^ ": checkpoint pages")
        tr.checkpoint_pages tr.report.Report.checkpoint_pages)
    sweep.Accent_experiments.Crash_recovery.trials

let suite =
  ( "checkpoint",
    QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip
    :: List.map
         (fun s ->
           Alcotest.test_case
             (Printf.sprintf "replay = live under %s" (Strategy.name s))
             `Quick (replay_equals_live s))
         strategies
    @ [
        Alcotest.test_case "checkpoint file round trip" `Quick file_roundtrip;
        Alcotest.test_case "restore refuses a lossy store" `Quick
          restore_detects_corruption;
        Alcotest.test_case "restore refuses a corrupted page" `Quick
          restore_refuses_corrupted_page;
        Alcotest.test_case "crash trials stamp the checkpoint" `Quick
          crash_trials_stamp_the_checkpoint;
      ] )
