(* Kernel layer: hosts, the Pager's fault paths (with their costs on the
   virtual clock), trace-driven process execution, and PCBs. *)
open Accent_sim
open Accent_mem
open Accent_kernel

let world () = Accent_core.World.create ~n_hosts:2 ()

let host w i = Accent_core.World.host w i
let run w = ignore (Accent_core.World.run w)

(* --- Trace --- *)

let test_trace_accounting () =
  let t =
    Trace.of_steps
      [
        { Trace.page = 1; think_ms = 10.; write = false };
        { Trace.page = 2; think_ms = 5.; write = false };
        { Trace.page = 1; think_ms = 5.; write = false };
      ]
  in
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check (float 1e-9)) "think" 20. (Trace.total_think_ms t);
  Alcotest.(check int) "distinct" 2 (Trace.distinct_pages t);
  Alcotest.(check (list int)) "first-ref order" [ 1; 2 ] (Trace.pages t)

(* --- Host --- *)

let test_host_spawn () =
  let w = world () in
  let h = host w 0 in
  let space = Host.new_space h in
  Address_space.validate_zero space (Vaddr.of_len 0 512);
  let proc =
    Host.spawn h ~name:"p" ~trace:(Trace.of_steps []) ~space ~n_ports:3 ()
  in
  Alcotest.(check int) "ports created" 3 (List.length proc.Proc.ports);
  Alcotest.(check int) "registered" 1 (Host.proc_count h);
  (* ports are homed on this host *)
  List.iter
    (fun port ->
      Alcotest.(check (option int)) "port homed" (Some 0)
        (Accent_net.Net_registry.port_home (Host.registry h) port))
    proc.Proc.ports

(* --- Pager fault paths, with paper-calibrated costs --- *)

let build_proc h ~steps builder =
  let space = Host.new_space h in
  builder space;
  Host.spawn h ~name:"p" ~trace:(Trace.of_steps steps) ~space ()

let reference_once w h proc page =
  let t0 = Accent_core.World.now w in
  let done_at = ref None in
  Pager.reference (Host.pager h) proc page ~k:(fun () ->
      done_at := Some (Accent_core.World.now w));
  run w;
  match !done_at with
  | Some t -> Time.to_ms (Time.diff t t0)
  | None -> Alcotest.fail "reference never completed"

let test_resident_reference_is_free () =
  let w = world () in
  let h = host w 0 in
  let proc =
    build_proc h ~steps:[] (fun space ->
        Address_space.install_bytes space ~addr:0 (Bytes.make 512 'x')
          ~resident:true)
  in
  Alcotest.(check (float 1e-9)) "no fault, no cost" 0.
    (reference_once w h proc 0)

let test_fill_zero_fault_cost () =
  let w = world () in
  let h = host w 0 in
  let proc =
    build_proc h ~steps:[] (fun space ->
        Address_space.validate_zero space (Vaddr.of_len 0 512))
  in
  let cost = reference_once w h proc 0 in
  Alcotest.(check (float 1e-9)) "FillZero is the cheap fault"
    Cost_model.fill_zero_ms cost;
  (* and the page is now resident zeros *)
  match Address_space.presence_of_page (Proc.space_exn proc) 0 with
  | Address_space.Resident _ -> ()
  | _ -> Alcotest.fail "expected resident"

let test_disk_fault_cost_is_40_8ms () =
  let w = world () in
  let h = host w 0 in
  let proc =
    build_proc h ~steps:[] (fun space ->
        Address_space.install_bytes space ~addr:0 (Bytes.make 512 'x')
          ~resident:false)
  in
  let cost = reference_once w h proc 0 in
  Alcotest.(check (float 1e-6)) "the paper's 40.8 ms local disk fault"
    Accent_experiments.Paper.local_disk_fault_ms cost;
  Alcotest.(check int) "counted" 1 (Pager.faults_disk (Host.pager h))

let test_bad_reference_raises () =
  let w = world () in
  let h = host w 0 in
  let proc = build_proc h ~steps:[] (fun _ -> ()) in
  Alcotest.check_raises "BadMem"
    (Pager.Bad_memory_reference { proc = "p"; page = 9 })
    (fun () -> Pager.reference (Host.pager h) proc 9 ~k:ignore)

let test_imaginary_fault_via_backing_server () =
  (* Map a segment backed on host 1 into a process on host 0 and fault on
     it: the page must arrive bit-exact and the cost must be the paper's
     ~115 ms remote fault. *)
  let w = world () in
  let h0 = host w 0 and h1 = host w 1 in
  let backing = Test_helpers.new_backer h1 in
  let segment_id = Accent_net.Backing_server.new_segment backing in
  let payload = Bytes.init 1024 (fun i -> Char.chr (i mod 256)) in
  Accent_net.Backing_server.put_bytes backing ~segment_id ~offset:0 payload;
  let proc =
    build_proc h0 ~steps:[] (fun space ->
        Test_helpers.map_segment h0 backing space ~at:0 ~segment_id
          ~offset:0 ~len:1024)
  in
  let cost = reference_once w h0 proc 0 in
  Alcotest.(check bool)
    (Printf.sprintf "remote fault ~115ms (got %.1f)" cost)
    true
    (cost > 100. && cost < 130.);
  Alcotest.(check int) "served by the backer" 1
    (Accent_net.Backing_server.faults_served backing);
  (match Address_space.page_data (Proc.space_exn proc) 0 with
  | Some page ->
      Alcotest.(check bool) "bit-exact delivery" true
        (Bytes.equal page (Bytes.sub payload 0 512))
  | None -> Alcotest.fail "page missing");
  Alcotest.(check int) "fault counted" 1 (Pager.faults_imag (Host.pager h0))

let test_prefetch_installs_and_tracks_hits () =
  let w = world () in
  let h0 = host w 0 and h1 = host w 1 in
  let backing = Test_helpers.new_backer h1 in
  let segment_id = Accent_net.Backing_server.new_segment backing in
  Accent_net.Backing_server.put_bytes backing ~segment_id ~offset:0
    (Bytes.make (512 * 4) 'p');
  let proc =
    build_proc h0 ~steps:[] (fun space ->
        Test_helpers.map_segment h0 backing space ~at:0 ~segment_id
          ~offset:0 ~len:(512 * 4))
  in
  proc.Proc.prefetch <- 3;
  ignore (reference_once w h0 proc 0);
  Alcotest.(check int) "three extra pages installed" 3
    proc.Proc.prefetch_extra;
  (* all four pages are now local *)
  Alcotest.(check int) "materialised" 4
    (Address_space.pages_materialized (Proc.space_exn proc));
  (* referencing a prefetched page is a hit, not a fault *)
  ignore (reference_once w h0 proc 2);
  Alcotest.(check int) "hit recorded" 1 proc.Proc.prefetch_hits;
  Alcotest.(check int) "still one fault" 1 (Pager.faults_imag (Host.pager h0));
  Alcotest.(check (option (float 1e-9))) "hit ratio" (Some (1. /. 3.))
    (Proc.prefetch_hit_ratio proc)

let test_segment_death_on_release () =
  let w = world () in
  let h0 = host w 0 and h1 = host w 1 in
  let backing = Test_helpers.new_backer h1 in
  let segment_id = Accent_net.Backing_server.new_segment backing in
  Accent_net.Backing_server.put_bytes backing ~segment_id ~offset:0
    (Bytes.make 512 'd');
  let proc =
    build_proc h0 ~steps:[] (fun space ->
        Test_helpers.map_segment h0 backing space ~at:0 ~segment_id
          ~offset:0 ~len:512)
  in
  Pager.release_segments (Host.pager h0)
    ~space_id:(Address_space.id (Proc.space_exn proc));
  run w;
  Alcotest.(check int) "death delivered" 1
    (Accent_net.Backing_server.deaths_received backing);
  Alcotest.(check int) "segment gone" 0
    (Accent_net.Backing_server.segments_alive backing)

(* --- Proc_runner --- *)

let test_runner_executes_trace () =
  let w = world () in
  let h = host w 0 in
  let steps =
    [
      { Trace.page = 0; think_ms = 10.; write = false };
      { Trace.page = 1; think_ms = 10.; write = false };
      { Trace.page = 0; think_ms = 10.; write = false };
    ]
  in
  let proc =
    build_proc h ~steps (fun space ->
        Address_space.install_bytes space ~addr:0 (Bytes.make 1024 'x')
          ~resident:true)
  in
  let completed = ref false in
  proc.Proc.on_complete <- Some (fun _ -> completed := true);
  Proc_runner.start h proc;
  run w;
  Alcotest.(check bool) "completed" true !completed;
  Alcotest.(check bool) "terminated" true
    (proc.Proc.pcb.Pcb.status = Pcb.Terminated);
  Alcotest.(check (option (float 1e-6))) "pure think time" (Some 30.)
    (Option.map Time.to_ms (Proc.remote_execution_time proc));
  Alcotest.(check int) "touched pages noted" 2
    (Address_space.touched_pages (Proc.space_exn proc))

let test_runner_faults_add_time () =
  let w = world () in
  let h = host w 0 in
  let steps = [ { Trace.page = 0; think_ms = 10.; write = false } ] in
  let proc =
    build_proc h ~steps (fun space ->
        Address_space.install_bytes space ~addr:0 (Bytes.make 512 'x')
          ~resident:false)
  in
  Proc_runner.start h proc;
  run w;
  Alcotest.(check (option (float 1e-6))) "think + disk fault" (Some 50.8)
    (Option.map Time.to_ms (Proc.remote_execution_time proc))

let test_runner_interrupt_freezes () =
  let w = world () in
  let h = host w 0 in
  let steps = List.init 10 (fun _ -> { Trace.page = 0; think_ms = 10.; write = false }) in
  let proc =
    build_proc h ~steps (fun space ->
        Address_space.install_bytes space ~addr:0 (Bytes.make 512 'x')
          ~resident:true)
  in
  Proc_runner.start h proc;
  ignore (Accent_core.World.run ~limit:(Time.ms 35.) w);
  Proc_runner.interrupt proc;
  run w;
  Alcotest.(check bool) "not terminated" true
    (proc.Proc.pcb.Pcb.status = Pcb.Ready);
  Alcotest.(check bool) "pc part-way" true
    (proc.Proc.pcb.Pcb.pc > 0 && proc.Proc.pcb.Pcb.pc < 10)

let suite =
  ( "kernel",
    [
      Alcotest.test_case "trace accounting" `Quick test_trace_accounting;
      Alcotest.test_case "host spawn" `Quick test_host_spawn;
      Alcotest.test_case "resident reference free" `Quick
        test_resident_reference_is_free;
      Alcotest.test_case "FillZero cost" `Quick test_fill_zero_fault_cost;
      Alcotest.test_case "disk fault 40.8ms" `Quick
        test_disk_fault_cost_is_40_8ms;
      Alcotest.test_case "bad reference raises" `Quick test_bad_reference_raises;
      Alcotest.test_case "imaginary fault ~115ms" `Quick
        test_imaginary_fault_via_backing_server;
      Alcotest.test_case "prefetch installs and hits" `Quick
        test_prefetch_installs_and_tracks_hits;
      Alcotest.test_case "segment death on release" `Quick
        test_segment_death_on_release;
      Alcotest.test_case "runner executes trace" `Quick
        test_runner_executes_trace;
      Alcotest.test_case "runner faults add time" `Quick
        test_runner_faults_add_time;
      Alcotest.test_case "runner interrupt" `Quick test_runner_interrupt_freezes;
    ] )

(* --- CPU contention --- *)

let test_colocated_processes_contend () =
  (* two compute-bound processes on one host take ~2x as long as one *)
  let make_world () = world () in
  let compute_steps =
    List.init 10 (fun _ -> { Trace.page = 0; think_ms = 100.; write = false })
  in
  let build h suffix =
    build_proc h ~steps:compute_steps (fun space ->
        Address_space.install_bytes space ~addr:0 (Bytes.make 512 'x')
          ~resident:true)
    |> fun p ->
    ignore suffix;
    p
  in
  let solo_world = make_world () in
  let solo = build (host solo_world 0) "solo" in
  Proc_runner.start (host solo_world 0) solo;
  run solo_world;
  let solo_time = Option.get (Proc.remote_execution_time solo) in
  let busy_world = make_world () in
  let h = host busy_world 0 in
  let a = build h "a" and b = build h "b" in
  Proc_runner.start h a;
  Proc_runner.start h b;
  run busy_world;
  let shared_time = Option.get (Proc.remote_execution_time a) in
  Alcotest.(check (float 1e-6)) "solo takes its think time" 1000.
    (Time.to_ms solo_time);
  Alcotest.(check bool)
    (Printf.sprintf "contention roughly doubles it (%.0fms)"
       (Time.to_ms shared_time))
    true
    (Time.to_ms shared_time > 1800.)

let test_spreading_improves_makespan () =
  let compute_steps =
    List.init 10 (fun _ -> { Trace.page = 0; think_ms = 100.; write = false })
  in
  let build h =
    build_proc h ~steps:compute_steps (fun space ->
        Address_space.install_bytes space ~addr:0 (Bytes.make 512 'x')
          ~resident:true)
  in
  let makespan spread =
    let w = world () in
    let h0 = host w 0 and h1 = host w 1 in
    let a = build h0 and b = build (if spread then h1 else h0) in
    Proc_runner.start h0 a;
    Proc_runner.start (if spread then h1 else h0) b;
    run w;
    Time.to_seconds (Accent_core.World.now w)
  in
  Alcotest.(check bool) "two hosts beat one" true
    (makespan true < makespan false /. 1.5)

(* --- page-state counters across a whole migration --- *)

(* Each space's page-state counters at completion, summed over the
   processes on each host, with the host's frame pool, for one trial per
   strategy on a pool small enough that both hosts evict and re-fault.
   The source incarnation dissolved at excision, so host 0's row pins
   that nothing of its page state is left.  The values are literals: any
   change to how a space stores its page state must reproduce them. *)
let page_state_counts (r : Accent_experiments.Trial.result) =
  List.map
    (fun i ->
      let h = Accent_core.World.host r.world i in
      let spaces =
        List.filter_map (fun p -> p.Proc.space) (Host.procs h)
      in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 spaces in
      [
        sum Address_space.touched_pages;
        sum Address_space.resident_page_count;
        sum (fun s -> List.length (Address_space.resident_pages s));
        sum Address_space.real_bytes;
        sum Address_space.pages_materialized;
        Phys_mem.in_use (Host.mem h);
        Phys_mem.evictions (Host.mem h);
      ])
    [ 0; 1 ]

let test_page_state_counts_pinned () =
  let costs =
    { Cost_model.default with Cost_model.frames_per_host = 12 }
  in
  let trial strategy =
    Accent_experiments.Trial.run ~costs ~write_fraction:0.3
      ~spec:Test_helpers.small_spec ~strategy ()
  in
  List.iter
    (fun (strategy, expected_hosts, expected_remote_touched) ->
      let r = trial strategy in
      let name = Accent_core.Strategy.name strategy in
      Alcotest.(check (list (list int)))
        (name ^ ": [touched; resident; |resident_pages|; real bytes; \
                 materialized; frames in use; evictions] per host")
        expected_hosts (page_state_counts r);
      Alcotest.(check int) (name ^ ": remote touched pages")
        expected_remote_touched r.report.Accent_core.Report.remote_touched_pages)
    [
      ( Accent_core.Strategy.pure_copy,
        [ [ 0; 0; 0; 0; 0; 0; 12 ]; [ 23; 12; 12; 34304; 67; 12; 82 ] ],
        23 );
      ( Accent_core.Strategy.pure_iou (),
        [ [ 0; 0; 0; 0; 0; 0; 12 ]; [ 23; 12; 12; 11776; 23; 12; 18 ] ],
        23 );
      ( Accent_core.Strategy.pure_iou ~prefetch:3 (),
        [ [ 0; 0; 0; 0; 0; 0; 12 ]; [ 23; 12; 12; 13824; 27; 12; 23 ] ],
        23 );
      ( Accent_core.Strategy.resident_set (),
        [ [ 0; 0; 0; 0; 0; 0; 12 ]; [ 23; 12; 12; 15360; 30; 12; 29 ] ],
        23 );
      ( Accent_core.Strategy.working_set (),
        [ [ 0; 0; 0; 0; 0; 0; 12 ]; [ 23; 12; 12; 11776; 23; 12; 18 ] ],
        23 );
      ( Accent_core.Strategy.pre_copy (),
        [ [ 0; 0; 0; 0; 0; 0; 41 ]; [ 0; 12; 12; 34304; 67; 12; 55 ] ],
        0 );
      ( Accent_core.Strategy.hybrid (),
        [ [ 0; 0; 0; 0; 0; 0; 13 ]; [ 23; 12; 12; 11776; 23; 12; 18 ] ],
        23 );
    ]

let contention_cases =
  [
    Alcotest.test_case "co-located contention" `Quick
      test_colocated_processes_contend;
    Alcotest.test_case "spreading improves makespan" `Quick
      test_spreading_improves_makespan;
    Alcotest.test_case "page-state counts pinned" `Quick
      test_page_state_counts_pinned;
  ]

let suite = (fst suite, snd suite @ contention_cases)
