(* Checkpoint subsystem coverage.

   - qcheck round-trip: [rebuild_image store (save store image)] is the
     frozen image, across every Page.value kind (Zero / Pattern /
     Literal), cold-extent homes (a post-copy destination), imaginary
     runs with IOU provenance (a post-IOU destination), and empty
     (never-ran) vs. full (ran-to-completion) working sets.
   - replay ≡ live: for each strategy, interrupting the relocated
     process mid-run, checkpointing it, and restoring it on the other
     host finishes with exactly the memory the uninterrupted twin ends
     with.
   - the file codec: the same generated images survive write_file /
     read_file with the AMap rebuilt from the mem runs; hostile files
     (truncated, overwritten, overwritten and re-sealed with a valid
     trailer digest) give [Error] or restore cleanly, never raise; and
     each rejection reason has its own case. *)
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

let print_case (spec, mode) =
  Printf.sprintf "real=%d total=%d touched=%d mode=%d"
    spec.Accent_workloads.Spec.real_bytes
    spec.Accent_workloads.Spec.total_bytes
    spec.Accent_workloads.Spec.touched_real_pages mode

let case_gen = QCheck.Gen.(pair spec_gen (int_range 0 2))

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~count:30
    ~name:"restore (save image) = image, all value kinds and WS states"
    (QCheck.make ~print:print_case case_gen)
    (fun (spec, mode) ->
      let frozen = image_of_mode spec mode in
      let store = Content_store.create ~capacity_pages:4096 () in
      let ck = Checkpoint.save store frozen in
      image_equal frozen (Checkpoint.rebuild_image store ck))

(* --- the file codec ------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "accent_ck" ".ckpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_ok path store ck =
  Alcotest.(check (result unit string))
    "written" (Ok ())
    (Checkpoint.write_file path store ck)

let file_bytes store ck =
  with_temp (fun path ->
      write_ok path store ck;
      In_channel.with_open_bin path In_channel.input_all)

let read_bytes ?(store = Content_store.create ~capacity_pages:65_536 ()) s =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      (Checkpoint.read_file path store, store))

(* The trailer is the MD5 of every byte before it (checkpoint.mli):
   re-sealing a mutated body lets it past the trailer to the field
   checks. *)
let reseal s =
  let body = String.sub s 0 (String.length s - 16) in
  body ^ Digest.string body

let prop_file_roundtrip =
  QCheck.Test.make ~count:30
    ~name:"file round trip = image, AMap rebuilt from the mem runs"
    (QCheck.make ~print:print_case case_gen)
    (fun (spec, mode) ->
      let frozen = image_of_mode spec mode in
      let store = Content_store.create ~capacity_pages:4096 () in
      let ck = Checkpoint.save store frozen in
      match read_bytes (file_bytes store ck) with
      | Error reason, _ -> QCheck.Test.fail_report reason
      | Ok ck', store' ->
          Amap.ranges ck'.Checkpoint.core.Context.amap
          = Amap.ranges frozen.Proc_image.core.Context.amap
          && image_equal frozen (Checkpoint.rebuild_image store' ck'))

(* [Ok] must rebuild and restore on a fresh host and run to the end of
   the world without an exception. *)
let restores_cleanly store ck =
  ignore (Checkpoint.rebuild_image store ck);
  let world = World.create ~n_hosts:1 () in
  let host = World.host world 0 in
  Checkpoint.restore store host ck ~k:(fun p -> Proc_runner.start host p);
  ignore (World.run world)

let overwrite rng s ~bytes =
  let b = Bytes.of_string s in
  for _ = 1 to bytes do
    Bytes.set b
      (Random.State.int rng (Bytes.length b))
      (Char.chr (Random.State.int rng 256))
  done;
  Bytes.to_string b

let prop_hostile_files =
  QCheck.Test.make ~count:10 ~long_factor:50
    ~name:"hostile files give Error or restore cleanly, never raise"
    (QCheck.make
       ~print:(fun (case, seed) ->
         Printf.sprintf "%s seed=%d" (print_case case) seed)
       QCheck.Gen.(pair case_gen nat))
    (fun ((spec, mode), seed) ->
      let store = Content_store.create ~capacity_pages:4096 () in
      let ck = Checkpoint.save store (image_of_mode spec mode) in
      let s = file_bytes store ck in
      let rng = Random.State.make [| seed |] in
      let n = String.length s in
      let truncated =
        List.init 4 (fun _ -> String.sub s 0 (Random.State.int rng n))
      in
      let overwritten = List.init 4 (fun _ -> overwrite rng s ~bytes:8) in
      let resealed =
        List.init 16 (fun i -> reseal (overwrite rng s ~bytes:(1 + (i mod 8))))
      in
      List.iter
        (fun bad ->
          match read_bytes bad with
          | Error _, _ -> ()
          | Ok ck, store -> restores_cleanly store ck)
        resealed;
      List.for_all
        (fun bad -> Result.is_error (fst (read_bytes bad)))
        (truncated @ overwritten))

(* --- one case per rejection reason ---------------------------------------- *)

let minprog_checkpoint () =
  let world, proc =
    Accent_experiments.Trial.build_only
      ~spec:Accent_workloads.Representative.minprog ()
  in
  let store = Content_store.create ~capacity_pages:4096 () in
  let image =
    Proc_image.freeze (Proc_image.capture (World.host world 0) proc)
  in
  (store, Checkpoint.save store image)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let reject ?store ~reason s =
  match read_bytes ?store s with
  | Ok _, _ -> Alcotest.failf "accepted a file that should fail with %S" reason
  | Error msg, _ ->
      if not (contains ~sub:reason msg) then
        Alcotest.failf "expected %S, got %S" reason msg;
      Alcotest.(check bool) "one line" false (String.contains msg '\n')

let set_int s ~at n =
  let b = Bytes.of_string s in
  Bytes.set_int64_le b at (Int64.of_int n);
  Bytes.to_string b

let set_byte s ~at n =
  let b = Bytes.of_string s in
  Bytes.set b at (Char.chr n);
  Bytes.to_string b

(* Where two encodings first differ: the offset of the one field the
   checkpoints disagree on. *)
let first_difference a b =
  let rec go i = if a.[i] <> b.[i] then i else go (i + 1) in
  go 0

let with_core ck f = { ck with Checkpoint.core = f ck.Checkpoint.core }

let with_pcb ck f =
  with_core ck (fun core ->
      { core with Context.pcb = f (Pcb.copy core.Context.pcb) })

let with_trace ck steps =
  with_core ck (fun core -> { core with Context.trace = Trace.of_steps steps })

let step ?(think_ms = 1.) ?(write = false) page =
  { Trace.page; think_ms; write }

let appended ck run = { ck with Checkpoint.mem = ck.Checkpoint.mem @ [ run ] }

let first_real_page ck =
  List.find_map
    (function
      | Checkpoint.Ck_real { lo; _ } -> Some (Page.index_of_addr lo)
      | Checkpoint.Ck_zero _ | Checkpoint.Ck_imag _ -> None)
    ck.Checkpoint.mem
  |> Option.get

(* Where the last run ends: free address space for an appended run. *)
let end_of_runs ck =
  match List.rev ck.Checkpoint.mem with
  | (Checkpoint.Ck_zero { hi; _ } | Checkpoint.Ck_imag { hi; _ }) :: _ -> hi
  | Checkpoint.Ck_real { lo; digests; _ } :: _ ->
      lo + (Array.length digests * Page.size)
  | [] -> 0

(* Header fields at the offsets checkpoint.mli lays out: magic 0-7,
   version 8-15, the page table's count 16-23, then its first entry's
   digest 24-31 and kind byte 32. *)
let header_rejections () =
  let store, ck = minprog_checkpoint () in
  let good = file_bytes store ck in
  let n = String.length good in
  reject ~reason:"too short" (String.sub good 0 20);
  reject ~reason:"not a checkpoint file" (reseal (set_byte good ~at:0 0));
  reject ~reason:"unsupported format version 2" (reseal (set_int good ~at:8 2));
  reject ~reason:"version does not fit an int"
    (reseal (set_byte good ~at:15 0x40));
  reject ~reason:"digest mismatch"
    (set_byte good ~at:100 (Char.code good.[100] lxor 1));
  reject ~reason:"digest mismatch" (String.sub good 0 (n - 1));
  reject ~reason:"page table count" (reseal (set_int good ~at:16 (1 lsl 40)));
  reject ~reason:"not in ascending digest order"
    (reseal (set_int good ~at:24 max_int));
  reject ~reason:"bad page kind byte 7" (reseal (set_byte good ~at:32 7));
  reject ~reason:"truncated"
    (reseal (String.sub good 0 16 ^ String.make 16 ' '));
  reject ~reason:"8 unread bytes"
    (reseal (String.sub good 0 (n - 16) ^ String.make 24 ' '));
  Alcotest.(check bool)
    "the unmutated file reads" true
    (Result.is_ok (fst (read_bytes good)))

(* A one-byte field is found by encoding two checkpoints that differ in
   just that field, then set out of range and re-sealed. *)
let byte_rejections () =
  let store, ck = minprog_checkpoint () in
  let poke ~reason a b v =
    let a = file_bytes store a and b = file_bytes store b in
    reject ~reason (reseal (set_byte a ~at:(first_difference a b) v))
  in
  let page = first_real_page ck in
  poke ~reason:"bad status byte 9" ck
    (with_pcb ck (fun pcb -> { pcb with Pcb.status = Pcb.Excised }))
    9;
  poke ~reason:"bad write flag byte 2"
    (with_trace ck [ step page ])
    (with_trace ck [ step ~write:true page ])
    2;
  let ported n =
    with_core ck (fun core ->
        {
          core with
          Context.port_rights = [ Option.get (Accent_ipc.Port.of_int n) ];
        })
  in
  poke ~reason:"port id 0" (ported 1) (ported 2) 0;
  let homed home =
    {
      ck with
      Checkpoint.mem =
        List.map
          (function
            | Checkpoint.Ck_real r ->
                Checkpoint.Ck_real
                  { r with homes = [ (Array.length r.digests, home) ] }
            | run -> run)
          ck.Checkpoint.mem;
    }
  in
  poke ~reason:"bad home byte 3"
    (homed Address_space.Home_resident)
    (homed Address_space.Home_cold)
    3;
  let top = end_of_runs ck in
  poke ~reason:"bad mem run byte 3"
    (appended ck (Checkpoint.Ck_zero { lo = top; hi = top + Page.size }))
    (appended ck
       (Checkpoint.Ck_imag
          { lo = top; hi = top + Page.size; segment_id = 1; offset = 0 }))
    3

(* The remaining checks are reached by encoding an invalid checkpoint:
   the encoder writes what it is given and seals it. *)
let field_rejections () =
  let store, ck = minprog_checkpoint () in
  let reject_ck ~reason ck = reject ~reason (file_bytes store ck) in
  let page = first_real_page ck in
  let top = end_of_runs ck in
  let digest = List.hd (Checkpoint.digests ck) in
  let cold n = (n, Address_space.Home_cold) in
  let imag ?(segment_id = 7) ?(offset = 0) () =
    Checkpoint.Ck_imag { lo = top; hi = top + Page.size; segment_id; offset }
  in
  reject_ck ~reason:"process id 0"
    (with_core ck (fun core -> { core with Context.proc_id = 0 }));
  reject_ck ~reason:"pc 1000000 outside a trace"
    (with_pcb ck (fun pcb -> { pcb with Pcb.pc = 1_000_000 }));
  reject_ck ~reason:"trace page -1 outside the address space"
    (with_trace ck [ step (-1) ]);
  reject_ck ~reason:"think time nan is not a time"
    (with_trace ck [ step ~think_ms:Float.nan page ]);
  reject_ck ~reason:"think time -1 is not a time"
    (with_trace ck [ step ~think_ms:(-1.) page ]);
  reject_ck ~reason:"is not validated"
    (with_trace ck [ step (Page.index_of_addr top) ]);
  List.iter
    (fun (lo, hi) ->
      reject_ck ~reason:"not an ascending page-aligned range"
        (appended ck (Checkpoint.Ck_zero { lo; hi })))
    [
      (0, Page.size);
      (top, top + 100);
      (top, top);
      (top, Vaddr.space_limit + Page.size);
    ];
  let real ?(lo = 0) ?(digest = digest) homes =
    Checkpoint.Ck_real { lo; digests = [| digest |]; homes }
  in
  reject_ck ~reason:"homes of the run"
    { ck with Checkpoint.mem = [ real [ cold 2 ] ] };
  reject_ck ~reason:"home length 0"
    { ck with Checkpoint.mem = [ real [ cold 0; cold 1 ] ] };
  (* the writer refuses a digest the store lacks, so the run appended
     here names a held one whose bytes are then re-pointed at 12345 *)
  let held = file_bytes store (appended ck (real ~lo:top [ cold 1 ])) in
  let encoded d =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int d);
    Bytes.to_string b
  in
  let rec last_at i =
    if String.sub held i 8 = encoded digest then i else last_at (i - 1)
  in
  reject ~reason:"digest 12345 is not in the page table"
    (reseal (set_int held ~at:(last_at (String.length held - 24)) 12345));
  reject_ck ~reason:"imaginary segment 7 has no backing"
    (appended ck (imag ()));
  reject_ck ~reason:"segment 0 is not positive"
    (appended ck (imag ~segment_id:0 ()));
  reject_ck ~reason:"segment offset 100"
    {
      (appended ck (imag ~offset:100 ())) with
      Checkpoint.backings = [ (7, Option.get (Accent_ipc.Port.of_int 3)) ];
    };
  let ws entries =
    { ck with Checkpoint.ws = { Working_set.entries; snap_refs = 2 } }
  in
  reject_ck ~reason:"working set not ascending"
    (ws [ (page, Time.ms 5.); (page + 1, Time.ms 1.) ]);
  reject_ck ~reason:"working-set time inf is not a time"
    (ws [ (page, Float.infinity) ]);
  reject_ck ~reason:"dirty page -3 outside the address space"
    { ck with Checkpoint.dirty = [ -3 ] };
  reject_ck ~reason:"resident page 8388608 outside the address space"
    { ck with Checkpoint.resident = [ Vaddr.space_limit / Page.size ] };
  (* the pages themselves: a store too small to keep them *)
  reject
    ~store:(Content_store.create ~capacity_pages:4 ())
    ~reason:"the store cannot keep every page" (file_bytes store ck)

(* A checkpoint saved into a 4-page store has lost most of its pages:
   the writer names the first lost digest and writes nothing. *)
let write_refuses_a_lost_page () =
  let world, proc =
    Accent_experiments.Trial.build_only
      ~spec:Accent_workloads.Representative.minprog ()
  in
  let starved = Content_store.create ~capacity_pages:4 () in
  let ck =
    Checkpoint.save starved
      (Proc_image.freeze (Proc_image.capture (World.host world 0) proc))
  in
  let lost =
    List.find
      (fun d -> not (Content_store.mem starved d))
      (List.sort_uniq compare (Checkpoint.digests ck))
  in
  let path = Filename.temp_file "accent_ck" ".ckpt" in
  Sys.remove path;
  match Checkpoint.write_file path starved ck with
  | Ok () -> Alcotest.fail "wrote a checkpoint with a lost page"
  | Error msg ->
      Alcotest.(check string)
        "names the lost digest"
        (Printf.sprintf "%s: digest %d is not in the store" path lost)
        msg;
      Alcotest.(check bool) "nothing written" false (Sys.file_exists path)

(* Writing reads the store through [peek]: its hit and miss counters and
   its eviction order match an unwritten twin's.  Each store is full, so
   the fresh pages inserted afterwards evict half of the checkpoint's; a
   write that freshened LRU order (in digest order, not the save's) would
   change which half. *)
let write_leaves_the_store_alone () =
  let image = image_of_mode Accent_workloads.Representative.minprog 1 in
  let pages =
    let roomy = Content_store.create ~capacity_pages:4096 () in
    List.length
      (List.sort_uniq compare (Checkpoint.digests (Checkpoint.save roomy image)))
  in
  let fresh () = Content_store.create ~capacity_pages:pages () in
  let written = fresh () and twin = fresh () in
  let ck = Checkpoint.save written image in
  ignore (Checkpoint.save twin image);
  let counters s = (Content_store.hits s, Content_store.misses s) in
  let before = counters written in
  ignore (file_bytes written ck);
  Alcotest.(check (pair int int)) "hits and misses" before (counters written);
  Alcotest.(check (pair int int)) "as the twin's" (counters twin) before;
  List.iter
    (fun s ->
      for i = 1 to pages / 2 do
        Content_store.insert s (Page.pattern_value ~tag:4_242 i)
      done)
    [ written; twin ];
  let kept s = List.filter (Content_store.mem s) (Checkpoint.digests ck) in
  Alcotest.(check int) "half evicted" (pages / 2)
    (Content_store.evictions written);
  Alcotest.(check (list int)) "same pages survive" (kept twin) (kept written)

(* A written page whose bytes change after the save travels with its old
   digest; the store re-derives it and refuses the file. *)
let file_with_corrupted_page () =
  let image = image_of_mode Accent_workloads.Representative.minprog 1 in
  let store = Content_store.create ~capacity_pages:4096 () in
  let ck = Checkpoint.save store image in
  match
    List.find_map
      (fun d ->
        match Content_store.find store d with
        | Some (Page.Literal { data; _ }) -> Some data
        | _ -> None)
      (Checkpoint.digests ck)
  with
  | None -> Alcotest.fail "no written page to corrupt"
  | Some data ->
      Bytes.set data 0 (Char.chr (Char.code (Bytes.get data 0) lxor 1));
      reject ~reason:"a page fails its digest" (file_bytes store ck)

let every_truncation_refused () =
  let store, ck = minprog_checkpoint () in
  let good = file_bytes store ck in
  with_temp (fun path ->
      for n = 0 to String.length good - 1 do
        Out_channel.with_open_bin path (fun oc ->
            output_substring oc good 0 n);
        match Checkpoint.read_file path (Content_store.create ()) with
        | Ok _ -> Alcotest.failf "accepted the first %d bytes" n
        | Error _ -> ()
      done)

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
      write_ok path store ck;
      let store' = Content_store.create ~capacity_pages:4096 () in
      let ck' = Result.get_ok (Checkpoint.read_file path store') in
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
    List.map QCheck_alcotest.to_alcotest
      [ prop_checkpoint_roundtrip; prop_file_roundtrip; prop_hostile_files ]
    @ List.map
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
        Alcotest.test_case "file header rejections" `Quick header_rejections;
        Alcotest.test_case "file byte rejections" `Quick byte_rejections;
        Alcotest.test_case "file field rejections" `Quick field_rejections;
        Alcotest.test_case "write refuses a lost page" `Quick
          write_refuses_a_lost_page;
        Alcotest.test_case "write leaves the store alone" `Quick
          write_leaves_the_store_alone;
        Alcotest.test_case "file with a corrupted page refused" `Quick
          file_with_corrupted_page;
        Alcotest.test_case "every truncation refused" `Quick
          every_truncation_refused;
      ] )
