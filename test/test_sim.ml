(* Discrete-event engine: event ordering, cancellation, clock semantics,
   queue-server FIFO behaviour and accounting. *)
open Accent_sim

(* --- Event_queue --- *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:3. "c");
  ignore (Event_queue.push q ~time:1. "a");
  ignore (Event_queue.push q ~time:2. "b");
  let pop () = Option.map snd (Event_queue.pop q) in
  let popped = List.init 4 (fun _ -> pop ()) in
  Alcotest.(check (list (option string)))
    "time order"
    [ Some "a"; Some "b"; Some "c"; None ]
    popped

let test_queue_fifo_at_equal_times () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    ignore (Event_queue.push q ~time:5. i)
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list int)) "insertion order at equal time"
    (List.init 10 Fun.id) order

let test_queue_cancel () =
  let q = Event_queue.create () in
  let _a = Event_queue.push q ~time:1. "a" in
  let b = Event_queue.push q ~time:2. "b" in
  ignore (Event_queue.push q ~time:3. "c");
  Event_queue.cancel q b;
  Alcotest.(check int) "size excludes cancelled" 2 (Event_queue.size q);
  let popped = List.init 2 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "cancelled skipped" [ "a"; "c" ] popped;
  (* double-cancel is a no-op *)
  Event_queue.cancel q b;
  Alcotest.(check int) "empty" 0 (Event_queue.size q)

let test_queue_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option (float 0.))) "peek empty" None (Event_queue.peek_time q);
  let a = Event_queue.push q ~time:1. "a" in
  ignore (Event_queue.push q ~time:2. "b");
  Event_queue.cancel q a;
  Alcotest.(check (option (float 0.))) "peek skips cancelled" (Some 2.)
    (Event_queue.peek_time q)

let prop_queue_pops_sorted =
  QCheck.Test.make ~name:"event queue pops in non-decreasing time order"
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range 0. 1000.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun time -> ignore (Event_queue.push q ~time time)) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.stable_sort compare times)

(* A lossy-ARQ run cancels whole windows of backoff timers at once;
   the dead entries must be compacted out of the heap, not left to be
   popped one corpse at a time. *)
let test_queue_compacts_after_mass_cancel () =
  let q = Event_queue.create () in
  let handles =
    List.init 2_000 (fun i ->
        (i, Event_queue.push q ~time:(float_of_int ((i * 13) mod 997)) i))
  in
  Alcotest.(check int) "all queued" 2_000 (Event_queue.physical_size q);
  List.iter
    (fun (i, h) -> if i mod 20 <> 0 then Event_queue.cancel q h)
    handles;
  Alcotest.(check int) "live survivors" 100 (Event_queue.size q);
  Alcotest.(check bool) "compacted at least once" true
    (Event_queue.compactions q > 0);
  Alcotest.(check bool)
    (Printf.sprintf "heap shrank after mass cancel (%d entries)"
       (Event_queue.physical_size q))
    true
    (Event_queue.physical_size q < 400);
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, i) -> drain (i :: acc)
  in
  let popped = drain [] in
  Alcotest.(check int) "survivors all pop" 100 (List.length popped);
  Alcotest.(check bool) "only uncancelled timers fire" true
    (List.for_all (fun i -> i mod 20 = 0) popped)

(* The queue against a plain list of live entries.  Times come from
   four values, so most comparisons are (time, seq) ties; handle-less
   pushes, cancels of live, popped and already-cancelled handles, and
   mass cancels that force compaction are interleaved with pops, and
   every pop must return the (time, seq)-least live entry of the
   model. *)
type model_entry = {
  m_time : float;
  m_seq : int;
  m_handle : Event_queue.handle option;
}

let prop_queue_matches_model =
  QCheck.Test.make ~count:300
    ~name:"event queue pops = (time, seq) order of the live model"
    QCheck.(
      list_of_size Gen.(int_range 0 600) (pair (int_range 0 9) (int_range 0 999)))
    (fun ops ->
      let q = Event_queue.create () in
      let live = ref [] and retired = ref [] and seq = ref 0 in
      let ok = ref true in
      let earlier a b =
        a.m_time < b.m_time || (a.m_time = b.m_time && a.m_seq < b.m_seq)
      in
      let push ~handled a =
        let time = float_of_int (a mod 4) in
        let m_handle =
          if handled then Some (Event_queue.push q ~time !seq)
          else begin
            Event_queue.push_unit q ~time !seq;
            None
          end
        in
        live := { m_time = time; m_seq = !seq; m_handle } :: !live;
        incr seq
      in
      let cancel e =
        Option.iter (Event_queue.cancel q) e.m_handle;
        live := List.filter (fun x -> x.m_seq <> e.m_seq) !live;
        retired := e :: !retired
      in
      let handled () = List.filter (fun e -> e.m_handle <> None) !live in
      let pop () =
        let expected =
          List.fold_left
            (fun best e ->
              match best with
              | Some b when earlier b e -> best
              | _ -> Some e)
            None !live
        in
        match (Event_queue.pop q, expected) with
        | None, None -> ()
        | Some (time, s), Some e when time = e.m_time && s = e.m_seq ->
            live := List.filter (fun x -> x.m_seq <> s) !live;
            retired := e :: !retired
        | _ -> ok := false
      in
      List.iter
        (fun (kind, a) ->
          match kind with
          | 0 | 1 | 2 -> push ~handled:true a
          | 3 | 4 -> push ~handled:false a
          | 5 -> (
              match handled () with
              | [] -> ()
              | hs -> cancel (List.nth hs (a mod List.length hs)))
          | 6 -> (
              (* a retired handle: cancelling it again is a no-op *)
              match !retired with
              | [] -> ()
              | rs ->
                  Option.iter (Event_queue.cancel q)
                    (List.nth rs (a mod List.length rs)).m_handle)
          | 7 ->
              List.iter
                (fun e -> if e.m_seq mod ((a mod 5) + 2) <> 0 then cancel e)
                (handled ())
          | _ -> pop ();
          if Event_queue.size q <> List.length !live then ok := false)
        ops;
      while !ok && !live <> [] do
        pop ()
      done;
      !ok && Event_queue.pop q = None)

(* Push A, pop A, push B, then cancel through A's old handle: the handle
   names an event that already fired, so B must still pop. *)
let test_queue_stale_handle () =
  let q = Event_queue.create () in
  let a = Event_queue.push q ~time:1. "a" in
  Alcotest.(check (option (pair (float 0.) string)))
    "A pops" (Some (1., "a")) (Event_queue.pop q);
  ignore (Event_queue.push q ~time:2. "b");
  Event_queue.cancel q a;
  Alcotest.(check int) "B still live" 1 (Event_queue.size q);
  Alcotest.(check (option (pair (float 0.) string)))
    "B pops" (Some (2., "b")) (Event_queue.pop q)

(* [no_handle] names no event, on an empty queue and on a full one. *)
let test_queue_no_handle () =
  let q = Event_queue.create () in
  Event_queue.cancel q Event_queue.no_handle;
  let handles =
    List.init 20 (fun i -> Event_queue.push q ~time:(float_of_int i) i)
  in
  Event_queue.cancel q Event_queue.no_handle;
  Alcotest.(check int) "every event still live" 20 (Event_queue.size q);
  Alcotest.(check bool) "no real handle is no_handle" false
    (List.mem Event_queue.no_handle handles);
  let popped = List.init 20 (fun _ -> Option.map snd (Event_queue.pop q)) in
  Alcotest.(check (list (option int))) "all pop in order"
    (List.init 20 Option.some) popped

(* [n] tracked payloads early, every fourth one cancelled, behind [m]
   later untracked ones; every tracked one is then popped or skipped.
   The weak array is all the caller keeps of the tracked payloads. *)
let[@inline never] fill_and_drain q ~n ~m =
  let weak = Weak.create n in
  let handles =
    List.init n (fun i ->
        let payload = Array.make 4 i in
        Weak.set weak i (Some payload);
        Event_queue.push q ~time:(float_of_int i) payload)
  in
  for i = 0 to m - 1 do
    Event_queue.push_unit q ~time:(1_000. +. float_of_int i) (Array.make 4 i)
  done;
  List.iteri (fun i h -> if i mod 4 = 1 then Event_queue.cancel q h) handles;
  while Event_queue.due q ~limit:999. do
    ignore (Event_queue.pop q)
  done;
  weak

(* Popped and cancelled payloads must not outlive their events: a queue
   that kept them would hold every closure the engine ever ran. *)
let test_queue_releases_payloads () =
  let q = Event_queue.create () in
  let n = 32 and m = 64 in
  let weak = fill_and_drain q ~n ~m in
  Gc.full_major ();
  let retained = List.filter (Weak.check weak) (List.init n Fun.id) in
  Alcotest.(check (list int)) "no popped or cancelled payload reachable" []
    retained;
  Alcotest.(check int) "untracked events still queued" m (Event_queue.size q)

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now engine) :: !log in
  ignore (Engine.schedule engine ~delay:(Time.ms 10.) (note "b"));
  ignore (Engine.schedule engine ~delay:(Time.ms 5.) (note "a"));
  ignore (Engine.schedule engine ~delay:(Time.ms 20.) (note "c"));
  let final = Engine.run engine in
  Alcotest.(check (list (pair string (float 1e-9))))
    "execution order and times"
    [ ("a", 5.); ("b", 10.); ("c", 20.) ]
    (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 20. final

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.schedule engine ~delay:(Time.ms 1.) (fun () ->
         ignore
           (Engine.schedule engine ~delay:(Time.ms 1.) (fun () -> incr hits))));
  ignore (Engine.run engine);
  Alcotest.(check int) "nested event ran" 1 !hits;
  Alcotest.(check int) "two events executed" 2 (Engine.events_executed engine)

let test_engine_cancel () =
  let engine = Engine.create () in
  let hits = ref 0 in
  let h = Engine.schedule engine ~delay:(Time.ms 1.) (fun () -> incr hits) in
  Engine.cancel engine h;
  ignore (Engine.run engine);
  Alcotest.(check int) "cancelled did not run" 0 !hits

let test_engine_run_until () =
  let engine = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.schedule engine ~delay:(Time.ms 5.) (fun () -> incr hits));
  ignore (Engine.schedule engine ~delay:(Time.ms 50.) (fun () -> incr hits));
  let t = Engine.run_until engine (Time.ms 10.) in
  Alcotest.(check (float 1e-9)) "clock advanced exactly" 10. t;
  Alcotest.(check int) "only first fired" 1 !hits;
  Alcotest.(check int) "second still pending" 1 (Engine.pending engine);
  ignore (Engine.run engine);
  Alcotest.(check int) "second fired" 2 !hits

(* A cancelled event past the limit sits at the heap root when the run
   stops: skipping it must not move the clock, which stops exactly at
   the limit. *)
let test_engine_limit_with_cancelled_root () =
  let engine = Engine.create () in
  let fired = ref [] in
  let note tag () = fired := (tag, Engine.now engine) :: !fired in
  ignore (Engine.schedule engine ~delay:(Time.ms 5.) (note "a"));
  let b = Engine.schedule engine ~delay:(Time.ms 20.) (note "b") in
  ignore (Engine.schedule engine ~delay:(Time.ms 30.) (note "c"));
  Engine.cancel engine b;
  let t = Engine.run ~limit:(Time.ms 10.) engine in
  Alcotest.(check (float 0.)) "run returns the limit" 10. t;
  Alcotest.(check (float 0.)) "clock at the limit" 10. (Engine.now engine);
  ignore (Engine.run engine);
  Alcotest.(check (list (pair string (float 0.))))
    "live events fired at their times"
    [ ("a", 5.); ("c", 30.) ]
    (List.rev !fired)

(* The engine-level stale handle: cancelling an event that already fired
   leaves the next scheduled event alone. *)
let test_engine_stale_cancel () =
  let engine = Engine.create () in
  let hits = ref [] in
  let a =
    Engine.schedule engine ~delay:(Time.ms 1.) (fun () -> hits := "a" :: !hits)
  in
  ignore (Engine.run engine);
  ignore
    (Engine.schedule engine ~delay:(Time.ms 1.) (fun () -> hits := "b" :: !hits));
  Engine.cancel engine a;
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "B fired after A's late cancel" [ "a"; "b" ]
    (List.rev !hits)

let test_engine_negative_delay_clamped () =
  let engine = Engine.create () in
  let at = ref (-1.) in
  ignore
    (Engine.schedule engine ~delay:(Time.ms (-5.)) (fun () ->
         at := Engine.now engine));
  ignore (Engine.run engine);
  Alcotest.(check (float 1e-9)) "fired at now" 0. !at

let test_engine_rng_deterministic () =
  let e1 = Engine.create ~seed:9L () and e2 = Engine.create ~seed:9L () in
  Alcotest.(check int64) "same component stream"
    (Accent_util.Rng.bits64 (Engine.rng e1 "x"))
    (Accent_util.Rng.bits64 (Engine.rng e2 "x"))

(* --- Ids --- *)

let test_ids () =
  let ids = Ids.create () in
  Alcotest.(check int) "peek" 1 (Ids.peek ids);
  let drawn = List.init 3 (fun _ -> Ids.next ids) in
  Alcotest.(check (list int)) "sequential" [ 1; 2; 3 ] drawn;
  let ids = Ids.create ~start:100 () in
  Alcotest.(check int) "custom start" 100 (Ids.next ids)

(* --- Queue_server --- *)

let test_server_fifo_serialization () =
  let engine = Engine.create () in
  let server = Queue_server.create engine ~name:"s" in
  let done_at = ref [] in
  let submit tag service =
    Queue_server.submit server ~service_time:(Time.ms service) (fun () ->
        done_at := (tag, Engine.now engine) :: !done_at)
  in
  submit "a" 10.;
  submit "b" 5.;
  ignore (Engine.run engine);
  Alcotest.(check (list (pair string (float 1e-9))))
    "jobs serialize in arrival order"
    [ ("a", 10.); ("b", 15.) ]
    (List.rev !done_at)

let test_server_accounting () =
  let engine = Engine.create () in
  let server = Queue_server.create engine ~name:"s" in
  Queue_server.submit server ~service_time:(Time.ms 10.) ignore;
  Queue_server.submit server ~service_time:(Time.ms 20.) ignore;
  ignore (Engine.run engine);
  Alcotest.(check int) "completed" 2 (Queue_server.jobs_completed server);
  Alcotest.(check (float 1e-9)) "busy time" 30. (Queue_server.busy_time server);
  let waits = Queue_server.wait_stats server in
  Alcotest.(check (float 1e-9)) "second job waited 10ms" 10.
    (Accent_util.Stats.max_value waits);
  Queue_server.reset_accounting server;
  Alcotest.(check int) "reset" 0 (Queue_server.jobs_completed server)

(* The wait accounting is a fixed few words: ten jobs whose waits lie
   within a decade and 10^5 jobs whose waits spread over seven (1e-3 to
   1e4 ms) leave the same reachable words. *)
let test_server_wait_accounting_flat () =
  let exponent = 7. /. Float.log10 50_000. in
  let retained_after ~pairs =
    let engine = Engine.create () in
    let server = Queue_server.create engine ~name:"s" in
    for k = 1 to pairs do
      (* a blocker, then a probe that waits out its service time *)
      let wait = 1e-3 *. (float_of_int k ** exponent) in
      ignore
        (Engine.schedule engine ~delay:(Time.ms (2e4 *. float_of_int k))
           (fun () ->
             Queue_server.submit server ~service_time:(Time.ms wait) ignore;
             Queue_server.submit server ~service_time:(Time.ms 1e-3) ignore))
    done;
    ignore (Engine.run engine);
    let waits = Queue_server.wait_stats server in
    Alcotest.(check int) "every job waited" (2 * pairs)
      (Accent_util.Stats.count waits);
    (waits, Obj.reachable_words (Obj.repr waits))
  in
  let _, few = retained_after ~pairs:5 in
  let waits, many = retained_after ~pairs:50_000 in
  Alcotest.(check (float 1e-6)) "longest wait 1e4 ms" 1e4
    (Accent_util.Stats.max_value waits);
  Alcotest.(check int) "same words after 10 and 10^5 jobs" few many

(* Serving a job allocates nothing: its wait and service time pass to
   the stats and the engine as cells, not as float arguments, which the
   dev profile's separate compilation would box.  Each completion
   submits the next job, so the ring and the event queue keep their
   size after the warm-up; the service time is a constant, so the
   caller boxes nothing either. *)
let test_server_job_allocates_nothing () =
  let engine = Engine.create () in
  let server = Queue_server.create engine ~name:"s" in
  let left = ref 0 in
  let rec next () =
    if !left > 0 then begin
      decr left;
      Queue_server.submit server ~service_time:0.5 next
    end
  in
  let serve n =
    left := n;
    Queue_server.submit server ~service_time:0.5 next;
    Queue_server.submit server ~service_time:0.5 ignore;
    ignore (Engine.run engine)
  in
  serve 1_000;
  let words0 = Gc.minor_words () in
  serve 100_000;
  let words = Gc.minor_words () -. words0 in
  Alcotest.(check int) "served" 101_004 (Queue_server.jobs_completed server);
  if words >= 64. then
    Alcotest.failf "100k jobs allocated %.0f minor words" words

let test_server_idle_then_busy () =
  let engine = Engine.create () in
  let server = Queue_server.create engine ~name:"s" in
  Alcotest.(check bool) "starts idle" false (Queue_server.busy server);
  ignore
    (Engine.schedule engine ~delay:(Time.ms 100.) (fun () ->
         Queue_server.submit server ~service_time:(Time.ms 5.) ignore));
  ignore (Engine.run engine);
  Alcotest.(check (float 1e-9)) "ends at 105" 105. (Engine.now engine)

let test_server_queue_length () =
  let engine = Engine.create () in
  let server = Queue_server.create engine ~name:"s" in
  Queue_server.submit server ~service_time:(Time.ms 10.) ignore;
  Queue_server.submit server ~service_time:(Time.ms 10.) ignore;
  Queue_server.submit server ~service_time:(Time.ms 10.) ignore;
  Alcotest.(check int) "two waiting" 2 (Queue_server.queue_length server);
  Alcotest.(check bool) "busy" true (Queue_server.busy server);
  ignore (Engine.run engine)

(* --- Time --- *)

let test_time_conversions () =
  Alcotest.(check (float 1e-9)) "seconds" 1500. (Time.seconds 1.5);
  Alcotest.(check (float 1e-9)) "to_seconds" 1.5 (Time.to_seconds 1500.);
  Alcotest.(check (float 1e-9)) "diff" 5. (Time.diff 15. 10.);
  Alcotest.(check string) "pp" "12.345s"
    (Format.asprintf "%a" Time.pp (Time.seconds 12.345))

let suite =
  ( "sim",
    [
      Alcotest.test_case "queue time order" `Quick test_queue_time_order;
      Alcotest.test_case "queue fifo at equal times" `Quick
        test_queue_fifo_at_equal_times;
      Alcotest.test_case "queue cancel" `Quick test_queue_cancel;
      Alcotest.test_case "queue peek" `Quick test_queue_peek;
      QCheck_alcotest.to_alcotest prop_queue_pops_sorted;
      QCheck_alcotest.to_alcotest prop_queue_matches_model;
      Alcotest.test_case "queue compaction" `Quick
        test_queue_compacts_after_mass_cancel;
      Alcotest.test_case "queue stale handle" `Quick test_queue_stale_handle;
      Alcotest.test_case "queue no_handle" `Quick test_queue_no_handle;
      Alcotest.test_case "queue releases payloads" `Quick
        test_queue_releases_payloads;
      Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
      Alcotest.test_case "engine nested" `Quick test_engine_nested_scheduling;
      Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
      Alcotest.test_case "engine run_until" `Quick test_engine_run_until;
      Alcotest.test_case "engine limit with cancelled root" `Quick
        test_engine_limit_with_cancelled_root;
      Alcotest.test_case "engine stale cancel" `Quick test_engine_stale_cancel;
      Alcotest.test_case "engine clamps negative delay" `Quick
        test_engine_negative_delay_clamped;
      Alcotest.test_case "engine rng deterministic" `Quick
        test_engine_rng_deterministic;
      Alcotest.test_case "ids" `Quick test_ids;
      Alcotest.test_case "server fifo" `Quick test_server_fifo_serialization;
      Alcotest.test_case "server accounting" `Quick test_server_accounting;
      Alcotest.test_case "server job allocates nothing" `Quick
        test_server_job_allocates_nothing;
      Alcotest.test_case "server wait accounting flat" `Quick
        test_server_wait_accounting_flat;
      Alcotest.test_case "server idle then busy" `Quick
        test_server_idle_then_busy;
      Alcotest.test_case "server queue length" `Quick test_server_queue_length;
      Alcotest.test_case "time conversions" `Quick test_time_conversions;
    ] )
