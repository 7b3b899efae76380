(* The traced run's recorder: host-time spans kept in memory, migration
   phase spans derived from the event bus, and GC time read from
   Runtime_events.  Every span is recorded from the benchmark's own code,
   around its calls into the library, or at the moment a bus event
   reaches its subscriber; nothing inside lib/ is instrumented.

   An untraced recorder keeps nothing: [with_span] is then a plain call. *)

type span = {
  id : int;
  parent : int;  (** 0 for the rep's root span *)
  trace : int;  (** 0 for the rep's own phases, else one per migration *)
  name : string;
  layer : string;  (** a lib/ directory, or "bench" for the harness *)
  start_ns : int;
  end_ns : int;
}

type t = {
  on : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable next_trace : int;
  mutable open_ : int list;  (** ids of the spans now open, innermost first *)
}

let create ~on = { on; spans = []; next_id = 1; next_trace = 1; open_ = [] }
let now_ns () = Int.of_float (Unix.gettimeofday () *. 1e9)
let current t = match t.open_ with id :: _ -> id | [] -> 0

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~id ~parent ~trace ~name ~layer ~start_ns ~end_ns =
  t.spans <- { id; parent; trace; name; layer; start_ns; end_ns } :: t.spans

let with_span t ~name ~layer f =
  if not t.on then f ()
  else begin
    let id = fresh_id t and parent = current t and start_ns = now_ns () in
    t.open_ <- id :: t.open_;
    Fun.protect
      ~finally:(fun () ->
        t.open_ <- List.tl t.open_;
        record t ~id ~parent ~trace:0 ~name ~layer ~start_ns
          ~end_ns:(now_ns ()))
      f
  end

let spans t = List.rev t.spans

(* --- migration phases from the bus --------------------------------------- *)

(* Host-clock stamps of one migration's bus events.  A migration keeps its
   proc id across incarnations, so the id keys it from Requested to
   Outcome. *)
type stamps = {
  requested : int;
  mutable excised : int;
  mutable delivered : int;  (** the later of Core and RIMAS delivery *)
  mutable restarted : int;
}

(* The phases, with the lib/ layer that does the work in each:
   excise = Requested → Excised (for pre-copy and hybrid this includes
   the live push rounds), transfer = Excised → last context delivery,
   insert = last delivery → Restarted, remote_exec = Restarted → Outcome. *)
let phases = [ ("excise", "kernel"); ("transfer", "net"); ("insert", "kernel");
               ("remote_exec", "kernel") ]

(* A bus subscriber that turns each finished migration into a
   "migration" span (layer core) with its four phase spans as children.
   Overlapping migrations (several in one world) give overlapping spans;
   the phase totals below take the union, never the sum. *)
let phase_subscriber t =
  let live : (int, stamps) Hashtbl.t = Hashtbl.create 64 in
  let stamp id set =
    Option.iter (fun s -> set s (now_ns ())) (Hashtbl.find_opt live id)
  in
  let finish id s =
    let now = now_ns () in
    Hashtbl.remove live id;
    let trace = t.next_trace in
    t.next_trace <- trace + 1;
    let mid = fresh_id t in
    (* parented to the span open when it ends (the world's run), which
       its host time is part of *)
    record t ~id:mid ~parent:(current t) ~trace ~name:"migration" ~layer:"core"
      ~start_ns:s.requested ~end_ns:now;
    List.iter2
      (fun (name, layer) (start_ns, end_ns) ->
        record t ~id:(fresh_id t) ~parent:mid ~trace ~name ~layer ~start_ns
          ~end_ns)
      phases
      [ (s.requested, s.excised); (s.excised, s.delivered);
        (s.delivered, s.restarted); (s.restarted, now) ]
  in
  let module E = Accent_core.Mig_event in
  fun (ev : E.t) ->
    let id = ev.E.proc_id in
    match ev.E.kind with
    | E.Requested _ ->
        let now = now_ns () in
        Hashtbl.replace live id
          { requested = now; excised = now; delivered = now; restarted = now }
    | E.Excised _ -> stamp id (fun s now -> s.excised <- now)
    | E.Core_delivered | E.Rimas_delivered _ ->
        stamp id (fun s now -> s.delivered <- now)
    | E.Restarted -> stamp id (fun s now -> s.restarted <- now)
    | E.Outcome _ -> Option.iter (finish id) (Hashtbl.find_opt live id)
    | _ -> ()

(* --- interval arithmetic ------------------------------------------------- *)

(* total length of the union of [intervals], each clipped to [lo, hi] *)
let union_ns ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

(* The run span's host time, and its shares (in %): per phase, the time
   at least one migration was in that phase; unattributed, the time no
   migration was in any phase. *)
let phase_shares spans =
  let run = List.find (fun s -> s.name = "run") spans in
  let run_ns = float_of_int (run.end_ns - run.start_ns) in
  let pct iv =
    100. *. float_of_int (union_ns ~lo:run.start_ns ~hi:run.end_ns iv) /. run_ns
  in
  let named name =
    List.filter_map
      (fun s -> if s.name = name then Some (s.start_ns, s.end_ns) else None)
      spans
  in
  List.map (fun (name, layer) -> (layer ^ ".phase_pct." ^ name, pct (named name))) phases
  @ [
      ("experiments.run_s", run_ns /. 1e9);
      ( "experiments.unattributed_pct",
        100. -. pct (List.concat_map (fun (name, _) -> named name) phases) );
    ]

(* Self time per span name: each span's duration minus the part of it
   that its children cover, summed over spans of that name, in seconds,
   largest first *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start_ns, s.end_ns))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered =
        union_ns ~lo:s.start_ns ~hi:s.end_ns (Hashtbl.find_all children s.id)
      in
      let total = Option.value ~default:0 (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (total + s.end_ns - s.start_ns - covered))
    spans;
  Hashtbl.fold (fun name ns l -> (name, float_of_int ns /. 1e9) :: l) acc []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let to_json s =
  Measure.Obj
    [
      ("id", Measure.Int s.id);
      ("parent", Measure.Int s.parent);
      ("trace", Measure.Int s.trace);
      ("name", Measure.Str s.name);
      ("layer", Measure.Str s.layer);
      ("start_ns", Measure.Int s.start_ns);
      ("end_ns", Measure.Int s.end_ns);
    ]

(* --- GC time from Runtime_events ----------------------------------------- *)

type gc = {
  cursor : Runtime_events.cursor;
  alarm : Gc.alarm;
  poll : unit -> unit;
  minor_ns : int ref;
  major_ns : int ref;
  lost : int ref;
}

(* Minor time is the sum of EV_MINOR spans and major time the sum of
   EV_MAJOR spans; the two never nest.  The ring is drained at the end
   of every major cycle, so a long single call (a churn run) cannot
   overrun it between reads. *)
let gc_start () =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let minor_ns = ref 0 and major_ns = ref 0 and lost = ref 0 in
  let open_at = Hashtbl.create 4 in
  let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun dom ts phase ->
        Hashtbl.replace open_at (dom, phase) (ns ts))
      ~runtime_end:(fun dom ts phase ->
        match (Hashtbl.find_opt open_at (dom, phase), phase) with
        | Some t0, Runtime_events.EV_MINOR -> minor_ns := !minor_ns + ns ts - t0
        | Some t0, Runtime_events.EV_MAJOR -> major_ns := !major_ns + ns ts - t0
        | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let poll () = ignore (Runtime_events.read_poll cursor callbacks None) in
  { cursor; alarm = Gc.create_alarm poll; poll; minor_ns; major_ns; lost }

(* (minor GC s, major GC s, lost events) since [gc_start] *)
let gc_stop g =
  Gc.delete_alarm g.alarm;
  g.poll ();
  Runtime_events.free_cursor g.cursor;
  (float_of_int !(g.minor_ns) /. 1e9, float_of_int !(g.major_ns) /. 1e9, !(g.lost))
