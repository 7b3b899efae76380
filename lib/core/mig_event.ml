type outcome = Completed | Degraded | Aborted

let outcome_name = function
  | Completed -> "completed"
  | Degraded -> "degraded"
  | Aborted -> "aborted"

type fault_kind = Fault_zero | Fault_disk | Fault_imaginary
type prefetch_kind = Prefetch_issued | Prefetch_hit

type kind =
  | Requested of { proc_name : string; strategy : Strategy.t }
  | Excised of Accent_kernel.Excise.timings
  | Core_delivered
  | Rimas_delivered of { data_bytes : int }
  | Inserted of { insert_ms : float }
  | Restarted
  | Frozen of { residual_bytes : int }
  | Precopy_round of { round : int; bytes : int }
  | Fault of fault_kind
  | Prefetch of prefetch_kind
  | Dedup_digests of { pages : int; hits : int }
      (** destination checked an advertisement of [pages] digests and
          already held [hits] of them *)
  | Dedup_elided of { bytes : int }
      (** source withheld [bytes] of page data the destination already had *)
  | Checkpointed of { pages : int; new_bytes : int }
      (** a durable process image was saved: [pages] page digests banked,
          of which [new_bytes] of page data were not already in the
          store *)
  | Restored of { pages : int }
      (** a process was rebuilt from a checkpoint; every one of its
          [pages] digest-resolved pages passed the integrity check *)
  | Transport_give_up
  | Engine_abort of { reason : string }
  | Outcome of { outcome : outcome; remote_touched_pages : int }
  | Auto_threshold of { src : int; spread : float }
  | Auto_candidate of { proc_name : string; src : int; dst : int }

type t = { at : Accent_sim.Time.t; proc_id : int; kind : kind }

(* --- the bus ------------------------------------------------------------ *)

(* Subscribers live in a growable array in subscription order: the old
   list representation appended with [subscribers @ [f]], which copies
   the whole list per subscription — O(n²) across a churn run that
   subscribes an observer per migration.

   Full-stream observers are separate from cleanup observers.  Every
   per-host migration engine wants only the two abandonment events
   (Transport_give_up / Engine_abort) to drop that migration's staged
   state — but a datacenter world shares one bus, so with those on the
   full stream a thousand hosts put four thousand closures in front of
   every page fault ever published.  Splitting the channels keeps the
   fault-path publish loop bounded by the handful of genuine
   trace/stats observers, independent of host count. *)
type subs = {
  mutable subs : (t -> unit) array;  (* slots >= n_subs are padding *)
  mutable n_subs : int;
}

(* A migration's fold step, and whether a Transport_give_up or
   Engine_abort has passed through it. *)
type route = { step : t -> unit; mutable impaired : bool }

type bus = {
  all : subs;
  cleanup : subs;  (* sees only Transport_give_up / Engine_abort *)
  routes : (int, route) Hashtbl.t;
}

let create_bus () =
  {
    all = { subs = [||]; n_subs = 0 };
    cleanup = { subs = [||]; n_subs = 0 };
    routes = Hashtbl.create 8;
  }

let subs_add s f =
  if s.n_subs = Array.length s.subs then begin
    let subs = Array.make (max 8 (2 * s.n_subs)) f in
    Array.blit s.subs 0 subs 0 s.n_subs;
    s.subs <- subs
  end;
  s.subs.(s.n_subs) <- f;
  s.n_subs <- s.n_subs + 1

(* index loop, not iter: a subscriber may itself subscribe, and new
   subscribers must not see the event being delivered *)
let subs_notify s ev =
  let n = s.n_subs in
  for i = 0 to n - 1 do
    s.subs.(i) ev
  done

let subscribe bus f = subs_add bus.all f
let subscribe_cleanup bus f = subs_add bus.cleanup f

let register bus ~proc_id step =
  Hashtbl.replace bus.routes proc_id { step; impaired = false }

let tracked bus ~proc_id = Hashtbl.mem bus.routes proc_id

let open_routes bus =
  Hashtbl.fold
    (fun proc_id r acc -> if r.impaired then acc else proc_id :: acc)
    bus.routes []
  |> List.sort Int.compare

let publish bus ev =
  (match Hashtbl.find bus.routes ev.proc_id with
  | r -> (
      r.step ev;
      (* The Outcome is terminal, so drop the route: the table then
         scales with in-flight migrations, not with every migration a
         churn run ever completed.  An abandoned migration's route stays
         — a checkpoint restore may still stamp it — until an Outcome or
         the process's next registration ends it. *)
      match ev.kind with
      | Outcome _ -> Hashtbl.remove bus.routes ev.proc_id
      | Transport_give_up | Engine_abort _ -> r.impaired <- true
      | _ -> ())
  | exception Not_found -> ());
  (match ev.kind with
  | Transport_give_up | Engine_abort _ -> subs_notify bus.cleanup ev
  | _ -> ());
  subs_notify bus.all ev

(* --- trace output ------------------------------------------------------- *)

let fault_kind_name = function
  | Fault_zero -> "zero"
  | Fault_disk -> "disk"
  | Fault_imaginary -> "imaginary"

let prefetch_kind_name = function
  | Prefetch_issued -> "issued"
  | Prefetch_hit -> "hit"

let kind_name = function
  | Requested _ -> "requested"
  | Excised _ -> "excised"
  | Core_delivered -> "core-delivered"
  | Rimas_delivered _ -> "rimas-delivered"
  | Inserted _ -> "inserted"
  | Restarted -> "restarted"
  | Frozen _ -> "frozen"
  | Precopy_round _ -> "precopy-round"
  | Fault _ -> "fault"
  | Prefetch _ -> "prefetch"
  | Dedup_digests _ -> "dedup-digests"
  | Dedup_elided _ -> "dedup-elided"
  | Checkpointed _ -> "checkpointed"
  | Restored _ -> "restored"
  | Transport_give_up -> "transport-give-up"
  | Engine_abort _ -> "engine-abort"
  | Outcome _ -> "outcome"
  | Auto_threshold _ -> "auto-threshold"
  | Auto_candidate _ -> "auto-candidate"

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ev =
  let detail =
    match ev.kind with
    | Requested { proc_name; strategy } ->
        Printf.sprintf {|,"proc_name":"%s","strategy":"%s"|}
          (json_escape proc_name)
          (json_escape (Strategy.name strategy))
    | Excised { Accent_kernel.Excise.amap_ms; rimas_ms; overall_ms } ->
        Printf.sprintf {|,"amap_ms":%.3f,"rimas_ms":%.3f,"overall_ms":%.3f|}
          amap_ms rimas_ms overall_ms
    | Rimas_delivered { data_bytes } ->
        Printf.sprintf {|,"data_bytes":%d|} data_bytes
    | Inserted { insert_ms } -> Printf.sprintf {|,"insert_ms":%.3f|} insert_ms
    | Frozen { residual_bytes } ->
        Printf.sprintf {|,"residual_bytes":%d|} residual_bytes
    | Precopy_round { round; bytes } ->
        Printf.sprintf {|,"round":%d,"bytes":%d|} round bytes
    | Fault kind -> Printf.sprintf {|,"kind":"%s"|} (fault_kind_name kind)
    | Prefetch kind ->
        Printf.sprintf {|,"kind":"%s"|} (prefetch_kind_name kind)
    | Dedup_digests { pages; hits } ->
        Printf.sprintf {|,"pages":%d,"hits":%d|} pages hits
    | Dedup_elided { bytes } -> Printf.sprintf {|,"bytes":%d|} bytes
    | Checkpointed { pages; new_bytes } ->
        Printf.sprintf {|,"pages":%d,"new_bytes":%d|} pages new_bytes
    | Restored { pages } -> Printf.sprintf {|,"pages":%d|} pages
    | Outcome { outcome; remote_touched_pages } ->
        Printf.sprintf {|,"outcome":"%s","remote_touched_pages":%d|}
          (outcome_name outcome)
          remote_touched_pages
    | Auto_threshold { src; spread } ->
        Printf.sprintf {|,"src":%d,"spread":%.3f|} src spread
    | Auto_candidate { proc_name; src; dst } ->
        Printf.sprintf {|,"proc_name":"%s","src":%d,"dst":%d|}
          (json_escape proc_name) src dst
    | Engine_abort { reason } ->
        Printf.sprintf {|,"reason":"%s"|} (json_escape reason)
    | Core_delivered | Restarted | Transport_give_up -> ""
  in
  Printf.sprintf {|{"t_ms":%.3f,"proc":%d,"event":"%s"%s}|}
    (Accent_sim.Time.to_ms ev.at)
    ev.proc_id (kind_name ev.kind) detail

let jsonl_writer oc ev =
  output_string oc (to_json ev);
  output_char oc '\n'

let pp ppf ev =
  let detail =
    match ev.kind with
    | Requested { proc_name; strategy } ->
        Printf.sprintf " %s under %s" proc_name (Strategy.name strategy)
    | Excised { Accent_kernel.Excise.overall_ms; _ } ->
        Printf.sprintf " (%.1f ms)" overall_ms
    | Rimas_delivered { data_bytes } -> Printf.sprintf " (%d B data)" data_bytes
    | Inserted { insert_ms } -> Printf.sprintf " (%.1f ms)" insert_ms
    | Frozen { residual_bytes } ->
        Printf.sprintf " (%d B residual)" residual_bytes
    | Precopy_round { round; bytes } ->
        Printf.sprintf " %d (%d B)" round bytes
    | Fault kind -> " " ^ fault_kind_name kind
    | Prefetch kind -> " " ^ prefetch_kind_name kind
    | Dedup_digests { pages; hits } ->
        Printf.sprintf " %d/%d pages already held" hits pages
    | Dedup_elided { bytes } -> Printf.sprintf " (%d B withheld)" bytes
    | Checkpointed { pages; new_bytes } ->
        Printf.sprintf " %d pages (%d B new)" pages new_bytes
    | Restored { pages } -> Printf.sprintf " %d pages verified" pages
    | Outcome { outcome; remote_touched_pages } ->
        Printf.sprintf " %s (%d pages touched)"
          (outcome_name outcome)
          remote_touched_pages
    | Auto_threshold { src; spread } ->
        Printf.sprintf " host %d overloaded (spread %.2f)" src spread
    | Auto_candidate { proc_name; src; dst } ->
        Printf.sprintf " %s: host %d -> host %d" proc_name src dst
    | Engine_abort { reason } -> Printf.sprintf " (%s)" reason
    | Core_delivered | Restarted | Transport_give_up -> ""
  in
  Format.fprintf ppf "%10.3f ms  proc %d  %s%s"
    (Accent_sim.Time.to_ms ev.at)
    ev.proc_id (kind_name ev.kind) detail
