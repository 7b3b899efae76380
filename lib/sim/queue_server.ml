(* A single-server FIFO station, allocation-flat on the per-job path.

   The waiting line is a growable ring buffer of parallel arrays — the
   two per-job times in flat float arrays, the continuation in a
   closure array — so [submit] stores three slots instead of building a
   mixed job record (whose Time.t fields the runtime boxed) plus a
   Queue cell.  The job in service lives in the same shape: its service
   time sits in a scratch float array and one completion closure,
   allocated at [create], is rescheduled for every job, where the old
   code closed over each job record afresh.  Times are read from the
   engine's clock cell and busy time is summed in the scratch array, so
   no clock read or sum boxes a float; the job's wait and service time
   go to [Stats.add_at] and [Engine.post_at] as a cell of that array,
   since a float argument to another module is boxed at the call.  The
   one per-job statistic is the queueing delay, streamed at service
   start into a moments-only Stats accumulator: a fixed few words per
   station however many jobs it serves and however widely their waits
   spread, and no [log] per job (the readers want the mean and the
   extremes, never a percentile). *)

type t = {
  engine : Engine.t;
  name : string;
  (* ring buffer of waiting jobs; [head] is the next to serve *)
  mutable q_service : float array;
  mutable q_arrived : float array;
  mutable q_k : (unit -> unit) array;
  mutable head : int;
  mutable waiting : int;
  mutable in_service : bool;
  mutable completed : int;
  (* scratch.(0) busy_total; scratch.(1) the current job's wait, then
     its service time — unboxed, so serving a job never boxes a float *)
  scratch : float array;
  mutable cur_k : unit -> unit;
  mutable on_done : unit -> unit;
  waits : Accent_util.Stats.t;
}

let nop () = ()

let ring_grow t =
  let cap = Array.length t.q_k in
  let cap' = max 16 (cap * 2) in
  let service = Array.make cap' 0. in
  let arrived = Array.make cap' 0. in
  let k = Array.make cap' nop in
  for i = 0 to t.waiting - 1 do
    let j = (t.head + i) mod max 1 cap in
    service.(i) <- t.q_service.(j);
    arrived.(i) <- t.q_arrived.(j);
    k.(i) <- t.q_k.(j)
  done;
  t.q_service <- service;
  t.q_arrived <- arrived;
  t.q_k <- k;
  t.head <- 0

let ring_push t ~service_time k =
  if t.waiting = Array.length t.q_k then ring_grow t;
  let i = (t.head + t.waiting) mod Array.length t.q_k in
  t.q_service.(i) <- service_time;
  t.q_arrived.(i) <- (Engine.clock t.engine).(0);
  t.q_k.(i) <- k;
  t.waiting <- t.waiting + 1

let start_next t =
  if t.waiting = 0 then t.in_service <- false
  else begin
    t.in_service <- true;
    let i = t.head in
    let service_time = t.q_service.(i) and arrived = t.q_arrived.(i) in
    t.cur_k <- t.q_k.(i);
    t.q_k.(i) <- nop;
    (* drop the closure so the ring never outlives it *)
    t.head <- (i + 1) mod Array.length t.q_k;
    t.waiting <- t.waiting - 1;
    t.scratch.(1) <- (Engine.clock t.engine).(0) -. arrived;
    Accent_util.Stats.add_at t.waits t.scratch 1;
    t.scratch.(1) <- service_time;
    Engine.post_at t.engine t.scratch 1 t.on_done
  end

let create engine ~name =
  let t =
    {
      engine;
      name;
      q_service = [||];
      q_arrived = [||];
      q_k = [||];
      head = 0;
      waiting = 0;
      in_service = false;
      completed = 0;
      scratch = Array.make 2 0.;
      cur_k = nop;
      on_done = nop;
      waits = Accent_util.Stats.moments_only ();
    }
  in
  (* the one completion continuation: rescheduled for every job *)
  t.on_done <-
    (fun () ->
      t.completed <- t.completed + 1;
      t.scratch.(0) <- t.scratch.(0) +. t.scratch.(1);
      let k = t.cur_k in
      t.cur_k <- nop;
      k ();
      start_next t);
  t

let name t = t.name
let busy t = t.in_service
let queue_length t = t.waiting

let submit t ~service_time k =
  ring_push t ~service_time k;
  if not t.in_service then start_next t

let jobs_completed t = t.completed
let busy_time t = t.scratch.(0)
let wait_stats t = t.waits

let reset_accounting t =
  t.completed <- 0;
  t.scratch.(0) <- Time.zero;
  Accent_util.Stats.clear t.waits
