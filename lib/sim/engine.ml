type t = {
  clock : float array; (* the queue's clock cell: a pop moves it *)
  queue : (unit -> unit) Event_queue.t;
  root_rng : Accent_util.Rng.t;
  mutable executed : int;
}

let create ?(seed = 1L) () =
  let queue = Event_queue.create () in
  {
    clock = Event_queue.clock queue;
    queue;
    root_rng = Accent_util.Rng.create seed;
    executed = 0;
  }

let now t = t.clock.(0)
let clock t = t.clock
let rng t label = Accent_util.Rng.of_label t.root_rng label

(* the delay goes to the queue as given, so nothing is boxed *)
let schedule t ~delay f = Event_queue.push_after t.queue ~delay f
let post t ~delay f = ignore (Event_queue.push_after t.queue ~delay f)
let post_at t cell i f = Event_queue.push_after_at t.queue cell i f
let cancel t handle = Event_queue.cancel t.queue handle

let step t =
  let f = Event_queue.pop_payload_exn t.queue in
  t.executed <- t.executed + 1;
  f ()

let run ?limit t =
  (match limit with
  | None ->
      while not (Event_queue.is_empty t.queue) do
        step t
      done
  | Some l ->
      (* due skips dead roots without moving the clock *)
      while Event_queue.due t.queue ~limit:l do
        step t
      done;
      if t.clock.(0) < l && not (Event_queue.is_empty t.queue) then
        t.clock.(0) <- l);
  t.clock.(0)

let run_until t time =
  let final = run ~limit:time t in
  if final < time then t.clock.(0) <- time;
  t.clock.(0)

let pending t = Event_queue.size t.queue
let events_executed t = t.executed
