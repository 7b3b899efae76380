type t = {
  clock : float array; (* singleton cell: unboxed, so advancing the
                          clock on every event allocates nothing *)
  queue : (unit -> unit) Event_queue.t;
  root_rng : Accent_util.Rng.t;
  mutable executed : int;
}

let create ?(seed = 1L) () =
  {
    clock = [| Time.zero |];
    queue = Event_queue.create ();
    root_rng = Accent_util.Rng.create seed;
    executed = 0;
  }

let now t = t.clock.(0)
let rng t label = Accent_util.Rng.of_label t.root_rng label

let schedule t ~delay f =
  let delay = Float.max 0. delay in
  Event_queue.push t.queue ~time:(Time.add t.clock.(0) delay) f

(* fire-and-forget: no cancellation handle, so nothing is allocated *)
let post t ~delay f =
  let delay = Float.max 0. delay in
  Event_queue.push_unit t.queue ~time:(Time.add t.clock.(0) delay) f

let cancel t handle = Event_queue.cancel t.queue handle

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    let f = Event_queue.pop_payload_exn t.queue in
    t.clock.(0) <- Event_queue.last_time t.queue;
    t.executed <- t.executed + 1;
    f ();
    true
  end

let run ?limit t =
  (match limit with
  | None ->
      while not (Event_queue.is_empty t.queue) do
        ignore (step t)
      done
  | Some l ->
      (* next_time skips dead roots without boxing the peeked float *)
      while
        (not (Event_queue.is_empty t.queue))
        && Event_queue.next_time t.queue <= l
      do
        ignore (step t)
      done);
  (match limit with
  | Some l when t.clock.(0) < l && not (Event_queue.is_empty t.queue) ->
      t.clock.(0) <- l
  | _ -> ());
  t.clock.(0)

let run_until t time =
  let final = run ~limit:time t in
  if final < time then t.clock.(0) <- time;
  t.clock.(0)

let pending t = Event_queue.size t.queue
let events_executed t = t.executed
