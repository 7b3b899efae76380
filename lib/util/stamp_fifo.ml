(* Positions rise forever; the key at position [p] sits in slot
   [p land (capacity - 1)], so growing the ring keeps every stamp. *)
type t = {
  mutable keys : int array; (* power-of-two length, or empty *)
  mutable first : int; (* position of the head pair *)
  mutable len : int;
}

let create () = { keys = [||]; first = 0; len = 0 }
let slot q pos = pos land (Array.length q.keys - 1)

(* Slide the live pairs down to the front, in order, restamping each.
   The write position never overtakes the read position, so this works
   in place; a restamp only lowers a key's stamp, so it can never make
   a later (stale) pair of the same key look live. *)
let compact q ~live ~restamp owner =
  let kept = ref 0 in
  for i = 0 to q.len - 1 do
    let key = q.keys.(slot q (q.first + i)) in
    if live owner key (q.first + i) then begin
      let pos = q.first + !kept in
      q.keys.(slot q pos) <- key;
      restamp owner key pos;
      incr kept
    end
  done;
  q.len <- !kept

let grow q =
  let old = q.keys in
  q.keys <- Array.make (max 16 (2 * Array.length old)) 0;
  for pos = q.first to q.first + q.len - 1 do
    q.keys.(slot q pos) <- old.(pos land (Array.length old - 1))
  done

let push q ~live ~restamp owner ~live_count key =
  if q.len >= 64 && q.len - live_count > live_count then
    compact q ~live ~restamp owner;
  if q.len = Array.length q.keys then grow q;
  let pos = q.first + q.len in
  q.keys.(slot q pos) <- key;
  q.len <- q.len + 1;
  pos

let pop q =
  q.first <- q.first + 1;
  q.len <- q.len - 1

let rec oldest q ~live owner =
  if q.len = 0 then -1
  else
    let key = q.keys.(slot q q.first) in
    if live owner key q.first then key
    else begin
      pop q;
      oldest q ~live owner
    end
