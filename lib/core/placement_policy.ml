(* First-class placement policies: pure decision functions over a load
   snapshot.  Extracted from Auto_migrator so the §6 "automatic
   migration strategy" family can be compared like-for-like — the
   daemon owns sampling, event publication and migration mechanics;
   a policy only turns a snapshot into directives. *)

type candidate = {
  proc_id : int;
  proc_name : string;
  host : int;
  affinity : int -> float;
}

type snapshot = {
  loads : float array;
  movable : int -> candidate list;
  rng : Accent_util.Rng.t;
}

type directive = {
  victim : candidate;
  src : int;
  dst : int;
}

type action = Observe of { src : int; spread : float } | Move of directive

type t = { name : string; decide : snapshot -> action list }

let name t = t.name
let decide t snapshot = t.decide snapshot

(* --- snapshot helpers --------------------------------------------------- *)

let n_hosts s = Array.length s.loads

(* first strict maximum and the global minimum, as the original
   Auto_migrator scan computed them *)
let spread_extremes loads =
  let max_i = ref 0 and min_load = ref infinity in
  Array.iteri
    (fun i l ->
      if l > loads.(!max_i) then max_i := i;
      if l < !min_load then min_load := l)
    loads;
  (!max_i, !min_load)

(* The load spread (busiest minus idlest, in runnable processes) above
   which the load-aware policies act. *)
let imbalance_threshold = 1.5

(* --- Threshold: the original balancer, bit-for-bit ---------------------- *)

(* One move per tick: when the busiest-to-idlest spread exceeds the
   threshold, the first movable process on the busiest host goes to the
   host minimising [load - affinity_weight * affinity] (earliest index
   wins ties).  The Observe action is emitted on every crossing, even
   when no victim or destination exists — exactly the event stream the
   pre-refactor daemon published. *)
let threshold ?(affinity_weight = 2.0) () =
  let decide s =
    let max_i, min_load = spread_extremes s.loads in
    let spread = s.loads.(max_i) -. min_load in
    if spread > imbalance_threshold then begin
      let src = max_i in
      let observe = Observe { src; spread } in
      match s.movable src with
      | [] -> [ observe ]
      | victim :: _ -> (
          let best = ref None in
          Array.iteri
            (fun i load ->
              if i <> src then begin
                let score =
                  load -. (affinity_weight *. victim.affinity i)
                in
                match !best with
                | Some (_, best_score) when best_score <= score -> ()
                | _ -> best := Some (i, score)
              end)
            s.loads;
          match !best with
          | None -> [ observe ]
          | Some (dst, _) -> [ observe; Move { victim; src; dst } ])
    end
    else []
  in
  { name = "threshold"; decide }

(* --- Destination-swap: pairwise levelling à la Avin et al. -------------- *)

(* Hosts are ranked by load and paired busiest-with-idlest; every pair
   whose spread crosses the threshold moves one process down the
   gradient, and — the "swap" — if the receiving host has a movable
   process whose memory is mostly backed by the sender, that process
   rides back, so load stays levelled while both processes land nearer
   their data.  Unlike Threshold this emits up to [n/2] moves per tick,
   which is what lets it keep up with continuous churn. *)
let destination_swap () =
  let decide s =
    let n = n_hosts s in
    let order = Array.init n (fun i -> i) in
    (* stable rank by load, index breaking ties, so decisions are
       deterministic *)
    Array.sort
      (fun a b ->
        match Float.compare s.loads.(b) s.loads.(a) with
        | 0 -> Int.compare a b
        | c -> c)
      order;
    let actions = ref [] in
    for k = 0 to (n / 2) - 1 do
      let busy = order.(k) and idle = order.(n - 1 - k) in
      let spread = s.loads.(busy) -. s.loads.(idle) in
      if spread > imbalance_threshold then begin
        match s.movable busy with
        | [] -> ()
        | victim :: _ -> (
            actions := Observe { src = busy; spread } :: !actions;
            actions := Move { victim; src = busy; dst = idle } :: !actions;
            (* swap leg: send back a process that is pulled toward the
               busy host's data, keeping the pair level *)
            match
              List.find_opt
                (fun c ->
                  c.proc_id <> victim.proc_id
                  && c.affinity busy > c.affinity idle +. 1e-9)
                (s.movable idle)
            with
            | Some back -> actions := Move { victim = back; src = idle; dst = busy } :: !actions
            | None -> ())
      end
    done;
    List.rev !actions
  in
  { name = "destination-swap"; decide }

(* --- Random / Static baselines ------------------------------------------ *)

(* Random: each tick, one uniformly random movable process moves to a
   uniformly random other host.  The floor any load-aware policy must
   beat: it pays full migration cost for zero information. *)
let random () =
  let decide s =
    let n = n_hosts s in
    if n < 2 then []
    else begin
      let src = Accent_util.Rng.int s.rng n in
      match s.movable src with
      | [] -> []
      | candidates ->
          let arr = Array.of_list candidates in
          let victim = Accent_util.Rng.choose s.rng arr in
          let dst = (src + 1 + Accent_util.Rng.int s.rng (n - 1)) mod n in
          [ Move { victim; src; dst } ]
    end
  in
  { name = "random"; decide }

(* Static: never migrate — the unmanaged baseline expressed as a policy,
   so the comparison harness treats it uniformly. *)
let static () = { name = "static"; decide = (fun _ -> []) }

let by_name = function
  | "threshold" -> Some (threshold ())
  | "destination-swap" | "swap" -> Some (destination_swap ())
  | "random" -> Some (random ())
  | "static" | "none" -> Some (static ())
  | _ -> None
