type loss =
  | No_loss
  | Iid of float
  | Gilbert_elliott of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

type partition = {
  start_ms : float;
  duration_ms : float;
  between : (int * int) option;
}

type t = {
  loss : loss;
  corrupt_prob : float;
  reorder_prob : float;
  reorder_max_ms : float;
  partitions : partition list;
}

let none =
  {
    loss = No_loss;
    corrupt_prob = 0.;
    reorder_prob = 0.;
    reorder_max_ms = 0.;
    partitions = [];
  }

let iid p = { none with loss = Iid p }

(* Long-run loss of a Gilbert–Elliott chain is
   loss_bad * pi_bad + loss_good * pi_good with
   pi_bad = p_gb / (p_gb + p_bg); solve for p_good_to_bad given the
   target overall rate, mean burst length and in-burst loss. *)
let burst ?(mean_burst = 8.) ?(loss_bad = 0.75) p =
  let p_bad_to_good = 1. /. Float.max 1. mean_burst in
  let pi_bad = Float.min 1. (p /. Float.max 1e-9 loss_bad) in
  let p_good_to_bad =
    if pi_bad >= 1. then 1.
    else p_bad_to_good *. pi_bad /. (1. -. pi_bad)
  in
  {
    none with
    loss = Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good = 0.; loss_bad };
  }

let with_partition ?between ~start_ms ~duration_ms t =
  { t with partitions = t.partitions @ [ { start_ms; duration_ms; between } ] }

let with_corruption p t = { t with corrupt_prob = p }

let with_reordering ?(max_ms = 20.) p t =
  { t with reorder_prob = p; reorder_max_ms = max_ms }

let partition_active p ~now_ms ~src ~dst =
  now_ms >= p.start_ms
  && now_ms < p.start_ms +. p.duration_ms
  &&
  match p.between with
  | None -> true
  | Some (a, b) -> (a = src && b = dst) || (a = dst && b = src)

let partitioned t ~now_ms ~src ~dst =
  List.exists (fun p -> partition_active p ~now_ms ~src ~dst) t.partitions

let is_clean t =
  (match t.loss with
  | No_loss -> true
  | Iid p -> p <= 0.
  | Gilbert_elliott { p_good_to_bad; loss_good; _ } ->
      p_good_to_bad <= 0. && loss_good <= 0.)
  && t.corrupt_prob <= 0. && t.reorder_prob <= 0.
  && t.partitions = []

let pp ppf t =
  let loss =
    match t.loss with
    | No_loss -> "none"
    | Iid p -> Printf.sprintf "iid %.2f%%" (100. *. p)
    | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
        Printf.sprintf
          "burst (g->b %.4f, b->g %.4f, loss %.2f%%/%.2f%%)" p_good_to_bad
          p_bad_to_good (100. *. loss_good) (100. *. loss_bad)
  in
  Format.fprintf ppf "@[<v>loss: %s@,corruption: %.2f%%@," loss
    (100. *. t.corrupt_prob);
  Format.fprintf ppf "reordering: %.2f%% (up to +%.1f ms)"
    (100. *. t.reorder_prob) t.reorder_max_ms;
  List.iter
    (fun p ->
      Format.fprintf ppf "@,partition: [%.0f, %.0f) ms %s" p.start_ms
        (p.start_ms +. p.duration_ms)
        (match p.between with
        | None -> "(all hosts)"
        | Some (a, b) -> Printf.sprintf "(host%d <-> host%d)" a b))
    t.partitions;
  Format.fprintf ppf "@]"

type fate = Delivered | Corrupted | Dropped
type decision = { fate : fate; extra_delay_ms : float }

type state = {
  plan : t;
  rng : Accent_util.Rng.t;
  mutable ge_bad : bool;
  mutable decided : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable delayed : int;
}

let make plan ~rng =
  { plan; rng; ge_bad = false; decided = 0; dropped = 0; corrupted = 0;
    delayed = 0 }


let lost s =
  match s.plan.loss with
  | No_loss -> false
  | Iid p -> Accent_util.Rng.bernoulli s.rng p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      (* advance the chain one step per fragment, then draw in the new
         state, so a burst can begin on the fragment that triggers it *)
      (if s.ge_bad then begin
         if Accent_util.Rng.bernoulli s.rng p_bad_to_good then
           s.ge_bad <- false
       end
       else if Accent_util.Rng.bernoulli s.rng p_good_to_bad then
         s.ge_bad <- true);
      Accent_util.Rng.bernoulli s.rng (if s.ge_bad then loss_bad else loss_good)

let decide s ~now_ms ~src ~dst =
  s.decided <- s.decided + 1;
  if partitioned s.plan ~now_ms ~src ~dst then begin
    s.dropped <- s.dropped + 1;
    { fate = Dropped; extra_delay_ms = 0. }
  end
  else if lost s then begin
    s.dropped <- s.dropped + 1;
    { fate = Dropped; extra_delay_ms = 0. }
  end
  else if Accent_util.Rng.bernoulli s.rng s.plan.corrupt_prob then begin
    s.corrupted <- s.corrupted + 1;
    { fate = Corrupted; extra_delay_ms = 0. }
  end
  else if Accent_util.Rng.bernoulli s.rng s.plan.reorder_prob then begin
    s.delayed <- s.delayed + 1;
    let extra =
      if s.plan.reorder_max_ms > 0. then
        Accent_util.Rng.float s.rng s.plan.reorder_max_ms
      else 0.
    in
    { fate = Delivered; extra_delay_ms = extra }
  end
  else { fate = Delivered; extra_delay_ms = 0. }

let decided s = s.decided
let dropped s = s.dropped
let corrupted s = s.corrupted
let delayed s = s.delayed
