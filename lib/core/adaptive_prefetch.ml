open Accent_sim
open Accent_kernel

let period_ms = 500.
let raise_threshold = 0.7
let lower_threshold = 0.35

(* 1 keeps the hit-ratio signal alive; 15 is the paper's largest
   prefetch setting. *)
let min_prefetch = 1
let max_prefetch = 15

type t = {
  engine : Engine.t;
  proc : Proc.t;
  mutable last_extra : int;
  mutable last_hits : int;
  mutable adjustments : int;
  mutable trajectory : (float * int) list; (* reversed *)
}

let clamp v = max min_prefetch (min max_prefetch v)

let sample t =
  let de = t.proc.Proc.prefetch_extra - t.last_extra in
  let dh = t.proc.Proc.prefetch_hits - t.last_hits in
  t.last_extra <- t.proc.Proc.prefetch_extra;
  t.last_hits <- t.proc.Proc.prefetch_hits;
  (* too few new prefetched pages carry no signal; hold *)
  if de >= 4 then begin
    let ratio = float_of_int dh /. float_of_int de in
    let current = t.proc.Proc.prefetch in
    let next =
      if ratio >= raise_threshold then clamp ((2 * current) + 1)
      else if ratio <= lower_threshold then clamp (current / 2)
      else current
    in
    if next <> current then begin
      t.proc.Proc.prefetch <- next;
      t.adjustments <- t.adjustments + 1
    end
  end;
  t.trajectory <-
    (Time.to_ms (Engine.now t.engine), t.proc.Proc.prefetch) :: t.trajectory

let rec tick t =
  match t.proc.Proc.pcb.Pcb.status with
  | Pcb.Running | Pcb.Ready ->
      sample t;
      ignore
        (Engine.schedule t.engine ~delay:(Time.ms period_ms)
           (fun () -> tick t))
  | Pcb.Blocked | Pcb.Terminated | Pcb.Excised -> ()

let attach engine proc =
  let t =
    {
      engine;
      proc;
      last_extra = proc.Proc.prefetch_extra;
      last_hits = proc.Proc.prefetch_hits;
      adjustments = 0;
      trajectory = [];
    }
  in
  proc.Proc.prefetch <- clamp proc.Proc.prefetch;
  ignore (Engine.schedule engine ~delay:(Time.ms period_ms) (fun () -> tick t));
  t

let adjustments t = t.adjustments
let trajectory t = List.rev t.trajectory
