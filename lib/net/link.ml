open Accent_sim

type params = { bytes_per_ms : float; latency_ms : float }

let default_params = { bytes_per_ms = 1250. (* 10 Mbit/s *); latency_ms = 2. }
let fragment_bytes = 1536
let fragment_overhead_bytes = 32

type t = {
  engine : Engine.t;
  params : params;
  monitor : Transfer_monitor.t;
  medium : Queue_server.t;
  plan : Fault_plan.t option;
  faults : Fault_plan.state;
  mutable bytes : int;
  mutable fragments : int;
}

let create ?fault_plan engine ~params ~monitor =
  {
    engine;
    params;
    monitor;
    medium = Queue_server.create engine ~name:"link";
    plan = fault_plan;
    faults =
      Fault_plan.make
        (Option.value fault_plan ~default:Fault_plan.none)
        ~rng:(Engine.rng engine "link.fault_plan");
    bytes = 0;
    fragments = 0;
  }

let params_of t = t.params

let fault_plan t = t.plan

(* A transmission always needs at least one packet: a 0-byte payload
   (control-only message, bare acknowledgement) still puts one
   header-only fragment on the wire. *)
let fragments_for bytes = max 1 ((bytes + fragment_bytes - 1) / fragment_bytes)
let wire_bytes_for bytes =
  bytes + (fragments_for bytes * fragment_overhead_bytes)

let transmit_frag t ~src ~dst ~bytes ~category k =
  let wire = bytes + fragment_overhead_bytes in
  let service = Time.ms (float_of_int wire /. t.params.bytes_per_ms) in
  Queue_server.submit t.medium ~service_time:service (fun () ->
      t.bytes <- t.bytes + wire;
      t.fragments <- t.fragments + 1;
      Transfer_monitor.record t.monitor ~time:(Engine.now t.engine) ~category
        ~bytes:wire;
      let decision =
        Fault_plan.decide t.faults
          ~now_ms:(Time.to_ms (Engine.now t.engine))
          ~src ~dst
      in
      match decision.Fault_plan.fate with
      | Fault_plan.Dropped -> ()
      | (Fault_plan.Delivered | Fault_plan.Corrupted) as fate ->
          ignore
            (Engine.schedule t.engine
               ~delay:
                 (Time.ms
                    (t.params.latency_ms +. decision.Fault_plan.extra_delay_ms))
               (fun () -> k fate)))

let bytes_sent t = t.bytes
let fragments_sent t = t.fragments
let busy_time t = Queue_server.busy_time t.medium
