open Accent_sim

type params = {
  bytes_per_ms : float;
  latency_ms : float;
  fragment_bytes : int;
  fragment_overhead_bytes : int;
}

let default_params =
  {
    bytes_per_ms = 1250.; (* 10 Mbit/s *)
    latency_ms = 2.;
    fragment_bytes = 1536;
    fragment_overhead_bytes = 32;
  }

type t = {
  engine : Engine.t;
  params : params;
  monitor : Transfer_monitor.t;
  medium : Queue_server.t;
  faults : Fault_plan.state;
  mutable bytes : int;
  mutable fragments : int;
}

let create ?(fault_plan = Fault_plan.none) engine ~params ~monitor =
  {
    engine;
    params;
    monitor;
    medium = Queue_server.create engine ~name:"link";
    faults =
      Fault_plan.make fault_plan ~rng:(Engine.rng engine "link.fault_plan");
    bytes = 0;
    fragments = 0;
  }

let params_of t = t.params

let fault_plan t = Fault_plan.plan t.faults

(* A transmission always needs at least one packet: a 0-byte payload
   (control-only message, bare acknowledgement) still puts one
   header-only fragment on the wire. *)
let fragments_for params bytes =
  max 1 ((bytes + params.fragment_bytes - 1) / params.fragment_bytes)

let wire_bytes_for params bytes =
  bytes + (fragments_for params bytes * params.fragment_overhead_bytes)

let transmit_frag t ~src ~dst ~bytes ~category ?(on_wire = fun () -> ()) k =
  let wire = bytes + t.params.fragment_overhead_bytes in
  let service = Time.ms (float_of_int wire /. t.params.bytes_per_ms) in
  Queue_server.submit t.medium ~service_time:service (fun () ->
      t.bytes <- t.bytes + wire;
      t.fragments <- t.fragments + 1;
      Transfer_monitor.record t.monitor ~time:(Engine.now t.engine) ~category
        ~bytes:wire;
      on_wire ();
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
