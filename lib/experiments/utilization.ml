open Accent_sim
open Accent_kernel
open Accent_core
module R = Result_table

let table ~duration_s world =
  let busy v =
    if duration_s <= 0. then Printf.sprintf "%.2f" v
    else Printf.sprintf "%.2f (%.0f%%)" v (100. *. v /. duration_s)
  in
  let seconds server = Time.to_seconds (Queue_server.busy_time server) in
  R.table
    (Printf.sprintf "Host utilisation over %.1fs (busy seconds; %% of trial)"
       duration_s)
    ~keys:[ ("host", "host") ]
    [
      R.column "NMS" "nms_busy_s" (Custom busy);
      R.column "kernel" "kernel_busy_s" (Custom busy);
      R.column "exec" "exec_busy_s" (Custom busy);
      R.column "disk" "disk_busy_s" (Custom busy);
      R.column "msgs" "nms_messages" (Fixed 0);
    ]
    (Array.to_list
       (Array.map
          (fun h ->
            let nms = Host.nms h in
            R.row [ Host.name h ]
              (List.map R.measured
                 [
                   Time.to_seconds (Accent_net.Netmsgserver.busy_time nms);
                   seconds (Host.cpu h);
                   seconds (Host.exec_cpu h);
                   seconds (Host.disk_server h);
                   float_of_int (Accent_net.Netmsgserver.messages_handled nms);
                 ]))
          world.World.hosts))
