open Accent_sim
open Accent_mem

type t = {
  engine : Engine.t;
  ids : Ids.t;
  id : int;
  name : string;
  costs : Cost_model.t;
  mem : Phys_mem.t;
  disk_store : Paging_disk.t;
  disk_server : Queue_server.t;
  cpu : Queue_server.t;
  exec_cpu : Queue_server.t;
  kernel : Accent_ipc.Kernel_ipc.t;
  nms : Accent_net.Netmsgserver.t;
  pager : Pager.t;
  registry : Accent_net.Net_registry.t;
  spaces : (int, Address_space.t) Hashtbl.t;
  procs : (int, Proc.t) Hashtbl.t;
  mutable backers : Accent_net.Backing_server.t list; (* [new_backer]'s *)
}

let create engine ~ids ~id ~name ~costs ~link ~registry ~monitor =
  let mem = Phys_mem.create ~frames:costs.Cost_model.frames_per_host in
  let disk_store = Paging_disk.create () in
  let disk_server =
    Queue_server.create engine ~name:(Printf.sprintf "%s/disk" name)
  in
  let cpu = Queue_server.create engine ~name:(Printf.sprintf "%s/cpu" name) in
  let exec_cpu =
    Queue_server.create engine ~name:(Printf.sprintf "%s/exec" name)
  in
  let kernel = Accent_ipc.Kernel_ipc.create engine ~cpu in
  let nms =
    Accent_net.Netmsgserver.create engine ~ids ~host_id:id ~kernel ~link
      ~registry ~monitor ~params:costs.Cost_model.nms
  in
  let pager =
    Pager.create engine ~ids ~kernel ~disk:disk_server ~costs ~host_id:id
  in
  let t =
    {
      engine;
      ids;
      id;
      name;
      costs;
      mem;
      disk_store;
      disk_server;
      cpu;
      exec_cpu;
      kernel;
      nms;
      pager;
      registry;
      spaces = Hashtbl.create 8;
      procs = Hashtbl.create 8;
      backers = [];
    }
  in
  Accent_net.Net_registry.set_port_home registry (Pager.port pager)
    ~host_id:id;
  (* Evicted frames page out to the owning space's slot on the local disk. *)
  Phys_mem.set_evict_handler mem (fun ~space_id ~page data ~dirty ->
      match Hashtbl.find t.spaces space_id with
      | space -> Address_space.evict_page space page data ~dirty
      | exception Not_found ->
          Logs.warn (fun m ->
              m "%s: evicting frame of unknown space %d" name space_id));
  t

let id t = t.id
let name t = t.name
let engine t = t.engine
let ids t = t.ids
let costs t = t.costs
let mem t = t.mem
let kernel t = t.kernel
let nms t = t.nms
let pager t = t.pager
let registry t = t.registry

let new_space t =
  let space =
    Address_space.create ~id:(Ids.next t.ids) ~mem:t.mem ~disk:t.disk_store
  in
  Hashtbl.replace t.spaces (Address_space.id space) space;
  space

let drop_space t space =
  Address_space.destroy space;
  Hashtbl.remove t.spaces (Address_space.id space)

let new_port t =
  let port = Accent_ipc.Port.fresh t.ids in
  Accent_net.Net_registry.set_port_home t.registry port ~host_id:t.id;
  port

let new_backer t ~service_ms =
  let backer =
    Accent_net.Backing_server.create t.engine ~ids:t.ids ~kernel:t.kernel
      ~registry:t.registry ~host_id:t.id
      ~store:(Accent_net.Netmsgserver.content_store t.nms)
      ~service_ms
  in
  t.backers <- backer :: t.backers;
  backer

let spawn t ~name ~trace ~space ?(n_ports = 2) () =
  let ports = List.init n_ports (fun _ -> new_port t) in
  let proc = Proc.create ~id:(Ids.next t.ids) ~name ~trace ~ports ~space () in
  Hashtbl.replace t.procs proc.Proc.id proc;
  proc

let adopt t proc =
  Hashtbl.replace t.procs proc.Proc.id proc;
  List.iter
    (fun port ->
      Accent_net.Net_registry.set_port_home t.registry port ~host_id:t.id)
    proc.Proc.ports

let remove_proc t proc = Hashtbl.remove t.procs proc.Proc.id

(* Completed processes surrender their port homes: the registry entry is
   the one per-port record that outlives the proc record itself, and a
   churn run that never reclaims it retains three table entries for
   every job that ever ran.  Only for genuinely finished processes —
   an excised incarnation's ports live on at the destination, which
   re-homes them via [adopt]. *)
let release_ports t proc =
  List.iter
    (fun port -> Accent_net.Net_registry.forget_port t.registry port)
    proc.Proc.ports
let proc_count t = Hashtbl.length t.procs
let find_proc t id = Hashtbl.find_opt t.procs id

let procs t =
  Hashtbl.fold (fun _ proc acc -> proc :: acc) t.procs []
  |> List.sort (fun a b -> Int.compare a.Proc.id b.Proc.id)

(* Counted directly off the table: this is the load sampler's per-host
   per-tick probe, so it must not build (and sort) a proc list. *)
let live_proc_count t =
  Hashtbl.fold
    (fun _ p acc ->
      match p.Proc.pcb.Pcb.status with
      | Pcb.Running | Pcb.Ready -> acc + 1
      | Pcb.Blocked | Pcb.Terminated | Pcb.Excised -> acc)
    t.procs 0
let disk_server t = t.disk_server
let cpu t = t.cpu
let exec_cpu t = t.exec_cpu

let message_seconds t =
  Time.to_seconds
    (Time.add
       (Accent_net.Netmsgserver.busy_time t.nms)
       (Queue_server.busy_time t.cpu))

let resident_pages t =
  Hashtbl.fold
    (fun _ space acc -> acc + Address_space.resident_page_count space)
    t.spaces 0

(* Failed backers own nothing ([Backing_server.fail] drops every owned
   segment), so counting them changes no sum. *)
let segments_owned t =
  List.fold_left
    (fun acc b -> acc + Accent_net.Backing_server.segments_alive b)
    (Accent_net.Netmsgserver.segments_backed t.nms)
    t.backers
