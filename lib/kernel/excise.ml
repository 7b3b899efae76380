open Accent_sim
open Accent_mem
open Accent_ipc

type timings = { amap_ms : float; rimas_ms : float; overall_ms : float }

type excised = {
  image : Proc_image.t;
  core : Context.core;
  rimas : Memory_object.t;
  layout : Context.layout_run list;
  resident : Page.index list;
  timings : timings;
}

let estimate_timings space =
  let resident_pages = Address_space.resident_page_count space in
  let real_pages = Address_space.pages_materialized space in
  let disk_pages = real_pages - resident_pages in
  let amap_ms =
    Cost_model.amap_base_ms
    +. (Cost_model.amap_per_region_ms
       *. float_of_int (Address_space.region_count space))
    +. (Cost_model.amap_per_real_page_ms *. float_of_int real_pages)
    +. (Cost_model.amap_per_vm_segment_ms
       *. float_of_int (Address_space.vm_segment_count space))
  in
  let rimas_ms =
    Cost_model.rimas_base_ms
    +. (Cost_model.rimas_per_resident_page_ms *. float_of_int resident_pages)
    +. (Cost_model.rimas_per_disk_page_ms *. float_of_int disk_pages)
  in
  {
    amap_ms;
    rimas_ms;
    overall_ms = Cost_model.excise_base_ms +. amap_ms +. rimas_ms;
  }

let capture host proc =
  Proc_runner.interrupt proc;
  let space = Proc.space_exn proc in
  let pager = Host.pager host in
  if Pager.pending_faults_for pager ~proc_id:proc.Proc.id > 0 then
    invalid_arg "Excise: process has a fault in flight";
  let timings = estimate_timings space in
  let image = Proc_image.capture host proc in
  let rimas, layout = Proc_image.to_rimas image in
  Memory_object.validate rimas;
  {
    image;
    core = image.Proc_image.core;
    rimas;
    layout;
    resident = image.Proc_image.resident;
    timings;
  }

let dissolve host proc excised ~k =
  (* The image now holds everything; the local incarnation dissolves. *)
  let space = Proc.space_exn proc in
  proc.Proc.pcb.Pcb.status <- Pcb.Excised;
  proc.Proc.pcb.Pcb.migrations <- proc.Proc.pcb.Pcb.migrations + 1;
  proc.Proc.space <- None;
  Pager.forget_segments (Host.pager host) ~space_id:(Address_space.id space);
  Host.drop_space host space;
  Host.remove_proc host proc;
  ignore
    (Engine.schedule (Host.engine host)
       ~delay:(Time.ms excised.timings.overall_ms) (fun () -> k excised))

let excise host proc ~k = dissolve host proc (capture host proc) ~k
