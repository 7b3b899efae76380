type t = {
  nms : Accent_net.Netmsgserver.params;
  link : Accent_net.Link.params;
  insert_base_ms : float;
  insert_per_amap_entry_ms : float;
  insert_per_data_page_ms : float;
  fault_timeout_ms : float;
  frames_per_host : int;
}

let default =
  {
    nms = Accent_net.Netmsgserver.default_params;
    link = Accent_net.Link.default_params;
    insert_base_ms = 150.;
    insert_per_amap_entry_ms = 0.5;
    insert_per_data_page_ms = 0.12;
    fault_timeout_ms = 60_000.;
    frames_per_host = 4096;
  }

let fill_zero_ms = 2.0
let pager_ms = 2.8
let disk_service_ms = 38.0
let imag_install_per_page_ms = 1.0
let excise_base_ms = 60.
let amap_base_ms = 250.
let amap_per_region_ms = 0.15
let amap_per_real_page_ms = 0.42
let amap_per_vm_segment_ms = 5.0
let rimas_base_ms = 180.
let rimas_per_resident_page_ms = 1.25
let rimas_per_disk_page_ms = 0.03
let pcb_bytes = 1024
let disk_fault_ms = pager_ms +. disk_service_ms
