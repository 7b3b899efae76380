(* Small shared helpers for the test suite. *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* Require [World.audit] to raise, naming [check] in its report. *)
let audit_names world check =
  match Accent_core.World.audit world with
  | () -> Alcotest.failf "the audit passed; expected it to name %s" check
  | exception Failure report ->
      if not (contains report check) then
        Alcotest.failf "the audit did not name %s:\n%s" check report

(* A tiny two-host world with a small synthetic workload, shared by the
   integration suites. *)
let small_spec =
  {
    Accent_workloads.Spec.name = "Tiny";
    description = "small synthetic workload for tests";
    real_bytes = 64 * 512;
    total_bytes = 160 * 512;
    rs_bytes = 24 * 512;
    touched_real_pages = 20;
    rs_touched_overlap = 10;
    real_runs = 4;
    vm_segments = 3;
    pattern =
      Accent_workloads.Access_pattern.Sequential
        { streams = 2; revisit = 0.2; run = 8 };
    refs = 40;
    total_think_ms = 100.;
    zero_touch_pages = 3;
    base_addr = 0x40000;
  }

(* A cost model with the content-addressed transfer switched on. *)
let dedup_costs =
  {
    Accent_kernel.Cost_model.default with
    Accent_kernel.Cost_model.nms =
      {
        Accent_net.Netmsgserver.default_params with
        Accent_net.Netmsgserver.dedup = true;
      };
  }

let random_spec =
  {
    small_spec with
    Accent_workloads.Spec.name = "TinyRandom";
    pattern = Accent_workloads.Access_pattern.Clustered_random { cluster = 2. };
  }

(* A backing server on [host] with the MigrationManager's service time. *)
let new_backer host =
  Accent_kernel.Host.new_backer host
    ~service_ms:Accent_core.Migration_manager.backing_service_ms

(* Map [len] bytes of a backer's segment, from segment offset [offset],
   into [space] at address [at], and teach [host]'s pager where the
   faults go. *)
let map_segment host backing space ~at ~segment_id ~offset ~len =
  Accent_mem.Address_space.map_imaginary space
    (Accent_mem.Vaddr.of_len at len)
    ~segment_id ~offset;
  Accent_kernel.Pager.register_segment
    (Accent_kernel.Host.pager host)
    ~space_id:(Accent_mem.Address_space.id space)
    ~segment_id
    ~backing_port:(Accent_net.Backing_server.port backing)
    ~offset ~len ~vaddr:at

(* The measured values of a result table's column (by CSV header), top
   to bottom. *)
let column (t : Accent_experiments.Result_table.t) csv =
  let module R = Accent_experiments.Result_table in
  let headers = List.map (fun c -> c.R.csv) t.R.columns in
  List.map
    (fun r ->
      match List.assoc csv (List.combine headers r.R.cells) with
      | R.Number n -> n.R.measured
      | R.Label _ -> invalid_arg "Test_helpers.column: a label column")
    (R.rows t)

(* The moves an auto-migrator makes, as it publishes them on the world's
   bus: [(at, proc_name, src, dst)], oldest first once the world has run. *)
let auto_candidates world =
  let seen = ref [] in
  Accent_core.World.on_migration_event world (fun ev ->
      match ev.Accent_core.Mig_event.kind with
      | Accent_core.Mig_event.Auto_candidate { proc_name; src; dst } ->
          seen := (ev.Accent_core.Mig_event.at, proc_name, src, dst) :: !seen
      | _ -> ());
  fun () -> List.rev !seen
