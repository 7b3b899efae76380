open Accent_kernel

let host_load host =
  float_of_int (Host.live_proc_count host)
  +. 0.2
     *. float_of_int (Accent_sim.Queue_server.queue_length (Host.cpu host))

let dispersion ~registry host proc =
  let space = Proc.space_exn proc in
  let tally = Hashtbl.create 4 in
  let add host_id bytes =
    let prev = Option.value ~default:0 (Hashtbl.find_opt tally host_id) in
    Hashtbl.replace tally host_id (prev + bytes)
  in
  add (Host.id host) (Accent_mem.Address_space.real_bytes space);
  List.iter
    (fun (segment_id, bytes) ->
      match Pager.backing_port (Host.pager host) ~segment_id with
      | None -> ()
      | Some port -> (
          match Accent_net.Net_registry.port_home registry port with
          | Some home -> add home bytes
          | None -> ()))
    (Accent_mem.Address_space.imag_segments space);
  Hashtbl.fold (fun host_id bytes acc -> (host_id, bytes) :: acc) tally []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let affinity ~registry host proc ~host_id =
  let shares = dispersion ~registry host proc in
  let total = List.fold_left (fun acc (_, b) -> acc + b) 0 shares in
  if total = 0 then 0.
  else
    float_of_int (Option.value ~default:0 (List.assoc_opt host_id shares))
    /. float_of_int total
