(* The generic copy-on-reference facility, outside migration.

   §2.2: "Any process may create an imaginary segment based on one of its
   ports, map all or part of it into its address space and pass this
   memory to another process via an IPC message" — and §6 suggests remote
   file access as an application.  Here a file server on host 1 backs a
   4 MB "file" with an imaginary segment; a client on host 0 maps the
   whole file but reads only a handful of records, so only those pages
   ever cross the network.

   Run with: dune exec examples/lazy_file_server.exe *)

open Accent_sim
open Accent_mem
open Accent_net
open Accent_kernel
open Accent_core

let file_bytes = 4 * 1024 * 1024
let record_bytes = 2048 (* 4 pages *)

let () =
  let world = World.create ~n_hosts:2 () in
  let client_host = World.host world 0 and server_host = World.host world 1 in

  (* The server: a backing process whose segment holds the file image,
     answering with the same latency as a MigrationManager's backer. *)
  let server =
    Host.new_backer server_host
      ~service_ms:Migration_manager.backing_service_ms
  in
  let segment_id = Backing_server.new_segment server in
  let file_image =
    Bytes.init file_bytes (fun i -> Char.chr (((i / 512) + (i mod 512)) mod 256))
  in
  Backing_server.put_bytes server ~segment_id ~offset:0 file_image;

  (* The client maps the whole file copy-on-reference at 16 MB, and its
     pager learns where faults on the segment go. *)
  let space = Host.new_space client_host in
  let file_base = 16 * 1024 * 1024 in
  Address_space.map_imaginary space
    (Vaddr.of_len file_base file_bytes)
    ~segment_id ~offset:0;
  Pager.register_segment (Host.pager client_host)
    ~space_id:(Address_space.id space) ~segment_id
    ~backing_port:(Backing_server.port server) ~offset:0 ~len:file_bytes
    ~vaddr:file_base;
  Format.printf "client mapped a %s file; nothing transferred yet (%s on the wire)@."
    (Accent_util.Bytesize.to_string file_bytes)
    (Accent_util.Bytesize.to_string
       (Link.bytes_sent world.World.link));

  (* Read five records scattered through the file: a trace touching 4
     pages per record. *)
  let records = [ 3; 512; 1024; 1700; 2000 ] in
  let steps =
    List.concat_map
      (fun record ->
        let addr = file_base + (record * record_bytes) in
        List.init (record_bytes / Page.size) (fun i ->
            {
              Trace.page = Page.index_of_addr addr + i;
              think_ms = 5.;
              write = false;
            }))
      records
  in
  let client =
    Host.spawn client_host ~name:"client" ~trace:(Trace.of_steps steps)
      ~space ()
  in
  let finished = ref false in
  client.Proc.on_complete <- Some (fun _ -> finished := true);
  Proc_runner.start client_host client;
  ignore (World.run world);
  assert !finished;

  (* Verify the fetched records byte-for-byte against the server's image. *)
  List.iter
    (fun record ->
      let addr = file_base + (record * record_bytes) in
      for i = 0 to (record_bytes / Page.size) - 1 do
        let idx = Page.index_of_addr addr + i in
        match Address_space.page_data space idx with
        | Some page ->
            let offset = (record * record_bytes) + (i * Page.size) in
            assert (Bytes.equal page (Bytes.sub file_image offset Page.size))
        | None -> failwith "record page missing"
      done)
    records;

  let moved = Link.bytes_sent world.World.link in
  Format.printf
    "read %d records (%s of data) in %a; %s crossed the wire — %.1f%% of \
     the file, all of it verified byte-exact.@." (List.length records)
    (Accent_util.Bytesize.to_string (List.length records * record_bytes))
    Time.pp (World.now world)
    (Accent_util.Bytesize.to_string moved)
    (100. *. float_of_int moved /. float_of_int file_bytes);
  Format.printf "server answered %d faults, %d pages.@."
    (Backing_server.faults_served server)
    (Backing_server.pages_served server)
