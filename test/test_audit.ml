(* World.audit: each planted violation of a layer's let-go promise makes
   it raise, naming the check; all of them at once give one line each. *)

open Accent_mem
open Accent_net
open Accent_kernel
open Accent_core

let store world i = Netmsgserver.content_store (Host.nms (World.host world i))

(* (test name, what the audit must name, the plant) *)
let plants =
  [
    ( "frame behind a space's back",
      "host 1 frames: 1 in use, 0 resident in its spaces",
      fun world ->
        ignore
          (Phys_mem.allocate
             (Host.mem (World.host world 1))
             ~space_id:(-1) ~page:0 Page.zero_value) );
    ( "flipped literal byte",
      "host 0 store verify",
      fun world ->
        let store = store world 0 in
        let value = Page.of_bytes (Bytes.make Page.size 'a') in
        Content_store.insert store value;
        match Content_store.peek store (Page.digest value) with
        | Some (Page.Literal { data; _ }) -> Bytes.set data 0 'b'
        | _ -> Alcotest.fail "the literal was not indexed" );
    ( "extent no backer owns",
      "host 1 store segments: 1 held, 0 owned by live backers",
      fun world ->
        Content_store.put_extent (store world 1) ~segment_id:(-1) ~offset:0
          (Page_run.singleton Page.zero_value) );
    ( "route for a migration never run",
      "bus route: proc 4242 saw no outcome, give-up or pager kill",
      fun world -> Mig_event.register world.World.bus ~proc_id:4242 ignore );
  ]

let planted (_, check, plant) () =
  let world = World.create ~n_hosts:2 () in
  plant world;
  Test_helpers.audit_names world check

let test_every_violation_listed () =
  let world = World.create ~n_hosts:2 () in
  List.iter (fun (_, _, plant) -> plant world) plants;
  match World.audit world with
  | () -> Alcotest.fail "the audit passed"
  | exception Failure report ->
      Alcotest.(check (list string))
        "one line per violation, hosts in order"
        [
          "World.audit:";
          "host 0 store verify: a value does not hash to its digest";
          "host 1 frames: 1 in use, 0 resident in its spaces";
          "host 1 store segments: 1 held, 0 owned by live backers";
          "bus route: proc 4242 saw no outcome, give-up or pager kill";
        ]
        (String.split_on_char '\n' report)

(* A give-up impairs the route it passes through: the audit accepts it. *)
let test_give_up_impairs_route () =
  let world = World.create ~n_hosts:2 () in
  Mig_event.register world.World.bus ~proc_id:4242 ignore;
  Mig_event.publish world.World.bus
    {
      Mig_event.at = World.now world;
      proc_id = 4242;
      kind = Mig_event.Transport_give_up;
    };
  World.audit world

let suite =
  ( "world_audit",
    List.map
      (fun ((name, _, _) as p) -> Alcotest.test_case name `Quick (planted p))
      plants
    @ [
        Alcotest.test_case "every violation listed" `Quick
          test_every_violation_listed;
        Alcotest.test_case "give-up impairs a route" `Quick
          test_give_up_impairs_route;
      ] )
