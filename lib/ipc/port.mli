(** Ports: Accent's protected, location-transparent message queues.

    A port is named by an id; the kernel on each host knows which local
    server (if any) holds Receive rights, and the NetMsgServer knows which
    remote host to forward to otherwise.  Because processes name ports and
    never hosts, migrating a process — which passes all its port rights to
    the new incarnation — does not disturb anybody who can name those
    ports (paper §3.1). *)

type id = private int

val fresh : Accent_sim.Ids.t -> id
(** Allocate a new port id from the world's id source. *)

val of_int : int -> id option
(** A port id read back from outside the simulation (a checkpoint file):
    [Some] iff the int is positive, as every id {!fresh} draws is. *)

val equal : id -> id -> bool
val pp : Format.formatter -> id -> unit

type right = Receive | Send | Ownership
(** The three Accent port rights.  Receive and Ownership are held by exactly
    one task at a time; Send rights proliferate. *)

val right_to_string : right -> string

module Set : Set.S with type elt = id
module Table : Hashtbl.S with type key = id
