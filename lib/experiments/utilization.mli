(** Per-host resource utilisation over a trial — where the machines'
    time actually went (§4.4.3's "distribution of costs" from the hosts'
    point of view rather than the wire's). *)

val table : duration_s:float -> Accent_core.World.t -> Result_table.t
(** One row per host, keyed by its name: the busy seconds of the
    NetMsgServer CPU ([nms_busy_s]), the kernel IPC CPU
    ([kernel_busy_s]), user computation ([exec_busy_s]) and the disk
    ([disk_busy_s]), each printed beside its share of [duration_s] when
    that is positive, and the messages the NetMsgServer handled
    ([nms_messages]). *)
