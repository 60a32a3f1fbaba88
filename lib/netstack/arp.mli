(** ARP for IPv4 over Ethernet (RFC 826). *)

type op = Request | Reply

type packet = {
  op : op;
  sender_mac : Nic.Mac_addr.t;
  sender_ip : Ipv4_addr.t;
  target_mac : Nic.Mac_addr.t;
  target_ip : Ipv4_addr.t;
}

val packet_len : int
(** 28 bytes. *)

val build : packet -> bytes
val parse :
  bytes -> off:int -> len:int -> (packet, Dsim.Flowtrace.reason) result
(** Parse the [len] bytes at [off]: fewer than {!packet_len} is
    [Bad_length]; a non-Ethernet/IPv4 mapping or an unknown op is
    [Parse_error]. *)

val request : sender_mac:Nic.Mac_addr.t -> sender_ip:Ipv4_addr.t -> target_ip:Ipv4_addr.t -> packet
val reply_to : packet -> mac:Nic.Mac_addr.t -> packet
(** Build the reply to a request aimed at us ([mac] is our address). *)

val pp : Format.formatter -> packet -> unit
