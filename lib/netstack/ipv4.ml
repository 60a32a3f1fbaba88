type protocol = Icmp | Tcp | Udp | Unknown_proto of int

type header = {
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  protocol : protocol;
  ttl : int;
  ident : int;
  total_len : int;
}

let header_len = 20

let protocol_to_int = function
  | Icmp -> 1
  | Tcp -> 6
  | Udp -> 17
  | Unknown_proto v -> v

let protocol_of_int = function
  | 1 -> Icmp
  | 6 -> Tcp
  | 17 -> Udp
  | v -> Unknown_proto v

let build_into h b ~off =
  Bytes.set_uint8 b off 0x45 (* version 4, ihl 5 *);
  Bytes.set_uint8 b (off + 1) 0 (* dscp/ecn *);
  Bytes.set_uint16_be b (off + 2) h.total_len;
  Bytes.set_uint16_be b (off + 4) h.ident;
  Bytes.set_uint16_be b (off + 6) 0x4000 (* DF, fragment offset 0 *);
  Bytes.set_uint8 b (off + 8) (h.ttl land 0xff);
  Bytes.set_uint8 b (off + 9) (protocol_to_int h.protocol land 0xff);
  Bytes.set_uint16_be b (off + 10) 0 (* checksum placeholder *);
  Ipv4_addr.write b (off + 12) h.src;
  Ipv4_addr.write b (off + 16) h.dst;
  Bytes.set_uint16_be b (off + 10) (Checksum.compute b ~off ~len:header_len)

let build h ~payload =
  let b = Bytes.create (header_len + Bytes.length payload) in
  build_into h b ~off:0;
  Bytes.blit payload 0 b header_len (Bytes.length payload);
  b

let parse b ~off ~len =
  let open Dsim.Flowtrace in
  if len < header_len then Error Bad_length
  else begin
    let vihl = Bytes.get_uint8 b off in
    if vihl lsr 4 <> 4 then Error Parse_error
    else begin
      let ihl = (vihl land 0xf) * 4 in
      if ihl < header_len then Error Parse_error
      else if len < ihl then Error Bad_option
      else if not (Checksum.valid b ~off ~len:ihl) then Error Bad_checksum
      else begin
        let total_len = Bytes.get_uint16_be b (off + 2) in
        (* More Fragments set or a non-zero fragment offset: this stack
           does no reassembly, and treating a fragment as a whole
           datagram would hand the upper parser payload bytes that are
           not where its header claims. Typed reject instead. *)
        let frag_field = Bytes.get_uint16_be b (off + 6) in
        if frag_field land 0x3fff <> 0 then Error Frag_unsupported
        else if total_len < ihl || total_len > len then Error Bad_length
        else
          Ok
            ( {
                src = Ipv4_addr.read b (off + 12);
                dst = Ipv4_addr.read b (off + 16);
                protocol = protocol_of_int (Bytes.get_uint8 b (off + 9));
                ttl = Bytes.get_uint8 b (off + 8);
                ident = Bytes.get_uint16_be b (off + 4);
                total_len;
              },
              off + ihl )
      end
    end
  end

(* Allocation-free: the 12-byte pseudo-header's one's-complement sum is
   just the 16-bit halves of both addresses plus protocol and length,
   so build the running sum arithmetically instead of staging bytes. *)
let pseudo_header_sum ~src ~dst ~protocol ~len =
  let halves ip =
    let v = Int32.to_int (Ipv4_addr.to_int32 ip) land 0xffffffff in
    (v lsr 16) + (v land 0xffff)
  in
  halves src + halves dst + protocol_to_int protocol + len

let pp_header fmt h =
  let proto =
    match h.protocol with
    | Icmp -> "icmp"
    | Tcp -> "tcp"
    | Udp -> "udp"
    | Unknown_proto v -> string_of_int v
  in
  Format.fprintf fmt "%a > %a %s len=%d ttl=%d" Ipv4_addr.pp h.src Ipv4_addr.pp
    h.dst proto h.total_len h.ttl
