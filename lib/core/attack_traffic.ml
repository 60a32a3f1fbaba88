(* Red-team network-borne attack generator with blast-radius gates.

   A seeded, deterministic corpus of hostile traffic and hostile app
   behaviour, organised along the taxonomy of [Dsim.Redteam.cls]:

   - parser-bounds: crafted frames whose headers lie about the bytes
     actually on the wire (truncations, bad IHL/data-offset, lying
     total/UDP lengths, option overflows, fragments);
   - temporal: connection-close races — blind RST/SYN/FIN against a
     live connection, a stale capability dereference inside the
     supervised ff_* boundary, a closed fd left in an epoll set;
   - resource: floods and mbuf exhaust-and-spray driving pools into
     typed backpressure;
   - cross-tenant: probes at sibling cVMs through the Scenario 2
     shared stack (port scans, forged 5-tuples, RSS-steering abuse).

   Hostile frames enter at the [Nic.Link.inject] tamper point — they
   share the legitimate traffic's serialisation queue, FCS and
   propagation, so attacked runs stay deterministic. Hostile app
   behaviour enters through the scenario [app_hook], inside the
   supervisor's trap boundary with the Scenario 2 mutex held.

   Every launch must end in a typed verdict: in the CHERI scenarios a
   Flowtrace (stage, reason) drop, a typed backpressure symptom or a
   supervisor-contained [Cheri.Fault.Capability_fault]; in the
   MMU-only baseline the memory attacks are *expected* to leak, and the
   ledger records the silent corruption. The [Blast] sibling gate
   extends to attacked runs: sibling goodput outside quarantine must
   stay >= 0.9x the undisturbed twin in every phase. *)

module Rt = Dsim.Redteam
module Ft = Dsim.Flowtrace
module Time = Dsim.Time
module Engine = Dsim.Engine
module Sup = Capvm.Supervisor

let component = "redteam"
let k_redteam stage = Dsim.Profile.(key default) ~component ~cvm:"-" ~stage
let k_inject = k_redteam "inject"
let k_check = k_redteam "verdict_check"

type profile = {
  warmup : Time.t;
  duration : Time.t;
  sample_every : Time.t;
  exhaust_window : Time.t;  (** How long the mbuf spray holds the pool. *)
}

let quick =
  {
    warmup = Time.ms 6;
    duration = Time.ms 30;
    sample_every = Time.ms 1;
    exhaust_window = Time.us 300;
  }

let full =
  {
    warmup = Time.ms 20;
    duration = Time.ms 120;
    sample_every = Time.ms 2;
    exhaust_window = Time.us 400;
  }

type phase = {
  blast : Blast.phase;
  ap_ids : int list;  (** Ledger ids launched during this phase. *)
  ap_mutex_free : bool;  (** Shared mutex not left held by the victim. *)
  ap_pool_recovered : bool;  (** Mbufs available again after the spray. *)
  ap_rst_sent : int;  (** RSTs the stack answered probes with. *)
}

type report = {
  seed : int64;
  launched : int;
  caught : int;
  leaked : int;
  pending : int;
  counts : (Rt.cls * Rt.tally) list;
  phases : phase list;
  cheri_caught : int;  (** Caught launches in the CHERI phases. *)
  cheri_launched : int;
  pass : bool;
  text : string;
  json : Dsim.Json.t;
}

let window p =
  { Blast.warmup = p.warmup; duration = p.duration; sample_every = p.sample_every }

(* ------------------------------------------------------------------ *)
(* Frame forge                                                         *)
(* ------------------------------------------------------------------ *)

(* Raw header construction, deliberately independent of the stack's own
   builders: the attacker controls every byte, and the well-formed
   parts (checksums over lying fields) must be computed over exactly
   what is on the wire. Caller-supplied field values are masked to
   their width explicitly, so an out-of-range value is truncated on the
   wire rather than spilling into the next field. *)

type forge = {
  fg_dst_mac : string;  (** 6 raw bytes: the victim port's MAC. *)
  fg_src_mac : string;
  fg_dst_ip : Netstack.Ipv4_addr.t;
  fg_src_ip : Netstack.Ipv4_addr.t;
}

let attacker_mac = Nic.Mac_addr.make 0x02 0xbd 0x0d 0x00 0x00 0x01

(* Ethernet header (IPv4 ethertype) into a fresh frame of [len]. *)
let eth_frame fg len =
  let b = Bytes.make len '\000' in
  Bytes.blit_string fg.fg_dst_mac 0 b 0 6;
  Bytes.blit_string fg.fg_src_mac 0 b 6 6;
  Bytes.set_uint16_be b 12 0x0800;
  b

(* IPv4 header at offset 14. The checksum is computed last, over the
   header exactly as crafted — so a lying [total_len] still carries a
   valid checksum and must be rejected by the length check itself. *)
let ipv4_at b ?(src = Netstack.Ipv4_addr.any) ?(dst = Netstack.Ipv4_addr.any)
    ?(vihl = 0x45) ?(frag = 0x4000) ?total_len ~proto () =
  let total_len =
    match total_len with Some l -> l | None -> Bytes.length b - 14
  in
  Bytes.set_uint8 b 14 (vihl land 0xff);
  Bytes.set_uint16_be b 16 (total_len land 0xffff);
  Bytes.set_uint16_be b 18 0x2bad (* ident *);
  Bytes.set_uint16_be b 20 (frag land 0xffff);
  Bytes.set_uint8 b 22 64 (* ttl *);
  Bytes.set_uint8 b 23 (proto land 0xff);
  Netstack.Ipv4_addr.write b 26 src;
  Netstack.Ipv4_addr.write b 30 dst;
  Bytes.set_uint16_be b 24 0;
  Bytes.set_uint16_be b 24 (Netstack.Checksum.compute b ~off:14 ~len:20)

let f_fin = 0x01
let f_syn = 0x02
let f_rst = 0x04
let f_ack = 0x10

(* Full TCP frame: 14 eth + 20 ip + header of [data_words] words +
   [payload_len] zero bytes. The TCP checksum (over the pseudo-header)
   is valid unless the caller corrupts it afterwards. *)
let tcp_frame fg ~src_port ~dst_port ~seq ~ack_seq ~flags
    ?(data_words = 5) ?(payload_len = 0) () =
  let tcp_len = (data_words * 4) + payload_len in
  let b = eth_frame fg (34 + tcp_len) in
  ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6 ();
  Bytes.set_uint16_be b 34 (src_port land 0xffff);
  Bytes.set_uint16_be b 36 (dst_port land 0xffff);
  Bytes.set_int32_be b 38 (Int32.of_int seq);
  Bytes.set_int32_be b 42 (Int32.of_int ack_seq);
  Bytes.set_uint8 b 46 ((data_words lsl 4) land 0xff);
  Bytes.set_uint8 b 47 (flags land 0xff);
  Bytes.set_uint16_be b 48 4096 (* window *);
  let sum =
    Netstack.Ipv4.pseudo_header_sum ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip
      ~protocol:Netstack.Ipv4.Tcp ~len:tcp_len
  in
  Bytes.set_uint16_be b 50
    (Netstack.Checksum.compute ~init:sum b ~off:34 ~len:tcp_len);
  b

(* UDP frame; checksum 0 = "not computed" (legal for UDP/IPv4), so the
   length field alone is under test. *)
let udp_frame fg ~src_port ~dst_port ~udp_len ~payload_len =
  let b = eth_frame fg (42 + payload_len) in
  ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:17 ();
  Bytes.set_uint16_be b 34 (src_port land 0xffff);
  Bytes.set_uint16_be b 36 (dst_port land 0xffff);
  Bytes.set_uint16_be b 38 (udp_len land 0xffff);
  Bytes.set_uint16_be b 40 0;
  b

(* ------------------------------------------------------------------ *)
(* Wire corpus                                                         *)
(* ------------------------------------------------------------------ *)

(* One corpus entry: the frames to inject and the typed (stage, reason)
   artifacts the stack is allowed to convert them into — the attack
   resolves on whichever acceptable drop counter moves first, and an
   entry whose frames produce none of them stays Pending (gate
   failure). *)
type wire_attack = {
  wa_name : string;
  wa_cls : Rt.cls;
  wa_expect : (Ft.stage * Ft.reason) list;
  wa_frames : bytes list;
  wa_note : string;
}

let rand_seq rng = Dsim.Rng.int rng 0x40000000 + 0x1000000

(* The parser-bounds corpus: every entry is a frame whose headers lie
   about the bytes present. [sp] forges distinct source ports so
   entries never collide into one flow. *)
let parser_corpus rng fg =
  let sp () = 20000 + Dsim.Rng.int rng 8000 in
  let plain_tcp ?data_words ?payload_len () =
    tcp_frame fg ~src_port:(sp ()) ~dst_port:5201 ~seq:(rand_seq rng)
      ~ack_seq:0 ~flags:f_syn ?data_words ?payload_len ()
  in
  let runt =
    let b = Bytes.make 10 '\x5a' in
    Bytes.blit_string fg.fg_dst_mac 0 b 0 6;
    b
  in
  let arp_runt =
    let b = eth_frame fg 24 in
    Bytes.set_uint16_be b 12 0x0806;
    b
  in
  let ipv4_trunc =
    let b = eth_frame fg 24 in
    Bytes.set_uint8 b 14 0x45;
    b
  in
  let bad_ihl =
    let b = eth_frame fg 34 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~vihl:0x44 ~proto:6 ();
    b
  in
  let opt_overflow =
    (* IHL claims 60 bytes of header; only 20 are on the wire. *)
    let b = eth_frame fg 34 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~vihl:0x4f ~proto:6 ();
    b
  in
  let lying_total_len =
    let b = plain_tcp () in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6
      ~total_len:(Bytes.length b - 14 + 48)
      ();
    b
  in
  let ip_bad_csum =
    let b = plain_tcp () in
    Bytes.set_uint16_be b 24 0xdead;
    b
  in
  let fragment =
    let b = plain_tcp () in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6 ~frag:0x2000 ();
    b
  in
  let tcp_trunc =
    (* IP says 8 bytes of TCP; the TCP parser needs 20. *)
    let b = eth_frame fg 42 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6 ();
    Bytes.set_uint16_be b 34 (sp () land 0xffff);
    Bytes.set_uint16_be b 36 5201;
    b
  in
  let tcp_bad_data_off =
    (* data_off claims 60 bytes of TCP header in a 20-byte segment;
       checksum is valid over the bytes actually present. *)
    let b = eth_frame fg 54 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6 ();
    Bytes.set_uint16_be b 34 (sp () land 0xffff);
    Bytes.set_uint16_be b 36 5201;
    Bytes.set_int32_be b 38 (Int32.of_int (rand_seq rng));
    Bytes.set_uint8 b 46 (15 lsl 4);
    Bytes.set_uint8 b 47 f_syn;
    let sum =
      Netstack.Ipv4.pseudo_header_sum ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip
        ~protocol:Netstack.Ipv4.Tcp ~len:20
    in
    Bytes.set_uint16_be b 50
      (Netstack.Checksum.compute ~init:sum b ~off:34 ~len:20);
    b
  in
  let tcp_opt_overflow =
    (* 24-byte header: one option of kind MSS claiming 44 bytes. *)
    let b = tcp_frame fg ~src_port:(sp ()) ~dst_port:5201 ~seq:(rand_seq rng)
        ~ack_seq:0 ~flags:f_syn ~data_words:6 ()
    in
    Bytes.set_uint8 b 54 2;
    Bytes.set_uint8 b 55 44;
    let sum =
      Netstack.Ipv4.pseudo_header_sum ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip
        ~protocol:Netstack.Ipv4.Tcp ~len:24
    in
    Bytes.set_uint16_be b 50 0;
    Bytes.set_uint16_be b 50
      (Netstack.Checksum.compute ~init:sum b ~off:34 ~len:24);
    b
  in
  let tcp_bad_csum =
    let b = plain_tcp () in
    Bytes.set_uint16_be b 50 0xbeef;
    b
  in
  let udp_trunc =
    let b = eth_frame fg 38 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:17 ();
    b
  in
  let udp_lying_len =
    udp_frame fg ~src_port:(sp ()) ~dst_port:5353 ~udp_len:200 ~payload_len:4
  in
  let e name expect frame note =
    { wa_name = name; wa_cls = Rt.Parser_bounds; wa_expect = [ expect ];
      wa_frames = [ frame ]; wa_note = note }
  in
  [
    e "eth_runt" (Ft.Eth_rx, Ft.Parse_error) runt
      "10-byte frame; ethernet parse rejects before any field read";
    e "arp_runt" (Ft.Eth_rx, Ft.Bad_length) arp_runt
      "ARP body shorter than the fixed packet length";
    e "ipv4_truncated_header" (Ft.Ip_rx, Ft.Bad_length) ipv4_trunc
      "10 bytes of IPv4 header on the wire";
    e "ipv4_bad_ihl" (Ft.Ip_rx, Ft.Parse_error) bad_ihl
      "IHL below the minimum header length";
    e "ipv4_options_overflow" (Ft.Ip_rx, Ft.Bad_option) opt_overflow
      "IHL claims 40 bytes of options that are not present";
    e "ipv4_lying_total_len" (Ft.Ip_rx, Ft.Bad_length) lying_total_len
      "total_len 48 bytes past the frame; checksum valid";
    e "ipv4_bad_checksum" (Ft.Ip_rx, Ft.Bad_checksum) ip_bad_csum
      "header checksum corrupted";
    e "ipv4_fragment" (Ft.Ip_rx, Ft.Frag_unsupported) fragment
      "MF set; reassembly is a typed reject, not a misparse";
    e "tcp_truncated" (Ft.Tcp_in, Ft.Bad_length) tcp_trunc
      "IP delivers 8 bytes where TCP needs 20";
    e "tcp_bad_data_off" (Ft.Tcp_in, Ft.Parse_error) tcp_bad_data_off
      "data offset past the segment; checksum valid";
    e "tcp_option_overflow" (Ft.Tcp_in, Ft.Bad_option) tcp_opt_overflow
      "MSS option length 44 overruns the header";
    e "tcp_bad_checksum" (Ft.Tcp_in, Ft.Bad_checksum) tcp_bad_csum
      "segment checksum corrupted";
    e "udp_truncated" (Ft.Udp_in, Ft.Bad_length) udp_trunc
      "4 bytes of UDP header on the wire";
    e "udp_lying_length" (Ft.Udp_in, Ft.Bad_length) udp_lying_len
      "UDP length field 200 in a 12-byte datagram";
  ]

(* Blind in-window guesses against a live connection: the attacker
   knows the 4-tuple but not the sequence state. The hardened TCP input
   answers each with a challenge ACK and a typed drop — Out_of_window
   for a wild guess, Dup_segment when the wild sequence happens to land
   below rcv_nxt — never a teardown. *)
let blind_expect = [ (Ft.Tcp_in, Ft.Out_of_window); (Ft.Tcp_in, Ft.Dup_segment) ]

let blind_corpus rng fg ~src_port ~dst_port =
  let seg flags =
    tcp_frame fg ~src_port ~dst_port ~seq:(rand_seq rng)
      ~ack_seq:(rand_seq rng) ~flags ()
  in
  let e name flags note =
    { wa_name = name; wa_cls = Rt.Temporal; wa_expect = blind_expect;
      wa_frames = [ seg flags ]; wa_note = note }
  in
  [
    e "blind_rst" f_rst
      "forged RST, guessed sequence: challenge-ACK, connection survives";
    e "blind_syn" (f_syn : int)
      "SYN into an established connection: no reset, typed drop";
    e "blind_fin" (f_fin lor f_ack)
      "forged FIN mid-transfer: close race refused outside rcv_nxt";
  ]

(* SYN flood from one unroutable forged source: every SYN spawns an
   embryo connection whose SYN-ACK parks in the ARP pending queue for
   the forged next hop. The queue is bounded (16 per IP), so the flood
   overflows it and the overflow is squashed into typed Arp_unresolved
   drops — bounded state, no amplification. *)
let syn_flood rng fg ~server_port ~n =
  let forged_src = Netstack.Ipv4_addr.make 10 0 0 100 in
  let frames =
    List.init n (fun _ ->
        let b =
          tcp_frame fg
            ~src_port:(1024 + Dsim.Rng.int rng 60000)
            ~dst_port:server_port ~seq:(rand_seq rng) ~ack_seq:0
            ~flags:f_syn ()
        in
        ipv4_at b ~src:forged_src ~dst:fg.fg_dst_ip ~proto:6 ();
        let sum =
          Netstack.Ipv4.pseudo_header_sum ~src:forged_src ~dst:fg.fg_dst_ip
            ~protocol:Netstack.Ipv4.Tcp ~len:20
        in
        Bytes.set_uint16_be b 50 0;
        Bytes.set_uint16_be b 50
          (Netstack.Checksum.compute ~init:sum b ~off:34 ~len:20);
        b)
  in
  {
    wa_name = "syn_flood";
    wa_cls = Rt.Resource;
    wa_expect = [ (Ft.Ip_out, Ft.Arp_unresolved) ];
    wa_frames = frames;
    wa_note =
      "SYN/ACK amplification to a forged source overflows the bounded ARP \
       pending queue";
  }

let frag_flood rng fg ~n =
  let frames =
    List.init n (fun _ ->
        let b =
          tcp_frame fg ~src_port:(1024 + Dsim.Rng.int rng 60000)
            ~dst_port:5201 ~seq:(rand_seq rng) ~ack_seq:0 ~flags:f_ack
            ~payload_len:64 ()
        in
        ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6
          ~frag:(0x2000 lor Dsim.Rng.int rng 0x1fff)
          ();
        b)
  in
  {
    wa_name = "fragment_flood";
    wa_cls = Rt.Resource;
    wa_expect = [ (Ft.Ip_rx, Ft.Frag_unsupported) ];
    wa_frames = frames;
    wa_note = "pathological reassembly load is refused per-fragment";
  }

let port_scan rng fg ~n =
  let frames =
    List.init n (fun i ->
        tcp_frame fg
          ~src_port:(30000 + Dsim.Rng.int rng 20000)
          ~dst_port:(7000 + i) ~seq:(rand_seq rng) ~ack_seq:0 ~flags:f_syn ())
  in
  {
    wa_name = "port_scan";
    wa_cls = Rt.Cross_tenant;
    wa_expect = [ (Ft.Tcp_in, Ft.No_socket) ];
    wa_frames = frames;
    wa_note = "scan of closed sibling ports: typed No_socket + RST each";
  }

let forged_5tuple rng fg ~src_ports ~dst_ports =
  let frames =
    List.map2
      (fun sp dp ->
        tcp_frame fg ~src_port:sp ~dst_port:dp ~seq:(rand_seq rng)
          ~ack_seq:(rand_seq rng) ~flags:(f_ack : int) ~payload_len:16 ())
      src_ports dst_ports
  in
  {
    wa_name = "forged_5tuple";
    wa_cls = Rt.Cross_tenant;
    wa_expect = blind_expect;
    wa_frames = frames;
    wa_note =
      "data injection into a sibling's connection via its forged 5-tuple";
  }

(* RSS-steering abuse: the Toeplitz hash is a pure function of the
   frame bytes, so the attacker computes which forged source ports land
   on the victim's RX queue and aims the probes there. *)
let rss_steer rng fg ~victim_src_port ~victim_dst_port =
  let rss = Nic.Rss.create ~queues:4 () in
  let victim_frame =
    tcp_frame fg ~src_port:victim_src_port ~dst_port:victim_dst_port ~seq:0
      ~ack_seq:0 ~flags:f_ack ()
  in
  let vhash, vq =
    match Nic.Rss.probe rss victim_frame with
    | Some (h, q) -> (h, q)
    | None -> (0, 0)
  in
  let rec pick acc tries =
    if List.length acc >= 2 || tries > 512 then List.rev acc
    else
      let p = 40000 + Dsim.Rng.int rng 20000 in
      let f =
        tcp_frame fg ~src_port:p ~dst_port:7777 ~seq:(rand_seq rng)
          ~ack_seq:0 ~flags:f_syn ()
      in
      match Nic.Rss.probe rss f with
      | Some (_, q) when q = vq -> pick (f :: acc) (tries + 1)
      | _ -> pick acc (tries + 1)
  in
  {
    wa_name = "rss_steer_probe";
    wa_cls = Rt.Cross_tenant;
    wa_expect = [ (Ft.Tcp_in, Ft.No_socket) ];
    wa_frames = pick [] 0;
    wa_note =
      Printf.sprintf
        "probes steered onto the victim's RX queue %d (victim hash 0x%08x)"
        vq vhash;
  }

(* A 10-byte runt addressed to the victim port: consumes one armed RX
   descriptor, then is rejected at ethernet parse without creating any
   state — the cheapest possible descriptor-eater for the exhaust
   spray. *)
let spray_runt fg =
  let b = Bytes.make 10 '\x5a' in
  Bytes.blit_string fg.fg_dst_mac 0 b 0 6;
  b

(* ------------------------------------------------------------------ *)
(* Launch/verdict plumbing                                             *)
(* ------------------------------------------------------------------ *)

let drop_count key =
  match List.assoc_opt key (Ft.drop_table Ft.default) with
  | Some n -> n
  | None -> 0

(* Launch an attack now and track its id for the phase gate. *)
let launch_now rt engine ids cls ~name ~target =
  let at_ns = Time.to_float_ns (Engine.now engine) in
  let id = Rt.launch rt cls ~name ~at_ns ~target in
  ids := id :: !ids;
  id

(* Snapshot the acceptable (stage, reason) drop counters; the returned
   probe finds the first that has moved since, with its growth. *)
let drop_probe keys =
  let before = List.map (fun k -> (k, drop_count k)) keys in
  fun () ->
    List.find_map
      (fun (k, b) ->
        let n = drop_count k in
        if n > b then Some (k, n - b) else None)
      before

(* Re-run [check] every 100 us while it asks to continue and [until]
   has not passed. *)
let poll engine ~until check =
  let rec go () =
    if check () && Time.(Engine.now engine < until) then
      ignore (Engine.schedule_l engine ~delay:(Time.us 100) ~label:k_check go)
  in
  ignore (Engine.schedule_l engine ~delay:(Time.us 100) ~label:k_check go)

(* Register, inject and schedule the verdict check for one wire attack.
   Injected frames share the legitimate traffic's serialisation queue
   and the stack's poll cadence, so the typed drop lands a few hundred
   microseconds after injection: the check snapshots every acceptable
   (stage, reason) counter at inject time and re-polls until one moves,
   resolving with that key. A launch none of whose counters ever move
   stays Pending and fails the gate at [until]. *)
let launch_wire rt engine link ~target ~stack_name attack ~at ~until ids =
  ignore
    (Engine.schedule_at_l engine ~at ~label:k_inject (fun () ->
         if attack.wa_frames <> [] then begin
           let id =
             launch_now rt engine ids attack.wa_cls ~name:attack.wa_name ~target
           in
           let moved = drop_probe attack.wa_expect in
           List.iter
             (fun f ->
               ignore
                 (Nic.Link.inject link ~into:Nic.Link.A ~frame:(Bytes.copy f)
                    ()))
             attack.wa_frames;
           poll engine ~until (fun () ->
               match moved () with
               | Some ((st, re), n) ->
                 Rt.resolve_caught rt id ~stage:(Ft.stage_name st)
                   ~reason:(Ft.reason_name re);
                 Rt.set_provenance rt id
                   (Printf.sprintf
                      "%s; attributed at %s's %s/%s guard (+%d typed drops)"
                      attack.wa_note stack_name (Ft.stage_name st)
                      (Ft.reason_name re) n);
                 false
               | None -> true)
         end))

let exhaust_expect =
  [ (Ft.Eth_tx, Ft.Mbuf_exhausted); (Ft.Rx_dma, Ft.Rx_ring_full) ]

(* Mbuf exhaust-and-spray: drain the pool, keep it pinned dry for the
   window, and optionally spray a burst of hostile runt frames while it
   is dry. On a transmitting stack the next data/ACK alloc fails as
   typed Eth_tx/Mbuf_exhausted. On a receiving stack the pin alone is
   not enough — TX-completion mbufs are reaped and restocked into the
   ring within a single loop iteration — so the spray consumes the
   armed RX descriptors faster than that trickle re-arms them and the
   ring collapses into typed Rx_dma/Rx_ring_full backpressure. Either
   way the symptom is typed, and the pool must be usable again after
   the window. *)
let launch_exhaust rt engine pool ~target ~at ~window ~until ?spray ids
    recovered_flag =
  ignore
    (Engine.schedule_at_l engine ~at ~label:k_inject (fun () ->
         let id =
           launch_now rt engine ids Rt.Resource ~name:"mbuf_exhaust_spray" ~target
         in
         let moved = drop_probe exhaust_expect in
         let stolen = ref [] in
         let held = ref 0 in
         let rec steal () =
           match Dpdk.Mbuf.alloc pool with
           | Some m ->
             stolen := m :: !stolen;
             incr held;
             steal ()
           | None -> ()
         in
         steal ();
         let t_free = Time.add (Engine.now engine) window in
         (* Re-steal on a cadence faster than the stack's loop gap:
            mbufs released by the victim's own RX/TX processing must be
            gone again before the next iteration's descriptor restock
            can re-arm the ring from them. *)
         let rec pin () =
           if Time.(Engine.now engine < t_free) then begin
             steal ();
             ignore
               (Engine.schedule_l engine ~delay:(Time.us 1) ~label:k_inject
                  pin)
           end
         in
         ignore
           (Engine.schedule_l engine ~delay:(Time.us 1) ~label:k_inject pin);
         let sprayed =
           match spray with
           | Some (link, frame, n) ->
             for _ = 1 to n do
               ignore
                 (Nic.Link.inject link ~into:Nic.Link.A
                    ~frame:(Bytes.copy frame) ())
             done;
             n
           | None -> 0
         in
         ignore
           (Engine.schedule_at_l engine ~at:t_free ~label:k_inject (fun () ->
                List.iter Dpdk.Mbuf.free !stolen;
                stolen := []));
         let resolved = ref false in
         poll engine ~until (fun () ->
           (match moved () with
           | Some ((st, re), n) when not !resolved ->
             resolved := true;
             Rt.resolve_caught rt id ~stage:(Ft.stage_name st)
               ~reason:(Ft.reason_name re);
             Rt.set_provenance rt id
               (Printf.sprintf
                  "drained %d mbufs out of the rx pool%s; typed backpressure \
                   (%s/%s drops +%d)"
                  !held
                  (if sprayed > 0 then
                     Printf.sprintf " and sprayed %d runt frames" sprayed
                   else "")
                  (Ft.stage_name st) (Ft.reason_name re) n)
           | _ -> ());
           if
             (not !recovered_flag)
             && !stolen = []
             && Dpdk.Mbuf.available pool > 0
           then recovered_flag := true;
           (not !resolved) || not !recovered_flag)))

(* ------------------------------------------------------------------ *)
(* Phases 1 and 2: dual-port, MMU-only baseline and CHERI             *)
(* ------------------------------------------------------------------ *)

let forge_for built ~subnet =
  {
    fg_dst_mac =
      Nic.Mac_addr.to_bytes (Nic.Igb.mac (Topology.port built.Scenarios.dut 0));
    fg_src_mac = Nic.Mac_addr.to_bytes attacker_mac;
    fg_dst_ip = Netstack.Ipv4_addr.make 10 0 subnet 1;
    fg_src_ip = Netstack.Ipv4_addr.make 10 0 subnet 2;
  }

let secret = "DRONE-TELEMETRY-KEY-0xC4FE"

(* The MMU-only model of the same attacks: where the CHERI scenarios
   trap, a flat address space lets the access through. The ledger
   records what actually leaked/corrupted — the baseline's expected
   outcome, and the paper's motivation. *)
let mmu_attacks rt engine iv mem ~at ids =
  ignore
    (Engine.schedule_at_l engine ~at ~label:k_inject (fun () ->
         let at_ns = Time.to_float_ns (Engine.now engine) in
         let attacker =
           Capvm.Intravisor.create_cvm iv ~name:"redteam" ~size:(1 lsl 20)
         in
         let lid name cls =
           let id = Rt.launch rt cls ~name ~at_ns ~target:"process memory" in
           ids := id :: !ids;
           id
         in
         (* Lying-length overread: the bytes past the rx buffer are an
            adjacent component's secret. *)
         let buf = Capvm.Cvm.malloc attacker 256 in
         let neighbour = Capvm.Cvm.malloc attacker (String.length secret) in
         Cheri.Tagged_memory.store_bytes mem ~cap:neighbour
           ~addr:(Cheri.Capability.base neighbour)
           (Bytes.of_string secret);
         let id = lid "mmu_lying_len_overread" Rt.Parser_bounds in
         let leak = Bytes.create 16 in
         Cheri.Tagged_memory.unchecked_blit_out mem
           ~addr:(Cheri.Capability.base buf + 256)
           ~dst:leak ~dst_off:0 ~len:16;
         Rt.resolve_leaked rt id
           ~detail:
             (Printf.sprintf "read past rx buffer: %S" (Bytes.to_string leak));
         (* Use-after-close write through a stale pointer. *)
         let stale = Capvm.Cvm.malloc attacker 64 in
         let stale_base = Cheri.Capability.base stale in
         Capvm.Cvm.free attacker stale;
         let id = lid "mmu_use_after_close" Rt.Temporal in
         Cheri.Tagged_memory.unchecked_blit_in mem ~addr:stale_base
           ~src:(Bytes.make 16 'X') ~src_off:0 ~len:16;
         Rt.resolve_leaked rt id
           ~detail:
             "wrote 16 bytes through a freed buffer pointer; no trap, \
              successor allocation silently corrupted";
         (* Cross-tenant read of the network process's private region. *)
         match Capvm.Intravisor.cvms iv with
         | victim :: _ ->
           let id = lid "mmu_cross_tenant_read" Rt.Cross_tenant in
           let b = Bytes.create 32 in
           Cheri.Tagged_memory.unchecked_blit_out mem
             ~addr:(Cheri.Capability.base (Capvm.Cvm.region victim))
             ~dst:b ~dst_off:0 ~len:32;
           Rt.resolve_leaked rt id
             ~detail:
               (Printf.sprintf "read 32 bytes of %s's region with no grant"
                  (Capvm.Cvm.name victim))
         | [] -> ()))

(* Phases 1 and 2 attack port 0 of the dual-port topology; port 1 is
   the control. [cheri:false] is the MMU-only Baseline: the parser
   checks are software and present in both models, so a representative
   slice of the wire corpus is caught there too. The memory attacks are
   where the models diverge. *)
let phase_dual_port rt profile ~seed ~cheri =
  let w = window profile in
  let topo_seed = Int64.add seed (if cheri then 1L else 3L) in
  let build () =
    Scenarios.build_dual_port ~cheri ~seed:topo_seed
      ~direction:Scenarios.Dut_receives ()
  in
  let ref_samples = Blast.reference ~component w (build ()) in
  let built = build () in
  let engine = built.Scenarios.engine in
  let victim = (List.nth built.Scenarios.flows 0).Scenarios.label in
  let sibling = (List.nth built.Scenarios.flows 1).Scenarios.label in
  let fg = forge_for built ~subnet:0 in
  let link0 = List.hd built.Scenarios.links in
  let nif = List.hd built.Scenarios.dut_netifs in
  let rst_before = (Netstack.Stack.counters nif.Topology.stack).rst_sent in
  let ids = ref [] in
  let rng = Rt.rng rt in
  let t_end = Time.add profile.warmup profile.duration in
  let wire, first, spacing =
    if cheri then
      ( parser_corpus rng fg
        @ blind_corpus rng fg ~src_port:49152 ~dst_port:5201
        @ [
            syn_flood rng fg ~server_port:5201 ~n:20;
            frag_flood rng fg ~n:24;
            port_scan rng fg ~n:8;
          ],
        0.08,
        0.02 )
    else
      ( List.filter
          (fun a ->
            List.mem a.wa_name
              [ "eth_runt"; "ipv4_lying_total_len"; "ipv4_fragment";
                "tcp_bad_checksum" ])
          (parser_corpus rng fg),
        0.10,
        0.03 )
  in
  (* Wire injections finish (and their drops land) before the exhaust
     spray starts: a frame arriving during the ring-drain outage would
     be counted as Rx_ring_full instead of its own typed parse drop. *)
  List.iteri
    (fun i a ->
      launch_wire rt engine link0 ~target:victim ~stack_name:victim a
        ~at:(Blast.frac w (first +. (spacing *. float_of_int i)))
        ~until:t_end ids)
    wire;
  if not cheri then
    mmu_attacks rt engine
      (Topology.intravisor built.Scenarios.dut)
      (Topology.node_mem built.Scenarios.dut)
      ~at:(Blast.frac w 0.45) ids;
  let pool_recovered = ref false in
  launch_exhaust rt engine nif.Topology.pool ~target:victim
    ~at:(Blast.frac w (if cheri then 0.55 else 0.60))
    ~window:(Time.ms 3) ~until:t_end
    ~spray:(link0, spray_runt fg, 800) ids pool_recovered;
  let samples = Blast.drive ~component w built in
  let rst_after = (Netstack.Stack.counters nif.Topology.stack).rst_sent in
  {
    blast =
      Blast.phase
        ~title:
          (if cheri then
             "phase 2: Scenario 1 dual-port (CHERI) - full wire corpus \
              against port 0, port 1 is the control"
           else
             "phase 1: Baseline dual-port (MMU-only) - wire corpus caught, \
              memory corpus leaks silently")
        ~victim ~sibling [] ~ref_samples samples;
    ap_ids = List.rev !ids;
    ap_mutex_free = true;
    ap_pool_recovered = !pool_recovered;
    ap_rst_sent = rst_after - rst_before;
  }

(* ------------------------------------------------------------------ *)
(* Phase: Scenario 2 shared stack                                      *)
(* ------------------------------------------------------------------ *)

let phase_s2 rt profile ~seed ~blackbox_dir =
  let w = window profile in
  let topo_seed = Int64.add seed 2L in
  (* Dut_sends, like the chaos harness: the DUT apps are clients, so a
     supervised restart reconnects from a fresh ephemeral port instead
     of re-binding a listener whose closing connections still hold the
     port. *)
  let direction = Scenarios.Dut_sends in
  let build ?supervise ?app_hook () =
    Scenarios.build_scenario2 ~seed:topo_seed ~contended:true
      ~lock_policy:Capvm.Umtx.Fifo ?supervise ?app_hook ~direction ()
  in
  let ref_samples = Blast.reference ~component w (build ()) in
  (* The close-race attack: a hostile app step inside the supervised
     ff_* boundary, holding the shared mutex. The app frees its rx
     buffer (socket teardown racing the epoll wakeup), then dereferences
     past the stale capability — the CHERI bounds trap it inside the
     compartment; the supervisor must contain it and free the mutex. *)
  let race_armed = ref false in
  let race_id = ref (-1) in
  let race_provenance = ref "" in
  (* The hook runs before the builder returns, so the tagged memory it
     dereferences through is resolved via a ref filled in after build. *)
  let mem_ref = ref None in
  let app_hook cvm =
    if !race_armed && Capvm.Cvm.name cvm = "cVM3" then begin
      race_armed := false;
      let id =
        Rt.launch rt Rt.Temporal ~name:"close_race_stale_cap" ~at_ns:0.
          ~target:"cVM3"
      in
      race_id := id;
      let buf = Capvm.Cvm.malloc cvm 64 in
      let base = Cheri.Capability.base buf in
      Capvm.Cvm.free cvm buf;
      (match Cheri.Provenance.find buf with
      | Some node ->
        race_provenance :=
          Printf.sprintf
            "capability [0x%x,+0x%x) owner=%s label=%s revoked=%s stopped \
             the dereference"
            node.Cheri.Provenance.base node.Cheri.Provenance.length
            node.Cheri.Provenance.owner node.Cheri.Provenance.label
            (match node.Cheri.Provenance.revoked with
            | Some r -> r
            | None -> "pending-revocation")
      | None ->
        race_provenance :=
          Printf.sprintf
            "capability [0x%x,+0x40) bounds stopped the dereference" base);
      match !mem_ref with
      | Some mem ->
        ignore
          (Cheri.Tagged_memory.load_bytes mem ~cap:buf ~addr:(base + 64)
             ~len:16)
      | None -> ()
    end
  in
  let on_transition ~cvm ~old_state st =
    if cvm = "cVM3" && !race_id >= 0 then begin
      (match (old_state, st) with
      | Sup.Restarting, Sup.Running ->
        Rt.resolve_caught rt !race_id ~stage:"supervisor"
          ~reason:"capability_fault";
        Rt.set_provenance rt !race_id !race_provenance
      | _, Sup.Dead ->
        Rt.resolve_caught rt !race_id ~stage:"supervisor" ~reason:"quarantined";
        Rt.set_provenance rt !race_id !race_provenance
      | _ -> ());
      match blackbox_dir with
      | Some dir ->
        Rt.set_blackbox rt !race_id (Filename.concat dir "cVM3.blackbox.json")
      | None -> ()
    end
  in
  let supervise, get_sup =
    Blast.supervised ~component ?blackbox_dir ~on_transition (fun engine ->
        Sup.create engine ~seed:(Int64.add seed 102L) ~policy:Blast.restart_once
          ())
  in
  let built = build ~supervise ~app_hook () in
  let engine = built.Scenarios.engine in
  mem_ref := Some (Topology.node_mem built.Scenarios.dut);
  let sup = get_sup () in
  let victim = (List.nth built.Scenarios.flows 1).Scenarios.label in
  let sibling = (List.nth built.Scenarios.flows 0).Scenarios.label in
  let victim_cvm = List.nth built.Scenarios.app_cvms 1 in
  let fg = forge_for built ~subnet:0 in
  let link0 = List.hd built.Scenarios.links in
  let nif = List.hd built.Scenarios.dut_netifs in
  let rst_before = (Netstack.Stack.counters nif.Topology.stack).rst_sent in
  let ids = ref [] in
  let rng = Rt.rng rt in
  (* The DUT's clients connect in flow order through the shared stack's
     ephemeral allocator: cVM2 local 49152 -> peer :5201, cVM3 local
     49153 -> peer :5202. Attack frames arrive at the DUT, so forged
     segments claim the peer end of those 5-tuples. *)
  let wire =
    List.filter
      (fun a ->
        List.mem a.wa_name
          [ "eth_runt"; "ipv4_lying_total_len"; "ipv4_options_overflow";
            "ipv4_fragment"; "tcp_option_overflow"; "udp_lying_length" ])
      (parser_corpus rng fg)
    @ [
        List.hd (blind_corpus rng fg ~src_port:5202 ~dst_port:49153);
        frag_flood rng fg ~n:12;
        port_scan rng fg ~n:10;
        forged_5tuple rng fg ~src_ports:[ 5201; 5202 ]
          ~dst_ports:[ 49152; 49153 ];
        rss_steer rng fg ~victim_src_port:5202 ~victim_dst_port:49153;
      ]
  in
  let t_end = Time.add profile.warmup profile.duration in
  List.iteri
    (fun i a ->
      launch_wire rt engine link0 ~target:"cVM1 (shared stack)"
        ~stack_name:"cVM1" a
        ~at:(Blast.frac w (0.08 +. (0.03 *. float_of_int i)))
        ~until:t_end ids)
    wire;
  (* Arm the close race mid-transfer. *)
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.45) ~label:k_inject
       (fun () ->
         race_armed := true));
  (* Stale-fd epoll probe against the shared stack's own API: close an
     fd that is still in an epoll interest set, then verify no stale
     wakeup ever surfaces (the close-race the PR hardened). *)
  let ff = nif.Topology.ff in
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.55) ~label:k_inject
       (fun () ->
         let id =
           launch_now rt engine ids Rt.Temporal ~name:"epoll_stale_fd"
             ~target:"cVM1 (shared stack)"
         in
         match
           (Netstack.Ff_api.ff_socket ff, Netstack.Ff_api.ff_epoll_create ff)
         with
         | Ok fd, Ok ep ->
           ignore
             (Netstack.Ff_api.ff_epoll_ctl ff ~epfd:ep ~op:`Add ~fd
                Netstack.Epoll.epollin);
           ignore (Netstack.Ff_api.ff_close ff fd);
           (match Netstack.Ff_api.ff_epoll_wait ff ~epfd:ep ~max:8 with
           | Ok evs ->
             if List.exists (fun (f, _) -> f = fd) evs then
               Rt.resolve_leaked rt id
                 ~detail:"stale wakeup for a closed fd escaped epoll"
             else begin
               Rt.resolve_caught rt id ~stage:"sock"
                 ~reason:"fd_forgotten_on_close";
               Rt.set_provenance rt id
                 "socket close revoked the fd from every epoll interest \
                  set before reuse"
             end
           | Error _ ->
             Rt.resolve_leaked rt id ~detail:"epoll_wait failed");
           ignore (Netstack.Ff_api.ff_close ff ep)
         | _ ->
           Rt.resolve_leaked rt id ~detail:"could not allocate probe fds"));
  let pool_recovered = ref false in
  launch_exhaust rt engine nif.Topology.pool ~target:"cVM1 (shared stack)"
    ~at:(Blast.frac w 0.70) ~window:profile.exhaust_window ~until:t_end ids
    pool_recovered;
  let samples = Blast.drive ~component w built in
  (* The close race launches from inside the hook with a placeholder
     timestamp; every id must still be tracked for the phase gate. *)
  if !race_id >= 0 then ids := !race_id :: !ids;
  let rst_after = (Netstack.Stack.counters nif.Topology.stack).rst_sent in
  let mutex_free =
    match built.Scenarios.mutex with
    | Some m -> Capvm.Umtx.holder m <> Some "cVM3"
    | None -> true
  in
  {
    blast =
      Blast.phase
        ~title:
          "phase 3: Scenario 2 shared stack (CHERI) - cross-tenant probes, \
           close races and floods against cVM1"
        ~victim ~sibling
        (Sup.quarantine_windows sup ~cvm:victim_cvm)
        ~ref_samples samples;
    ap_ids = List.sort_uniq compare !ids;
    ap_mutex_free = mutex_free;
    ap_pool_recovered = !pool_recovered;
    ap_rst_sent = rst_after - rst_before;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let outcome_line rt b id =
  match Rt.find rt id with
  | None -> ()
  | Some l ->
    let verdict, detail =
      match l.Rt.outcome with
      | Rt.Caught { stage; reason } ->
        ("caught ", Printf.sprintf "-> %s/%s" stage reason)
      | Rt.Leaked { detail } -> ("LEAKED ", Printf.sprintf "-> %s" detail)
      | Rt.Pending -> ("PENDING", "-> no typed verdict recorded")
    in
    Printf.bprintf b "  [%s] %-13s %-24s %s\n" verdict
      (Rt.cls_name l.Rt.cls) l.Rt.name detail;
    (match l.Rt.provenance with
    | Some p -> Printf.bprintf b "            provenance: %s\n" p
    | None -> ());
    match l.Rt.blackbox with
    | Some p -> Printf.bprintf b "            blackbox: %s\n" p
    | None -> ()

let phase_section rt b p =
  Blast.section b p.blast
    ~before_drops:(fun b -> List.iter (outcome_line rt b) p.ap_ids)
    ~after_drops:(fun b ->
      if p.ap_rst_sent > 0 then
        Printf.bprintf b "  RSTs answered to probes: %d\n" p.ap_rst_sent;
      Printf.bprintf b "  mbuf pool recovered after spray: %s\n"
        (if p.ap_pool_recovered then "yes" else "NO");
      if not p.ap_mutex_free then
        Printf.bprintf b "  shared mutex: LEFT HELD BY VICTIM\n")

(* How many of [ids] ended with an outcome satisfying [pred]. *)
let count_outcomes rt ids pred =
  List.length
    (List.filter
       (fun id ->
         match Rt.find rt id with Some l -> pred l.Rt.outcome | None -> false)
       ids)

let run ?(profile = quick) ?blackbox_dir ~seed () =
  let rt = Rt.create ~seed in
  (* Provenance cross-references need the audit DAG recording in both
     the twin and the attacked run (identical settings keep the pair
     comparable). *)
  let p1, p2, p3 =
    Ft.with_recording Ft.default @@ fun () ->
    Dsim.Audit.(with_recording default) @@ fun () ->
    let p1 = phase_dual_port rt profile ~seed ~cheri:false in
    let p2 = phase_dual_port rt profile ~seed ~cheri:true in
    (p1, p2, phase_s2 rt profile ~seed ~blackbox_dir)
  in
  let phases = [ p1; p2; p3 ] in
  let counts = Rt.counts rt in
  let launched = Rt.launched_count rt in
  let caught_n = Rt.caught_count rt in
  let leaked = Rt.leaked_count rt in
  let pending = Rt.pending_count rt in
  let cheri_ids = p2.ap_ids @ p3.ap_ids in
  let cheri_launched = List.length cheri_ids in
  let cheri_caught =
    count_outcomes rt cheri_ids (function Rt.Caught _ -> true | _ -> false)
  in
  let baseline_leaks =
    count_outcomes rt p1.ap_ids (function Rt.Leaked _ -> true | _ -> false)
  in
  let pass =
    pending = 0 && launched > 0
    && cheri_caught = cheri_launched
    && baseline_leaks >= 1
    && List.for_all (fun p -> Blast.sibling_ok p.blast) phases
    && List.for_all (fun p -> p.ap_mutex_free && p.ap_pool_recovered) phases
  in
  let b = Buffer.create 8192 in
  Printf.bprintf b "=== red-team attack report (seed %Ld) ===\n" seed;
  Printf.bprintf b "-- attack corpus ledger --\n";
  Printf.bprintf b "  %-15s %9s %7s %7s %8s\n" "class" "launched" "caught"
    "leaked" "pending";
  List.iter
    (fun (c, t) ->
      Printf.bprintf b "  %-15s %9d %7d %7d %8d\n" (Rt.cls_name c)
        t.Rt.t_launched t.Rt.t_caught t.Rt.t_leaked t.Rt.t_pending)
    counts;
  List.iter (phase_section rt b) phases;
  Printf.bprintf b "caught-and-attributed (CHERI scenarios): %.1f%% (%d/%d)\n"
    (if cheri_launched = 0 then 0.
     else 100. *. float_of_int cheri_caught /. float_of_int cheri_launched)
    cheri_caught cheri_launched;
  Printf.bprintf b "baseline silent corruption/leaks recorded: %d\n"
    baseline_leaks;
  Printf.bprintf b "unresolved attacks: %d\n" pending;
  Printf.bprintf b "verdict: %s\n" (if pass then "PASS" else "FAIL");
  let phase_json p =
    Blast.phase_json p.blast
      ~extra:
        [
          ("mutex_free", Dsim.Json.Bool p.ap_mutex_free);
          ("pool_recovered", Dsim.Json.Bool p.ap_pool_recovered);
          ("rst_sent", Dsim.Json.Int p.ap_rst_sent);
        ]
  in
  let json =
    Dsim.Json.Obj
      [
        ("schema", Dsim.Json.String "netrepro-attack-net/1");
        ("ledger", Rt.to_json rt);
        ("phases", Dsim.Json.List (List.map phase_json phases));
        ("cheri_caught", Dsim.Json.Int cheri_caught);
        ("cheri_launched", Dsim.Json.Int cheri_launched);
        ("baseline_leaks", Dsim.Json.Int baseline_leaks);
        ("pass", Dsim.Json.Bool pass);
      ]
  in
  {
    seed;
    launched;
    caught = caught_n;
    leaked;
    pending;
    counts;
    phases;
    cheri_caught;
    cheri_launched;
    pass;
    text = Buffer.contents b;
    json;
  }
