(* The benchmark's workloads and one repetition of each.

   A repetition builds the topology (timed as set-up), runs it to a fixed
   virtual-time horizon, and returns host-side costs of the measured
   window, the virtual-time outputs the golden check compares, and, when
   traced, the per-layer numbers. Everything is driven through the
   simulator's public entry points: the [Core.Scenarios] builders,
   [Core.Bandwidth.run], [Core.Fleet.run], [Dsim.Engine] and the public
   stats of the layers. Tracing only switches on the program's existing
   [Dsim.Profile] labels, [Dsim.Metrics] counters and [Dsim.Watermark]
   cells; it adds no span inside the simulator. *)

type horizon = {
  warmup : Dsim.Time.t;  (** Virtual time run before the measured window. *)
  window : Dsim.Time.t;  (** Measured virtual time. *)
}

type t = {
  name : string;
  horizon : horizon;  (** The benchmark's run length. *)
  run : trace:bool -> horizon:horizon -> seed:int -> rep;
}

and rep = {
  setup_s : float;  (** Host seconds to build the topology. *)
  setup_cpu_s : float;  (** The same, in CPU seconds of the process. *)
  wall_s : float;  (** Host seconds spent simulating the window. *)
  cpu_s : float;  (** The same, in CPU seconds of the process. *)
  sim_s : float;  (** Virtual seconds in the window. *)
  minor_words : float;
  major_words : float;
  major_collections : int;
  packets : int;  (** The workload's packet base over the window. *)
  goodput_mbit : float;  (** Simulated goodput per flow. *)
  outputs : (string * string) list;
      (** Virtual-time outputs, deterministic per seed: the golden check. *)
  gate_failures : string list;  (** Gates of the program that failed. *)
  layers : layer list;  (** Per-layer numbers; empty unless traced. *)
}

and layer = {
  l_name : string;
  l_unit : string;
  l_value : float;
  l_count : bool;
      (** A count is a pure function of the seed; the rest are timings. *)
}

let now = Unix.gettimeofday
let exact x = Printf.sprintf "%.17g" x

(* ------------------------------------------------------------------ *)
(* Host-side accounting                                                 *)
(* ------------------------------------------------------------------ *)

type gc_mark = { minor : float; major : float; collections : int }

let gc_mark () =
  let minor, _promoted, major = Gc.counters () in
  { minor; major; collections = (Gc.quick_stat ()).Gc.major_collections }

let gc_delta a b =
  (b.minor -. a.minor, b.major -. a.major, b.collections - a.collections)

(* Every repetition starts from a collected heap, so a repetition does not
   pay for its predecessor's garbage. *)
let settle () = Gc.full_major ()

(* Interval of the metric snapshots a traced bulk window takes, from
   which the peak of live sockets is read. *)
let sample_interval = Dsim.Time.ms 1

let set_tracing on =
  Dsim.Profile.set_enabled Dsim.Profile.default on;
  Dsim.Metrics.set_enabled Dsim.Metrics.default on;
  Dsim.Watermark.set_enabled Dsim.Watermark.default on;
  Dsim.Sampler.set_enabled Dsim.Sampler.default on

let start_tracing () =
  Dsim.Profile.reset Dsim.Profile.default;
  Dsim.Metrics.reset Dsim.Metrics.default;
  Dsim.Watermark.reset Dsim.Watermark.default;
  Dsim.Sampler.clear Dsim.Sampler.default;
  Dsim.Sampler.set_interval Dsim.Sampler.default sample_interval;
  set_tracing true

let traced trace f =
  if trace then start_tracing ();
  Fun.protect ~finally:(fun () -> if trace then set_tracing false) f

(* ------------------------------------------------------------------ *)
(* Per-layer numbers from the program's own instruments                *)
(* ------------------------------------------------------------------ *)

(* Sums over every series of one metric name: layer counts cover every
   simulated node, DUT and peer alike, because the simulator pays for
   both. *)
let counter name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with
      | Dsim.Metrics.Counter_value c when n = name -> acc + c
      | _ -> acc)
    0
    (Dsim.Metrics.snapshot Dsim.Metrics.default)

let histogram name =
  List.fold_left
    (fun (cnt, sum) (n, _, v) ->
      match v with
      | Dsim.Metrics.Histogram_value h when n = name -> (cnt + h.n, sum +. h.sum)
      | _ -> (cnt, sum))
    (0, 0.)
    (Dsim.Metrics.snapshot Dsim.Metrics.default)

let watermark_json section =
  match
    Dsim.Json.member section (Dsim.Watermark.to_json Dsim.Watermark.default)
  with
  | Some (Dsim.Json.List l) -> l
  | _ -> []

let int_field k j =
  match Dsim.Json.member k j with Some (Dsim.Json.Int i) -> i | _ -> 0

let str_field k j =
  match Dsim.Json.member k j with Some (Dsim.Json.String s) -> s | _ -> ""

(* Highest watermark of any cell named [name]. *)
let watermark_high name =
  List.fold_left
    (fun acc c -> if str_field "name" c = name then max acc (int_field "high" c) else acc)
    0 (watermark_json "watermarks")

(* Stalls of [kind] against every cell named [name]. *)
let stalls name kind =
  List.fold_left
    (fun acc s ->
      if str_field "name" s = name && str_field "kind" s = kind then
        acc + int_field "count" s
      else acc)
    0 (watermark_json "stalls")

(* Self time and entries of the profiler keys a predicate selects. *)
let profiled sel =
  List.fold_left
    (fun (ns, n) (r : Dsim.Profile.row) ->
      if sel r.Dsim.Profile.r_component r.Dsim.Profile.r_stage then
        (ns +. r.Dsim.Profile.r_self_ns, n + r.Dsim.Profile.r_events)
      else (ns, n))
    (0., 0)
    (Dsim.Profile.rows Dsim.Profile.default)

let is_shard c = String.length c > 5 && String.sub c 0 5 = "shard"

(* The per-layer table of one traced window. [run_wall_s] is the host
   time of the engine's run over the window, [events] the engine events
   it fired, [flows] the flows it carried, [live_peak] the DUT stack's
   peak live sockets. *)
let layers ~packets ~events ~run_wall_s ~flows ~live_peak ~major_words ~major_collections =
  let pkts = float_of_int (max packets 1) in
  let per_pkt x = x /. pkts in
  let fi = float_of_int in
  let handlers_ns, _ = profiled (fun c _ -> not (is_shard c)) in
  let run_wall_ns = run_wall_s *. 1e9 in
  let loop_ns, _ = profiled (fun c s -> c = "netstack" && String.starts_with ~prefix:"loop" s) in
  (* One "loop" (Scenario 1, peers) or "loop_gap" (the mutex-guarded
     Scenario 2 loop) event starts each stack poll iteration. *)
  let _, loop_dispatches =
    profiled (fun c s -> c = "netstack" && (s = "loop" || s = "loop_gap"))
  in
  let self stage = fst (profiled (fun c s -> c = "nic" && s = stage)) in
  let umtx_wake_ns, _ = profiled (fun c s -> c = "intravisor" && s = "umtx_wake") in
  let app_ns, _ =
    profiled (fun c s -> (c = "app" || c = "fleet") && (s = "step" || s = "step_hold"))
  in
  let acq = counter "umtx_acquisitions_total" in
  let _, wait_ns = histogram "umtx_wait_ns" in
  let bursts = counter "dpdk_bursts_total" in
  let l ?(count = true) l_name l_unit l_value = { l_name; l_unit; l_value; l_count = count } in
  let t = l ~count:false in
  [
    l "dsim.engine.events_per_pkt" "events/pkt" (per_pkt (fi events));
    t "dsim.engine.events_per_wall_s" "1/s" (fi events /. run_wall_s);
    t "dsim.engine.dispatch_ns_per_event" "ns"
      ((run_wall_ns -. handlers_ns) /. fi (max events 1));
    l "dsim.engine.heap_peak" "count" (fi (watermark_high "event_heap"));
    t "dsim.profile.unattributed_pct" "%"
      (100. -. Dsim.Profile.attributed_pct Dsim.Profile.default);
    t "netstack.loop.self_ns_per_pkt" "ns/pkt" (per_pkt loop_ns);
    l "netstack.loop.dispatches_per_pkt" "count/pkt" (per_pkt (fi loop_dispatches));
    l "netstack.loop.rx_frames_per_dispatch" "frames"
      (fi (counter "netstack_rx_frames_total") /. fi (max loop_dispatches 1));
    l "netstack.sockets.live_peak" "count" (fi live_peak);
    l "netstack.epoll.wakeups_per_flow" "count"
      (fi (counter "epoll_wakeups_total") /. fi (max flows 1));
    l "netstack.tcp.retransmits" "count" (fi (counter "tcp_retransmits_total"));
    l "netstack.tcp.delayed_acks" "count" (fi (counter "tcp_delayed_acks_total"));
    l "netstack.rx_dropped" "count" (fi (counter "netstack_rx_dropped_total"));
    l "dpdk.pkts_per_burst" "pkts"
      (fi (counter "dpdk_packets_total") /. fi (max bursts 1));
    l "dpdk.mbuf.in_use_peak" "mbufs" (fi (watermark_high "mbuf_pool"));
    l "dpdk.mbuf.alloc_failures" "count"
      (fi (counter "dpdk_mbuf_alloc_failures_total"));
    t "nic.tx_dma.self_ns_per_pkt" "ns/pkt" (per_pkt (self "tx_dma"));
    t "nic.rx_dma.self_ns_per_pkt" "ns/pkt" (per_pkt (self "rx_dma"));
    t "nic.deliver.self_ns_per_pkt" "ns/pkt" (per_pkt (self "deliver"));
    l "nic.pci.dma_bytes_per_pkt" "B/pkt" (per_pkt (fi (counter "nic_dma_bytes_total")));
    l "nic.rx_no_desc" "count" (fi (stalls "nic_rx_ring" "ring_full"));
    l "nic.tx_ring_full" "count" (fi (stalls "nic_tx_ring" "ring_full"));
    l "intravisor.crossings_per_pkt" "count/pkt"
      (per_pkt (fi (counter "trampoline_crossings_total")));
    t "intravisor.umtx_wake.self_ns_per_pkt" "ns/pkt" (per_pkt umtx_wake_ns);
    l "intravisor.umtx.acquisitions_per_pkt" "count/pkt" (per_pkt (fi acq));
    l "intravisor.umtx.contended_frac" "ratio"
      (fi (counter "umtx_contended_total") /. fi (max acq 1));
    l "intravisor.umtx.wait_ns_per_acq" "ns" (wait_ns /. fi (max acq 1));
    l "intravisor.syscalls_per_pkt" "count/pkt" (per_pkt (fi (counter "syscalls_total")));
    l "cheri.tag_writes_per_pkt" "count/pkt" (per_pkt (fi (counter "cheri_tag_writes_total")));
    l "cheri.tag_clears_per_pkt" "count/pkt" (per_pkt (fi (counter "cheri_tag_clears_total")));
    l "cheri.capability_faults" "count" (fi (counter "capability_faults_total"));
    t "app.step.self_ns_per_pkt" "ns/pkt" (per_pkt app_ns);
    t "gc.major_words_per_pkt" "words/pkt" (per_pkt major_words);
    t "gc.major_collections" "count" (fi major_collections);
  ]

(* The traced gate every workload shares: CHERI must trap nothing. *)
let fault_gate trace =
  if trace && counter "capability_faults_total" > 0 then
    [ Printf.sprintf "capability faults: %d, expected 0" (counter "capability_faults_total") ]
  else []

(* ------------------------------------------------------------------ *)
(* Bulk TCP rows of Table II                                            *)
(* ------------------------------------------------------------------ *)

let dut_nic_packets (b : Core.Scenarios.built) =
  let nic = Core.Topology.nic b.Core.Scenarios.dut in
  let total = ref 0 in
  for i = 0 to Nic.Igb.num_ports nic - 1 do
    let st = Nic.Igb.stats (Nic.Igb.port nic i) in
    total := !total + st.Nic.Port_stats.tx_packets + st.Nic.Port_stats.rx_packets
  done;
  !total

(* Peak over the traced window's snapshots of the live sockets of the
   DUT stacks, whose gauges carry the stack's address as "host". *)
let sampled_live_peak (b : Core.Scenarios.built) =
  let hosts =
    List.map
      (fun (n : Core.Topology.netif) ->
        Netstack.Ipv4_addr.to_string (Netstack.Stack.ip n.Core.Topology.stack))
      b.Core.Scenarios.dut_netifs
  in
  let live (row : Dsim.Sampler.row) =
    List.fold_left
      (fun acc (n, labels, v) ->
        match (v, List.assoc_opt "host" labels) with
        | Dsim.Metrics.Gauge_value g, Some h
          when n = "netstack_live_sockets" && List.mem h hosts ->
          acc + g
        | _ -> acc)
      0 row.Dsim.Sampler.values
  in
  List.fold_left (fun acc row -> max acc (live row)) 0 (Dsim.Sampler.rows Dsim.Sampler.default)

let bulk build ~trace ~horizon ~seed =
  settle ();
  let t0 = now () and c0 = Calib.cpu_now () in
  let b : Core.Scenarios.built = build (Int64.of_int seed) in
  let setup_s = now () -. t0 and setup_cpu_s = Calib.cpu_now () -. c0 in
  let engine = b.Core.Scenarios.engine in
  Dsim.Engine.run engine ~until:(Dsim.Time.add (Dsim.Engine.now engine) horizon.warmup);
  let packets0 = dut_nic_packets b in
  let events0 = Dsim.Engine.events_fired engine in
  let gc0 = gc_mark () in
  let w0 = now () and c0 = Calib.cpu_now () in
  let samples, (wall_s, cpu_s) =
    traced trace (fun () ->
        let s =
          Core.Bandwidth.run b ~warmup:Dsim.Time.zero ~duration:horizon.window ()
        in
        (s, (now () -. w0, Calib.cpu_now () -. c0)))
  in
  let minor_words, major_words, major_collections = gc_delta gc0 (gc_mark ()) in
  let packets = dut_nic_packets b - packets0 in
  (* The traced window's snapshot events are the benchmark's, not the
     workload's. *)
  let events =
    Dsim.Engine.events_fired engine - events0
    - if trace then List.length (Dsim.Sampler.rows Dsim.Sampler.default) else 0
  in
  let iv = Core.Topology.intravisor b.Core.Scenarios.dut in
  let goodputs = List.map (fun (s : Core.Bandwidth.sample) -> s.Core.Bandwidth.mbit_s) samples in
  let outputs =
    List.map
      (fun (s : Core.Bandwidth.sample) ->
        ("goodput_mbit." ^ s.Core.Bandwidth.label, exact s.Core.Bandwidth.mbit_s))
      samples
    @ [
        ("dut_nic_packets", string_of_int packets);
        ("crossings", string_of_int (Capvm.Intravisor.total_trampolines iv));
        ( "umtx_acquisitions",
          match b.Core.Scenarios.mutex with
          | Some mu -> string_of_int (Capvm.Umtx.acquisitions mu)
          | None -> "0" );
      ]
  in
  let stalled =
    List.filter_map
      (fun (s : Core.Bandwidth.sample) ->
        if s.Core.Bandwidth.mbit_s > 0. then None
        else Some (Printf.sprintf "flow %s moved no bytes" s.Core.Bandwidth.label))
      samples
  in
  let layers =
    if trace then
      layers ~packets ~events ~run_wall_s:wall_s ~flows:(List.length samples)
        ~live_peak:(sampled_live_peak b) ~major_words ~major_collections
    else []
  in
  {
    setup_s;
    setup_cpu_s;
    wall_s;
    cpu_s;
    sim_s = Dsim.Time.to_float_sec horizon.window;
    minor_words;
    major_words;
    major_collections;
    packets;
    goodput_mbit =
      List.fold_left ( +. ) 0. goodputs /. float_of_int (max 1 (List.length goodputs));
    outputs;
    gate_failures = stalled @ fault_gate trace;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* Fleet churn                                                          *)
(* ------------------------------------------------------------------ *)

let fleet_tenants = 64

(* [Fleet.run] builds its topology internally, so set-up is timed from
   outside as the same tenants and seed with a zero-length window, and
   the measured window is the full run's cost minus that one. Allocation
   counts are exact and subtract exactly. *)
let fleet ~trace ~horizon ~seed =
  let profile =
    {
      Core.Fleet.quick with
      Core.Fleet.p_name = "perfbench";
      p_warmup = horizon.warmup;
      p_duration = horizon.window;
    }
  in
  let seed64 = Int64.of_int seed in
  let run p = Core.Fleet.run ~profile:p ~tenants:fleet_tenants ~seed:seed64 () in
  settle ();
  let z0 = gc_mark () in
  let t0 = now () and c0 = Calib.cpu_now () in
  let zero = run { profile with Core.Fleet.p_duration = Dsim.Time.zero } in
  let setup_s = now () -. t0 and setup_cpu_s = Calib.cpu_now () -. c0 in
  let zminor, zmajor, _ = gc_delta z0 (gc_mark ()) in
  settle ();
  let gc0 = gc_mark () in
  let w0 = now () and c0 = Calib.cpu_now () in
  let r, (full_wall, full_cpu) =
    traced trace (fun () ->
        let r = run profile in
        (r, (now () -. w0, Calib.cpu_now () -. c0)))
  in
  let minor, major, major_collections = gc_delta gc0 (gc_mark ()) in
  let wall_s = full_wall -. setup_s and cpu_s = full_cpu -. setup_cpu_s in
  let packets = r.Core.Fleet.r_packets - zero.Core.Fleet.r_packets in
  let minor_words = minor -. zminor and major_words = major -. zmajor in
  let outputs =
    [
      ("flows", string_of_int r.Core.Fleet.r_flows);
      ("failed", string_of_int r.Core.Fleet.r_failed);
      ("bytes", string_of_int r.Core.Fleet.r_bytes);
      ("fct_p50_ns", exact r.Core.Fleet.r_fct_p50_ns);
      ("fct_p90_ns", exact r.Core.Fleet.r_fct_p90_ns);
      ("fct_p99_ns", exact r.Core.Fleet.r_fct_p99_ns);
      ("fct_p999_ns", exact r.Core.Fleet.r_fct_p999_ns);
      ("tx_frames", string_of_int r.Core.Fleet.r_packets);
      ("crossings", string_of_int r.Core.Fleet.r_crossings);
      ("live_sockets_peak", string_of_int r.Core.Fleet.r_live_socks_peak);
    ]
  in
  let gates =
    List.filter_map
      (fun (g, ok, detail) -> if ok then None else Some (g ^ ": " ^ detail))
      r.Core.Fleet.r_gates
  in
  (* The window must hold enough flows that ten lie beyond the reported
     FCT p99. *)
  let supported =
    match Bstats.highest_supported_percentile r.Core.Fleet.r_flows with
    | Some p when p >= 99. -> []
    | _ ->
      [ Printf.sprintf "fct p99 unsupported: %d flows leave fewer than 10 beyond it" r.Core.Fleet.r_flows ]
  in
  let layers =
    if trace then
      (* The traced instruments cover the whole run, whose 2 ms ARP
         warmup is negligible beside the window. *)
      layers ~packets:r.Core.Fleet.r_packets ~events:r.Core.Fleet.r_events ~run_wall_s:wall_s
        ~flows:r.Core.Fleet.r_flows ~live_peak:r.Core.Fleet.r_live_socks_peak
        ~major_words ~major_collections
    else []
  in
  {
    setup_s;
    setup_cpu_s;
    wall_s;
    cpu_s;
    sim_s = Dsim.Time.to_float_sec horizon.window;
    minor_words;
    major_words;
    major_collections;
    packets;
    goodput_mbit = r.Core.Fleet.r_goodput_mbit /. float_of_int fleet_tenants;
    outputs;
    gate_failures = gates @ supported @ fault_gate trace;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* The workloads                                                        *)
(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "s1-dual-recv";
      horizon = { warmup = Dsim.Time.ms 20; window = Dsim.Time.ms 300 };
      run =
        bulk (fun seed ->
            Core.Scenarios.build_dual_port ~cheri:true ~seed
              ~direction:Core.Scenarios.Dut_receives ());
    };
    {
      name = "s2-contended-send";
      horizon = { warmup = Dsim.Time.ms 20; window = Dsim.Time.ms 400 };
      run =
        bulk (fun seed ->
            Core.Scenarios.build_scenario2 ~contended:true ~seed
              ~direction:Core.Scenarios.Dut_sends ());
    };
    {
      name = "fleet-churn-64";
      horizon = { warmup = Core.Fleet.quick.Core.Fleet.p_warmup; window = Dsim.Time.ms 400 };
      run = fleet;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
