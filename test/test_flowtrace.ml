(* Flow tracing: sampling discipline, cross-layer propagation, retransmit
   lineage, drop attribution and the measurement-path decomposition.

   Several tests drive Dsim.Flowtrace.default (the registry the stack
   layers record into); each of those disables and clears it on the way
   out so suites stay independent. *)

open Netstack

let ip_left = Ipv4_addr.make 192 168 1 1
let ip_right = Ipv4_addr.make 192 168 1 2

type world = {
  engine : Dsim.Engine.t;
  link : Nic.Link.t;
  lnif : Core.Topology.netif;
  rnif : Core.Topology.netif;
}

let make_world () =
  let engine = Dsim.Engine.create () in
  let lnode = Core.Topology.make_node engine ~name:"l" ~ports:1 () in
  let rnode = Core.Topology.make_node engine ~name:"r" ~ports:1 () in
  let link = Core.Topology.link engine lnode 0 rnode 0 in
  let netif node ip seed =
    let cvm =
      Capvm.Intravisor.create_cvm (Core.Topology.intravisor node) ~name:"net"
        ~size:(12 * 1024 * 1024)
    in
    let region =
      Capvm.Cvm.sub_region cvm ~size:Core.Topology.default_netif_region_size
    in
    Core.Topology.make_netif node ~region ~port_idx:0 ~ip
      ~stack_tuning:(fun c -> { c with Stack.rng_seed = seed })
      ()
  in
  let lnif = netif lnode ip_left 21L and rnif = netif rnode ip_right 22L in
  Stack.start lnif.Core.Topology.stack;
  Stack.start rnif.Core.Topology.stack;
  { engine; link; lnif; rnif }

let run_for w d =
  Dsim.Engine.run w.engine ~until:(Dsim.Time.add (Dsim.Engine.now w.engine) d)

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

let connect_pair w =
  let srv = w.rnif.Core.Topology.stack and cli = w.lnif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream srv) in
  get (Stack.bind srv lfd ~port:5201);
  get (Stack.listen srv lfd ~backlog:4);
  let cfd = get (Stack.socket_stream cli) in
  ignore (Stack.connect cli cfd ~ip:ip_right ~port:5201);
  run_for w (Dsim.Time.ms 20);
  let afd, _, _ = get (Stack.accept srv lfd) in
  (cfd, afd)

let check_float name a b = Alcotest.(check (float 0.)) name a b

(* Run [f] with the default registry enabled at [sample_every]; always
   disable and clear it afterwards. *)
let with_default_tracing ?(sample_every = 1) f =
  let ft = Dsim.Flowtrace.default in
  Dsim.Flowtrace.set_enabled ft true;
  Dsim.Flowtrace.set_sample_every ft sample_every;
  Dsim.Flowtrace.clear ft;
  Fun.protect
    ~finally:(fun () ->
      Dsim.Flowtrace.set_enabled ft false;
      Dsim.Flowtrace.set_sample_every ft 1;
      Dsim.Flowtrace.clear ft)
    (fun () -> f ft)

(* ------------------------------------------------------------------ *)
(* Registry unit behaviour                                              *)
(* ------------------------------------------------------------------ *)

let sampling_one_in_n () =
  let ft = Dsim.Flowtrace.create ~enabled:true ~sample_every:4 () in
  let ctxs =
    List.init 8 (fun i ->
        Dsim.Flowtrace.origin ft
          ~at:(Dsim.Time.of_float_ns (float_of_int i))
          ~flow:"unit" Dsim.Flowtrace.App)
  in
  Alcotest.(check int) "all origins counted" 8 (Dsim.Flowtrace.origins ft);
  Alcotest.(check int) "1-in-4 sampled" 2 (Dsim.Flowtrace.sampled ft);
  Alcotest.(check int) "sampled = Some ctx" 2
    (List.length (List.filter Option.is_some ctxs));
  (* Hops accumulate on the sampled context and stay time-ordered. *)
  let ctx = List.find Option.is_some ctxs in
  Dsim.Flowtrace.hop ctx Dsim.Flowtrace.Eth_tx ~at:(Dsim.Time.of_float_ns 50.);
  Dsim.Flowtrace.hop ctx Dsim.Flowtrace.Wire ~at:(Dsim.Time.of_float_ns 90.);
  (match ctx with
  | Some c ->
    let hops = Dsim.Flowtrace.hops c in
    Alcotest.(check int) "three hops" 3 (List.length hops);
    let ts = List.map snd hops in
    Alcotest.(check bool) "hop timestamps ordered" true
      (List.sort compare ts = ts)
  | None -> assert false);
  (* hop on None is a no-op, not an error. *)
  Dsim.Flowtrace.hop None Dsim.Flowtrace.Wire ~at:Dsim.Time.zero

let disabled_is_inert () =
  let ft = Dsim.Flowtrace.create ~enabled:false () in
  let ctx =
    Dsim.Flowtrace.origin ft ~at:Dsim.Time.zero ~flow:"off" Dsim.Flowtrace.App
  in
  Alcotest.(check bool) "no context when disabled" true (ctx = None);
  Dsim.Flowtrace.drop ft Dsim.Flowtrace.Wire Dsim.Flowtrace.Link_down;
  Alcotest.(check int) "no origins" 0 (Dsim.Flowtrace.origins ft);
  Alcotest.(check int) "no drops" 0 (Dsim.Flowtrace.dropped_frames ft)

(* The drop table must be complete even when the dropped frame itself
   fell outside the 1-in-N sample. *)
let drop_table_counts_unsampled () =
  let ft = Dsim.Flowtrace.create ~enabled:true ~sample_every:1000 () in
  for _ = 1 to 10 do
    Dsim.Flowtrace.drop ft Dsim.Flowtrace.Rx_ring
      Dsim.Flowtrace.Rx_ring_full
  done;
  Alcotest.(check int) "all ten drops attributed" 10
    (Dsim.Flowtrace.dropped_frames ft);
  match Dsim.Flowtrace.drop_table ft with
  | [ ((Dsim.Flowtrace.Rx_ring, Dsim.Flowtrace.Rx_ring_full), 10) ] -> ()
  | table ->
    Alcotest.failf "unexpected drop table (%d entries)" (List.length table)

(* A full registry refuses further samples, but counts every refusal
   and says so in its dump; an untruncated dump carries no such field. *)
let capacity_truncation_counted () =
  let ft = Dsim.Flowtrace.create ~enabled:true ~sample_every:1 ~capacity:2 () in
  let ctxs =
    List.init 5 (fun i ->
        Dsim.Flowtrace.origin_ns ft ~seq:i ~at_ns:(float_of_int i) ~flow:"full"
          Dsim.Flowtrace.App)
  in
  Alcotest.(check int) "origins" 5 (Dsim.Flowtrace.origins ft);
  Alcotest.(check int) "sampled up to capacity" 2 (Dsim.Flowtrace.sampled ft);
  Alcotest.(check int) "refusals counted" 3 (Dsim.Flowtrace.refused ft);
  Alcotest.(check int) "refused origins get no context" 3
    (List.length (List.filter Option.is_none ctxs));
  Alcotest.(check int) "two traces kept" 2
    (List.length (Dsim.Flowtrace.traces ft));
  let refused_field ft = Dsim.Json.member "refused" (Dsim.Flowtrace.to_json ft) in
  Alcotest.(check bool) "dump reports refusals" true
    (refused_field ft = Some (Dsim.Json.Int 3));
  let roomy = Dsim.Flowtrace.create ~enabled:true ~sample_every:1 () in
  ignore
    (Dsim.Flowtrace.origin_ns roomy ~seq:0 ~at_ns:0. ~flow:"ok"
       Dsim.Flowtrace.App);
  Alcotest.(check bool) "no field when nothing was refused" true
    (refused_field roomy = None);
  Dsim.Flowtrace.clear ft;
  Alcotest.(check int) "clear resets refusals" 0 (Dsim.Flowtrace.refused ft)

let stage_names_round_trip () =
  List.iter
    (fun s ->
      let name = Dsim.Flowtrace.stage_name s in
      match Dsim.Flowtrace.stage_of_name name with
      | Some s' when s' = s -> ()
      | _ -> Alcotest.failf "stage %s does not round-trip" name)
    Dsim.Flowtrace.all_stages

(* ------------------------------------------------------------------ *)
(* Cross-layer propagation on the packet path                           *)
(* ------------------------------------------------------------------ *)

let rx_path_propagation () =
  with_default_tracing (fun ft ->
      let w = make_world () in
      Stack.ping w.lnif.Core.Topology.stack ~ip:ip_right ~ident:3 ~seq:1
        ~payload:(Bytes.of_string "traced");
      run_for w (Dsim.Time.ms 10);
      let traces = Dsim.Flowtrace.traces ft in
      Alcotest.(check bool) "traces recorded" true (traces <> []);
      (* Every trace begins at its origin and its hop timeline is
         monotone in virtual time — no orphan hops. *)
      List.iter
        (fun c ->
          let hops = Dsim.Flowtrace.hops c in
          Alcotest.(check bool) "non-empty hop list" true (hops <> []);
          let ts = List.map snd hops in
          Alcotest.(check bool) "monotone timeline" true
            (List.sort compare ts = ts))
        traces;
      (* At least one frame was followed across the wire into the peer's
         receive path: ethernet parse, IP accept. *)
      let crossed =
        List.exists
          (fun c ->
            let stages = List.map fst (Dsim.Flowtrace.hops c) in
            List.mem Dsim.Flowtrace.Wire stages
            && List.mem Dsim.Flowtrace.Eth_rx stages
            && List.mem Dsim.Flowtrace.Ip_rx stages)
          traces
      in
      Alcotest.(check bool) "a trace spans tx->wire->rx" true crossed;
      (* The JSON export is what `netrepro analyze` consumes; it must
         round-trip through the offline loader. *)
      match Core.Analyze.of_json (Dsim.Flowtrace.to_json ft) with
      | Error msg -> Alcotest.failf "analyze load: %s" msg
      | Ok a ->
        Alcotest.(check int) "origins survive export"
          (Dsim.Flowtrace.origins ft) a.Core.Analyze.origins;
        Alcotest.(check int) "traces survive export" (List.length traces)
          (List.length a.Core.Analyze.traces);
        Alcotest.(check bool) "report renders" true
          (String.length (Core.Analyze.render a) > 0))

(* A link flap loses an in-flight segment; the RTO retransmission must
   carry a parent link to the original transmission's trace, and the
   lost frame must show up in the drop table as (wire, link_down). *)
let retransmit_lineage () =
  with_default_tracing (fun ft ->
      let w = make_world () in
      let cfd, afd = connect_pair w in
      let cli = w.lnif.Core.Topology.stack
      and srv = w.rnif.Core.Topology.stack in
      Nic.Link.set_up w.link false;
      ignore
        (Stack.write cli cfd ~buf:(Bytes.of_string "during-flap|") ~off:0
           ~len:12);
      run_for w (Dsim.Time.ms 30);
      Nic.Link.set_up w.link true;
      run_for w (Dsim.Time.ms 200);
      let rbuf = Bytes.create 64 in
      let n = get (Stack.read srv afd ~buf:rbuf ~off:0 ~len:64) in
      Alcotest.(check string) "data arrived via retransmit" "during-flap|"
        (Bytes.sub_string rbuf 0 n);
      let dropped_on_wire =
        List.exists
          (fun ((s, r), count) ->
            s = Dsim.Flowtrace.Wire
            && r = Dsim.Flowtrace.Link_down
            && count > 0)
          (Dsim.Flowtrace.drop_table ft)
      in
      Alcotest.(check bool) "lost frame attributed to (wire, link_down)"
        true dropped_on_wire;
      (* Lineage: some retransmission trace points at an earlier trace,
         and that parent id really exists. *)
      let traces = Dsim.Flowtrace.traces ft in
      let has_lineage =
        List.exists
          (fun c ->
            match Dsim.Flowtrace.parent c with
            | None -> false
            | Some p ->
              List.exists (fun c' -> Dsim.Flowtrace.id c' = p) traces)
          traces
      in
      Alcotest.(check bool) "retransmit links to original trace" true
        has_lineage)

(* Every injected drop carries a stage and a typed reason: datagrams to
   a closed port must be attributed (udp_in, no_socket), one count per
   frame, agreeing exactly with the stack's own rx_dropped counter. *)
let drop_attribution_no_socket () =
  with_default_tracing (fun ft ->
      let w = make_world () in
      let cli = w.lnif.Core.Topology.stack
      and srv = w.rnif.Core.Topology.stack in
      let ufd = get (Stack.udp_socket cli) in
      let before = (Stack.counters srv).Stack.rx_dropped in
      let sent = 7 in
      for i = 1 to sent do
        get
          (Stack.udp_sendto cli ufd ~ip:ip_right ~port:9
             ~buf:(Bytes.of_string (Printf.sprintf "nobody-home-%d" i)));
        run_for w (Dsim.Time.ms 2)
      done;
      run_for w (Dsim.Time.ms 10);
      let rx_dropped = (Stack.counters srv).Stack.rx_dropped - before in
      Alcotest.(check int) "receiver dropped every datagram" sent rx_dropped;
      let attributed =
        List.fold_left
          (fun acc ((s, r), count) ->
            if s = Dsim.Flowtrace.Udp_in && r = Dsim.Flowtrace.No_socket then
              acc + count
            else acc)
          0 (Dsim.Flowtrace.drop_table ft)
      in
      Alcotest.(check int) "every drop attributed (udp_in, no_socket)"
        rx_dropped attributed;
      (* No anonymous drops: the table accounts for each counted frame. *)
      Alcotest.(check int) "drop table total matches" rx_dropped
        (Dsim.Flowtrace.dropped_frames ft))

(* ------------------------------------------------------------------ *)
(* Time-series sampler                                                  *)
(* ------------------------------------------------------------------ *)

let sampler_rows_monotone () =
  Dsim.Metrics.set_enabled Dsim.Metrics.default true;
  Dsim.Metrics.reset Dsim.Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Dsim.Metrics.set_enabled Dsim.Metrics.default false;
      Dsim.Metrics.reset Dsim.Metrics.default)
    (fun () ->
      let w = make_world () in
      let sampler =
        Dsim.Sampler.create ~enabled:true ~interval:(Dsim.Time.ms 2) ()
      in
      Dsim.Sampler.attach sampler w.engine Dsim.Metrics.default;
      for seq = 1 to 5 do
        Stack.ping w.lnif.Core.Topology.stack ~ip:ip_right ~ident:1 ~seq
          ~payload:Bytes.empty;
        run_for w (Dsim.Time.ms 10)
      done;
      let rows = Dsim.Sampler.rows sampler in
      Alcotest.(check bool) "several snapshots taken" true
        (List.length rows >= 2);
      let times = List.map (fun r -> r.Dsim.Sampler.at_ns) rows in
      Alcotest.(check bool) "snapshot times strictly increasing" true
        (List.for_all2 (fun a b -> a < b)
           (List.filteri (fun i _ -> i < List.length times - 1) times)
           (List.tl times));
      Alcotest.(check bool) "rows carry metric values" true
        (List.for_all (fun r -> r.Dsim.Sampler.values <> []) rows))

(* ------------------------------------------------------------------ *)
(* Figure-level guarantees                                              *)
(* ------------------------------------------------------------------ *)

(* Tracing every single frame (sample_every = 1) must not move the
   Fig. 4 medians by a single bit: recording only mutates host-side
   registries, never the virtual clock or the RNG streams. *)
let fig4_bit_identical_with_tracing () =
  let median path =
    let r = Core.Measurement.run ~iterations:400 path in
    r.Core.Measurement.boxplot.Dsim.Stats.median
  in
  Dsim.Flowtrace.set_enabled Dsim.Flowtrace.default false;
  let base_off = median Core.Measurement.Baseline in
  let s1_off = median Core.Measurement.Scenario1 in
  with_default_tracing ~sample_every:1 (fun ft ->
      let base_on = median Core.Measurement.Baseline in
      let s1_on = median Core.Measurement.Scenario1 in
      Alcotest.(check bool) "tracing was live" true
        (Dsim.Flowtrace.sampled ft > 0);
      check_float "Baseline median unchanged" base_off base_on;
      check_float "Scenario 1 median unchanged" s1_off s1_on)

(* The measurement decomposition telescopes: per-stage median intervals
   of a path's traces must sum to its end-to-end median within 1%. *)
let stage_sum_matches_e2e () =
  with_default_tracing ~sample_every:1 (fun ft ->
      ignore (Core.Measurement.run ~iterations:300 Core.Measurement.Baseline);
      ignore
        (Core.Measurement.run ~iterations:300
           (Core.Measurement.Scenario2 { contended = false }));
      match Core.Analyze.of_json (Dsim.Flowtrace.to_json ft) with
      | Error msg -> Alcotest.failf "analyze load: %s" msg
      | Ok a ->
        let groups = Core.Analyze.groups a in
        List.iter
          (fun label ->
            match
              List.find_opt
                (fun g -> g.Core.Analyze.g_flow = label)
                groups
            with
            | None -> Alcotest.failf "no trace group for %s" label
            | Some g ->
              let e2e = g.Core.Analyze.g_e2e_p50 in
              let sum = g.Core.Analyze.g_stage_sum_p50 in
              Alcotest.(check bool) (label ^ " e2e positive") true (e2e > 0.);
              let rel = Float.abs (sum -. e2e) /. e2e in
              if rel > 0.01 then
                Alcotest.failf
                  "%s: stage sum %.1f ns vs e2e %.1f ns (%.2f%% off)" label
                  sum e2e (100. *. rel))
          [ "Baseline"; "Scenario 2 (uncontended)" ])

(* --trace-json on Fig. 4 at netrepro's default --sample-every 64: the
   Chrome export has a track per measured path, iterations 0, 64, 128
   and 192 of each path are sampled (the TCP frames each write triggers
   share the registry but not the iteration count), and every sampled
   iteration renders as its stage events from clock_ret to clock_entry. *)
let fig4_chrome_tracks () =
  with_default_tracing ~sample_every:64 (fun ft ->
      ignore (Core.Measurement.run ~iterations:200 Core.Measurement.Baseline);
      ignore (Core.Measurement.run ~iterations:200 Core.Measurement.Scenario1);
      let events =
        match
          Option.bind
            (Dsim.Json.member "traceEvents"
               (Dsim.Json.parse
                  (Dsim.Json.to_string (Dsim.Flowtrace.to_chrome_trace ft))))
            Dsim.Json.to_list
        with
        | Some evs -> evs
        | None -> Alcotest.fail "no traceEvents list"
      in
      let str field e =
        match Dsim.Json.member field e with
        | Some (Dsim.Json.String v) -> v
        | _ -> ""
      in
      let int field e =
        match Dsim.Json.member field e with Some (Dsim.Json.Int v) -> v | _ -> -1
      in
      let tid_of label =
        match
          List.find_opt
            (fun e ->
              str "ph" e = "M"
              && Option.map (str "name") (Dsim.Json.member "args" e)
                 = Some label)
            events
        with
        | Some e -> int "tid" e
        | None -> Alcotest.failf "no track for %s" label
      in
      List.iter
        (fun label ->
          let tid = tid_of label in
          let iterations =
            List.filter
              (fun c -> Dsim.Flowtrace.flow_label c = label)
              (Dsim.Flowtrace.traces ft)
          in
          Alcotest.(check int) (label ^ ": iterations sampled") 4
            (List.length iterations);
          List.iter
            (fun c ->
              let names =
                List.filter_map
                  (fun e ->
                    let trace =
                      Option.map (int "trace") (Dsim.Json.member "args" e)
                    in
                    if
                      str "ph" e = "X" && int "tid" e = tid
                      && trace = Some (Dsim.Flowtrace.id c)
                    then Some (str "name" e)
                    else None)
                  events
              in
              Alcotest.(check (list string))
                (label ^ ": stage events")
                [ "clock_ret"; "ff_write"; "clock_entry" ]
                names)
            iterations)
        [ "Baseline"; "Scenario 1" ])

let suite =
  [
    Alcotest.test_case "1-in-N sampling" `Quick sampling_one_in_n;
    Alcotest.test_case "disabled registry inert" `Quick disabled_is_inert;
    Alcotest.test_case "drop table complete when unsampled" `Quick
      drop_table_counts_unsampled;
    Alcotest.test_case "capacity truncation counted" `Quick
      capacity_truncation_counted;
    Alcotest.test_case "stage names round trip" `Quick stage_names_round_trip;
    Alcotest.test_case "rx path propagation" `Quick rx_path_propagation;
    Alcotest.test_case "retransmit lineage" `Quick retransmit_lineage;
    Alcotest.test_case "drop attribution (udp no_socket)" `Quick
      drop_attribution_no_socket;
    Alcotest.test_case "sampler rows monotone" `Quick sampler_rows_monotone;
    Alcotest.test_case "fig4 medians bit-identical under tracing" `Slow
      fig4_bit_identical_with_tracing;
    Alcotest.test_case "stage sum matches end-to-end median" `Slow
      stage_sum_matches_e2e;
    Alcotest.test_case "fig4 chrome export tracks per path" `Slow
      fig4_chrome_tracks;
  ]
