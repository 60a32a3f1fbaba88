module Ch = Dsim.Chaos
module Ft = Dsim.Flowtrace
module Time = Dsim.Time
module Engine = Dsim.Engine
module Sup = Capvm.Supervisor

let component = "chaos"
let detail = "chaos: injected capability fault"

let k_chaos stage = Dsim.Profile.(key default) ~component ~cvm:"-" ~stage

let k_inject = k_chaos "inject"
let k_heartbeat = k_chaos "heartbeat"

type profile = {
  warmup : Dsim.Time.t;
  duration : Dsim.Time.t;
  sample_every : Dsim.Time.t;
  flap_down : Dsim.Time.t;
  mbuf_window : Dsim.Time.t;
  eintr_every : Dsim.Time.t;
}

let quick =
  {
    warmup = Time.ms 6;
    duration = Time.ms 30;
    sample_every = Time.ms 1;
    flap_down = Time.us 400;
    mbuf_window = Time.us 300;
    eintr_every = Time.us 200;
  }

let full =
  {
    warmup = Time.ms 20;
    duration = Time.ms 120;
    sample_every = Time.ms 2;
    flap_down = Time.us 600;
    mbuf_window = Time.us 400;
    eintr_every = Time.us 200;
  }

type phase = Blast.phase

type report = {
  seed : int64;
  injected : int;
  recovered : int;
  attributed : int;
  pending : int;
  counts : (Ch.kind * Ch.tally) list;
  phases : phase list;
  pass : bool;
  text : string;
}

let window p =
  { Blast.warmup = p.warmup; duration = p.duration; sample_every = p.sample_every }

(* Did the victim still move bytes in the last few sample windows?
   (End-to-end health check gating the bulk dup/reorder resolution.) *)
let tail_healthy samples label =
  match List.assoc_opt label samples with
  | None | Some [] -> false
  | Some l ->
    let n = List.length l in
    List.exists
      (fun (_, _, d) -> d > 0)
      (List.filteri (fun i _ -> i >= n - 3) l)

(* ------------------------------------------------------------------ *)
(* Phase A: Scenario 1 dual-port, victim port 0                        *)
(* ------------------------------------------------------------------ *)

let phase_a ch profile ~seed ~blackbox_dir =
  let w = window profile in
  let topo_seed = Int64.add seed 1L in
  let direction = Scenarios.Dut_receives in
  let victim = "cVM1" and sibling = "cVM2" in
  (* Undisturbed twin: same topology seeds, chaos idle. *)
  let ref_samples =
    Blast.reference ~component w
      (Scenarios.build_dual_port ~seed:topo_seed ~direction ())
  in
  let ci =
    Blast.cap_injector ~component ?blackbox_dir ch ~detail (fun engine ->
        Sup.create engine ~seed:(Int64.add seed 101L) ())
  in
  let built =
    Scenarios.build_dual_port ~seed:topo_seed ~supervise:ci.Blast.ci_supervise
      ~app_hook:ci.Blast.ci_hook ~direction ()
  in
  let engine = built.Scenarios.engine in
  let sup = ci.Blast.ci_sup () in
  (* Wire chaos on the victim's link only; port 1 is the control. *)
  let link0 = List.hd built.Scenarios.links in
  Nic.Link.set_tamper link0
    (Some
       (fun ~now ~ipv4 ~len ->
         Ch.frame_opportunity ch ~at_ns:(Time.to_float_ns now) ~ipv4 ~len
           ~target:"link0"));
  Ch.set_rates ch
    { Ch.wire_flip = 1.5e-3; dma_flip = 1.5e-3; drop = 1.5e-3; dup = 8e-4;
      reorder = 8e-4 };
  (* RX DMA-descriptor errors on the victim port. The device attributes
     the drop (Rx_dma/Dma_error + rx_dma_errors) synchronously, so the
     ledger entry resolves immediately. *)
  let p0 = Topology.port built.Scenarios.dut 0 in
  Nic.Igb.set_rx_fault p0
    (Some
       (fun ~len:_ ->
         if Ch.armed ch && Ch.draw ch ~p:4e-4 then begin
           let at_ns = Time.to_float_ns (Engine.now engine) in
           let id = Ch.inject ch Ch.Dma_desc_error ~at_ns ~target:"morello/port0" in
           Ch.resolve_attributed ch id ~stage:"rx_dma" ~reason:"dma_error";
           true
         end
         else false));
  (* Singular scheduled faults. *)
  let flap = ref None and mbuf = ref None in
  let pool = (List.hd built.Scenarios.dut_netifs).Topology.pool in
  let stolen = ref [] in
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.30) ~label:k_inject (fun () ->
         let at_ns = Time.to_float_ns (Engine.now engine) in
         flap := Some (Ch.inject ch Ch.Link_flap ~at_ns ~target:"link0", at_ns);
         Nic.Link.set_up link0 false;
         ignore
           (Engine.schedule_l engine ~delay:profile.flap_down ~label:k_inject (fun () ->
                Nic.Link.set_up link0 true))));
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.55) ~label:k_inject (fun () ->
         let at_ns = Time.to_float_ns (Engine.now engine) in
         let id =
           Ch.inject ch Ch.Mbuf_exhaust ~at_ns
             ~target:(Dpdk.Mbuf.pool_name pool)
         in
         let rec steal () =
           match Dpdk.Mbuf.alloc pool with
           | Some m ->
             stolen := m :: !stolen;
             steal ()
           | None -> ()
         in
         steal ();
         ignore
           (Engine.schedule_l engine ~delay:profile.mbuf_window ~label:k_inject (fun () ->
                List.iter Dpdk.Mbuf.free !stolen;
                stolen := [];
                (* Only now can the watcher call it recovered. *)
                mbuf := Some (id, at_ns)))));
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.18) ~label:k_inject (fun () ->
         ci.Blast.ci_arm victim));
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.45) ~label:k_inject (fun () ->
         ci.Blast.ci_arm victim));
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.80) ~label:k_inject (fun () ->
         Ch.set_armed ch false));
  (* Flap and exhaustion count as recovered when the victim moves
     application bytes again after the outage ends. *)
  let on_tick ~now_ns deltas =
    if Option.value ~default:0 (List.assoc_opt victim deltas) > 0 then begin
      (match !flap with
      | Some (id, at) when Nic.Link.up link0 ->
        Ch.resolve_recovered ch id ~ttr_ns:(now_ns -. at);
        flap := None
      | _ -> ());
      match !mbuf with
      | Some (id, at) ->
        Ch.resolve_recovered ch id ~ttr_ns:(now_ns -. at);
        mbuf := None
      | None -> ()
    end
  in
  let samples =
    Blast.drive ~component w
      ~after_warmup:(fun () -> Ch.set_armed ch true)
      ~on_tick built
  in
  Ch.set_armed ch false;
  Nic.Igb.set_rx_fault p0 None;
  Nic.Link.set_tamper link0 None;
  Ch.set_rates ch Ch.zero_rates;
  (* Attribution reconciliation against the detectors' own counters. *)
  let crc_observed =
    let s0 = Nic.Igb.stats (Topology.port built.Scenarios.dut 0) in
    let s1 = Nic.Igb.stats (Topology.port built.Scenarios.peer 0) in
    s0.Nic.Port_stats.rx_crc_errors + s1.Nic.Port_stats.rx_crc_errors
  in
  ignore
    (Ch.reconcile_attributed ch Ch.Wire_bit_flip ~observed:crc_observed
       ~stage:"rx_dma" ~reason:"fcs_error");
  let phase =
    Blast.phase
      ~title:"phase A: scenario 1 dual-port, wire+NIC+cVM chaos on port 0"
      ~victim ~sibling
      (Sup.quarantine_windows sup ~cvm:(List.hd built.Scenarios.app_cvms))
      ~ref_samples samples
  in
  let csum_observed =
    List.fold_left
      (fun acc ((_, r), n) ->
        (* Any typed parse reject can be the surface symptom of a
           flipped DMA byte — a corrupted length field lands on
           Bad_length, a corrupted fragment word on Frag_unsupported. *)
        match r with
        | Ft.Bad_checksum | Ft.Parse_error | Ft.Bad_length | Ft.Bad_option
        | Ft.Frag_unsupported ->
          acc + n
        | _ -> acc)
      0 phase.Blast.drops
  in
  ignore
    (Ch.reconcile_attributed ch Ch.Dma_bit_flip ~observed:csum_observed
       ~stage:"ip_rx" ~reason:"bad_checksum");
  (* Dups and reorders are absorbed by TCP sequencing; once end-to-end
     health is verified they are recovered with no measurable TTR. *)
  if tail_healthy samples victim then begin
    ignore (Ch.resolve_pending ch Ch.Frame_dup (Ch.Recovered { ttr_ns = 0. }));
    ignore
      (Ch.resolve_pending ch Ch.Frame_reorder (Ch.Recovered { ttr_ns = 0. }))
  end;
  phase

(* ------------------------------------------------------------------ *)
(* Phase B: Scenario 2 contended, victim cVM3                          *)
(* ------------------------------------------------------------------ *)

let phase_b ch profile ~seed ~blackbox_dir =
  let w = window profile in
  let topo_seed = Int64.add seed 2L in
  let direction = Scenarios.Dut_sends in
  let victim = "cVM3" and sibling = "cVM2" in
  (* FIFO lock hand-off: under the default barging policy the throttled
     cVM3 can be starved of the mutex for tens of milliseconds (the
     paper's Table II unfairness), which would push the injected fault
     schedule past the run's end. The twin uses the same policy. *)
  let build ?supervise ?app_hook () =
    Scenarios.build_scenario2 ~seed:topo_seed ~contended:true
      ~lock_policy:Capvm.Umtx.Fifo ?supervise ?app_hook ~direction ()
  in
  let ref_samples = Blast.reference ~component w (build ()) in
  (* Budget 1: the first fault restarts cVM3, the second permanently
     quarantines it — both paths must leave the shared mutex free. *)
  let ci =
    Blast.cap_injector ~component ?blackbox_dir ch ~detail (fun engine ->
        Sup.create engine ~seed:(Int64.add seed 102L) ~policy:Blast.restart_once
          ())
  in
  let built =
    build ~supervise:ci.Blast.ci_supervise ~app_hook:ci.Blast.ci_hook ()
  in
  let engine = built.Scenarios.engine in
  let sup = ci.Blast.ci_sup () in
  let victim_cvm = List.nth built.Scenarios.app_cvms 1 in
  (* Transient-EINTR chaos through the victim's libc: a heartbeat
     syscall stream whose attempts fail with probability 0.25 while
     armed; the shim's TEMP_FAILURE_RETRY loop recovers every one and
     reports the retry cost, which is the injection's TTR. *)
  let shim =
    Capvm.Musl_shim.create (Topology.intravisor built.Scenarios.dut) victim_cvm
  in
  let eintr_open = ref [] in
  Capvm.Musl_shim.set_transient shim
    (Some
       {
         Capvm.Musl_shim.should_fail =
           (fun ~attempt ->
             if attempt = 0 && Ch.armed ch && Ch.draw ch ~p:0.25 then begin
               let at_ns = Time.to_float_ns (Engine.now engine) in
               eintr_open :=
                 Ch.inject ch Ch.Syscall_eintr ~at_ns ~target:victim
                 :: !eintr_open;
               true
             end
             else false);
         note_recovery =
           (fun ~retries:_ ~backoff_ns ->
             List.iter
               (fun id -> Ch.resolve_recovered ch id ~ttr_ns:backoff_ns)
               !eintr_open;
             eintr_open := []);
       });
  let t_end = Time.add profile.warmup profile.duration in
  let rec heartbeat () =
    if Ch.armed ch && Sup.state sup ~cvm:victim_cvm = Sup.Running then
      ignore (Capvm.Musl_shim.clock_gettime shim);
    if Time.(Engine.now engine < t_end) then
      ignore (Engine.schedule_l engine ~delay:profile.eintr_every ~label:k_heartbeat heartbeat)
  in
  ignore (Engine.schedule_at_l engine ~at:profile.warmup ~label:k_heartbeat heartbeat);
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.25) ~label:k_inject (fun () ->
         ci.Blast.ci_arm victim));
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.60) ~label:k_inject (fun () ->
         ci.Blast.ci_arm victim));
  ignore
    (Engine.schedule_at_l engine ~at:(Blast.frac w 0.80) ~label:k_inject (fun () ->
         Ch.set_armed ch false));
  let samples =
    Blast.drive ~component w
      ~after_warmup:(fun () -> Ch.set_armed ch true)
      built
  in
  Ch.set_armed ch false;
  Capvm.Musl_shim.set_transient shim None;
  Blast.phase
    ~title:"phase B: scenario 2 contended, cap faults under the shared mutex"
    ~victim ~sibling
    (Sup.quarantine_windows sup ~cvm:victim_cvm)
    ~ref_samples samples

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let fmt_ns ns =
  if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let ttr_line b ch kind =
  match List.sort compare (Ch.ttrs ch kind) with
  | [] -> ()
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    Printf.bprintf b "  %-16s n=%-4d min=%-10s p50=%-10s max=%s\n"
      (Ch.kind_name kind) n (fmt_ns (nth 0))
      (fmt_ns (nth (n / 2)))
      (fmt_ns (nth (n - 1)))

let run ?(profile = quick) ?blackbox_dir ~seed () =
  let ch = Ch.create ~seed in
  let pa, pb =
    Ft.with_recording Ft.default (fun () ->
        let pa = phase_a ch profile ~seed ~blackbox_dir in
        (pa, phase_b ch profile ~seed ~blackbox_dir))
  in
  let counts = Ch.counts ch in
  let injected, recovered, attributed, pending =
    List.fold_left
      (fun (i, r, a, p) (_, t) ->
        ( i + t.Ch.t_injected,
          r + t.Ch.t_recovered,
          a + t.Ch.t_attributed,
          p + t.Ch.t_pending ))
      (0, 0, 0, 0) counts
  in
  let phases = [ pa; pb ] in
  let pass = pending = 0 && injected > 0 && List.for_all Blast.sibling_ok phases in
  let b = Buffer.create 4096 in
  Printf.bprintf b "=== chaos blast-radius report (seed %Ld) ===\n" seed;
  Printf.bprintf b "-- fault ledger --\n";
  Printf.bprintf b "  %-16s %9s %9s %10s %8s\n" "kind" "injected" "recovered"
    "attributed" "pending";
  List.iter
    (fun (k, t) ->
      Printf.bprintf b "  %-16s %9d %9d %10d %8d\n" (Ch.kind_name k)
        t.Ch.t_injected t.Ch.t_recovered t.Ch.t_attributed t.Ch.t_pending)
    counts;
  Printf.bprintf b "-- time to recovery --\n";
  List.iter (ttr_line b ch) Ch.all_kinds;
  List.iter (Blast.section b) phases;
  Printf.bprintf b "fault attribution: %.1f%% (%d/%d)\n"
    (if injected = 0 then 0.
     else 100. *. float_of_int (recovered + attributed) /. float_of_int injected)
    (recovered + attributed) injected;
  Printf.bprintf b "unrecovered faults: %d\n" pending;
  Printf.bprintf b "verdict: %s\n" (if pass then "PASS" else "FAIL");
  {
    seed;
    injected;
    recovered;
    attributed;
    pending;
    counts;
    phases;
    pass;
    text = Buffer.contents b;
  }
