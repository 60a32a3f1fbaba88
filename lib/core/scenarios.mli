(** The paper's system configurations (Section III).

    - {b Baseline}: no CHERI; MMU-isolated processes. Two processes
      (one full stack per port) for the dual-port comparison, or a
      single process for the Scenario 2 comparison.
    - {b Scenario 1}: the full stack (iperf + F-Stack + DPDK) replicated
      into two cVMs, one Ethernet port each. Trampolines appear only on
      libc syscalls, so the data path is identical to Baseline.
    - {b Scenario 2}: F-Stack + DPDK in cVM1; application(s) in cVM2
      (and cVM3 when contended). Every ff_* call crosses into cVM1 and
      serialises on the shared umtx-backed mutex with the main loop.
    - {b Scenario 3} (paper future work, implemented as an ablation):
      app, F-Stack and DPDK in three cVMs — each API call and each loop
      iteration pays an extra trampoline round trip.

    Each builder wires DUT and load-generator peer, starts every loop,
    and returns byte-counting flows for the bandwidth harness. *)

type direction =
  | Dut_receives  (** iperf "server mode" rows of Table II. *)
  | Dut_sends  (** "client mode" rows. *)

type flow = {
  label : string;
  take_bytes : unit -> int;
      (** Application-level bytes moved on the DUT side since last call. *)
}

type built = {
  engine : Dsim.Engine.t;
  dut : Topology.node;
  peer : Topology.node;
  flows : flow list;
  mutex : Capvm.Umtx.t option;  (** The Scenario 2 mutex, if any. *)
  links : Nic.Link.t list;
      (** The DUT-peer wires, in flow order — the chaos engine's tamper
          and flap handles. *)
  dut_netifs : Topology.netif list;
      (** DUT-side interfaces in flow order (mbuf pools, devices). *)
  app_cvms : Capvm.Cvm.t list;
      (** DUT-side cVMs a chaos experiment may target, in flow order. *)
  stop : unit -> unit;
}

val app_buffer_size : int
(** iperf's default 128 KiB write/read chunk. *)

(** {1 Topology building blocks}

    The single-port DUT/peer pieces and the Scenario 2 drivers. The
    canned scenarios below and {!Fleet}, which runs Scenario 2 at a
    different scale, assemble their topologies from these. *)

val ip_dut : int -> Netstack.Ipv4_addr.t
(** 10.0.[subnet].1 — the DUT side of subnet [subnet]. *)

val ip_peer : int -> Netstack.Ipv4_addr.t
(** 10.0.[subnet].2 — the load-generator side. *)

type single_port = {
  sp_engine : Dsim.Engine.t;
  sp_dut : Topology.node;
  sp_peer : Topology.node;
  sp_stack_cvm : Capvm.Cvm.t;  (** cVM1, hosting the DUT stack. *)
  sp_dnif : Topology.netif;
  sp_pnif : Topology.netif;
  sp_peer_cvm : Capvm.Cvm.t;
  sp_link : Nic.Link.t;
}

val single_port_base :
  ?engine:Dsim.Engine.t ->
  ?stack_tuning:(Netstack.Stack.config -> Netstack.Stack.config) ->
  seed:int64 ->
  unit ->
  single_port
(** DUT and peer nodes on one link, each with a stack cVM on port 0;
    nothing is started. Each stack is seeded from [seed], then passed
    through [stack_tuning]. *)

val s2_mutex : single_port -> policy:Capvm.Umtx.policy -> Capvm.Umtx.t
(** The Scenario 2 shared mutex, at the DUT's calibrated lock costs. *)

val s2_stack_driver : single_port -> Capvm.Umtx.t -> running:bool ref -> unit
(** Drive cVM1's main loop under the mutex: each iteration holds it for
    its CPU cost, then the loop waits the stack loop gap. Stops once
    [running] is false. *)

val crossing_window :
  single_port ->
  Capvm.Umtx.t ->
  component:string ->
  owner:string ->
  extra_tramp:int ->
  enter:((unit -> 'a * int) -> unit) ->
  (unit -> 'a) ->
  (unit -> unit) ->
  unit
(** [crossing_window sp mu ~component ~owner ~extra_tramp ~enter step]
    is one Scenario 2 ff_* window of [owner]'s [step], applied to the
    continuation that runs once the lock is released: acquire [mu],
    trampoline into cVM1 and run [step], hold the lock for the
    trampoline (plus [extra_tramp] more round trips), the uncontended
    lock cost, a fixed app cost and the per-packet cost of each frame
    the step transmitted, then release. [enter] runs the locked part in
    [owner]'s compartment (its fault context or a supervisor's trap
    boundary); the part returns the step's result and its TX frames.
    The hold is profiled as [component]/[owner]/[step_hold]. *)

val build_dual_port :
  ?cheri:bool ->
  ?seed:int64 ->
  ?supervise:(Dsim.Engine.t -> Capvm.Supervisor.t) ->
  ?app_hook:(Capvm.Cvm.t -> unit) ->
  direction:direction ->
  unit ->
  built
(** Baseline-two-processes ([cheri:false]) or Scenario 1
    ([cheri:true], default): one full stack per port, both ports busy.
    Flows: "cVM1" (port 0) and "cVM2" (port 1).

    [supervise] is called with the topology's engine (so supervisor
    restarts run on the run's clock) and places each DUT cVM's loop
    under the returned supervisor's trap boundary (the loop and its
    schedule are unchanged, so a supervisor that sees no fault leaves
    the run bit-identical);
    [app_hook] runs inside the compartment at the top of each
    iteration's application step — the chaos engine's fault-injection
    point. *)

val build_single_baseline :
  ?engine:Dsim.Engine.t -> ?seed:int64 -> direction:direction -> unit -> built
(** Single process, single port (the Baseline row of the Scenario 2
    table). Flow: "Baseline (cVM2)". [engine] substitutes a caller-owned
    (possibly sharded) engine — the wall-clock bench builds N replicas
    under {!Shardcfg.with_placement} on one engine, one per shard. *)

val build_scenario2 :
  ?seed:int64 ->
  ?contended:bool ->
  ?lock_policy:Capvm.Umtx.policy ->
  ?app_interval:Dsim.Time.t ->
  ?supervise:(Dsim.Engine.t -> Capvm.Supervisor.t) ->
  ?app_hook:(Capvm.Cvm.t -> unit) ->
  direction:direction ->
  unit ->
  built
(** cVM1 = F-Stack+DPDK (mutex-guarded loop); cVM2 (+cVM3 when
    [contended]) = iperf apps whose every step trampolines into cVM1
    under the mutex. Flows: "cVM2" (and "cVM3").

    [supervise] wraps each app cVM's steps in the supervisor's trap
    boundary: on a capability fault the shared mutex is force-released,
    the app torn down, and (policy permitting) rebuilt on restart.
    [app_hook] runs with the mutex held, inside the boundary — faulting
    there reproduces the held-mutex crash hazard of Scenario 2. *)

val build_scenario3_split :
  ?seed:int64 -> direction:direction -> unit -> built
(** Ablation: DPDK split from F-Stack as well — one extra trampoline
    round trip on each API call and each loop iteration. *)

(** {1 Latency-measurement topology (Figs. 4-6)}

    A single-port setup where the measured application on the DUT sends
    to a sink server on the peer. [`Direct] serves both Baseline and
    Scenario 1 (the data path is shared; the paths differ only in how
    the measurement clock is read, which {!Measurement} models).
    [`S2 contended] adds a background full-rate iperf client in cVM3. *)

type measurement_topology = {
  mt_built : built;
  mt_ff : Netstack.Ff_api.t;  (** The DUT stack's API. *)
  mt_stack : Netstack.Stack.t;
  mt_app_cvm : Capvm.Cvm.t;  (** Where the measured app lives. *)
  mt_stack_cvm : Capvm.Cvm.t;  (** cVM1 (stack + DPDK). *)
  mt_sink_port : int;  (** Peer-side sink the measured fd connects to. *)
}

val build_measurement :
  ?seed:int64 ->
  mode:[ `Direct | `S2 of bool ] ->
  unit ->
  measurement_topology

val build_udp_blast :
  ?engine:Dsim.Engine.t ->
  ?seed:int64 ->
  ?payload:int ->
  offered_mbit:float ->
  unit ->
  built
(** Extension: a UDP datagram blast from the DUT at a fixed offered
    rate, received and counted on the peer. Flows: "offered" (bytes the
    app attempted) and "received" (bytes that made it through) — their
    gap is the loss a protocol without flow control suffers once the
    offered load exceeds the path capacity. [engine] as in
    {!build_single_baseline}: replicas of this topology on one sharded
    engine are the shard-scaling bench workload. *)
