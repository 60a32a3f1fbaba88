(** iperf3-style bandwidth application, ported to the ff_* API + epoll
    (exactly the adaptation the paper performed on iperf3).

    Both sides call {!Netstack.Ff_api} directly and are non-blocking
    state machines advanced by [*_step], called from whatever loop owns
    the app: the F-Stack loop hook (Baseline, Scenario 1) or an app
    cVM's driver. In Scenario 2 that driver runs each whole step inside
    one {!Scenarios.crossing_window}, which charges the trampoline and
    the shared F-Stack mutex per window, not per call. *)

(** {1 Server (receiver)} *)

type server

val server : Netstack.Ff_api.t -> buf:Cheri.Capability.t -> port:int -> server
(** Sets up listen socket + epoll immediately. [buf] is the receive
    staging buffer (an app-compartment capability). *)

val server_step : server -> unit
val server_take_rx : server -> int
(** Bytes received since the previous call (bandwidth windows). *)

val server_stop : server -> unit
(** Close every accepted connection, the listener and the epoll
    instance — the teardown a supervisor runs when the hosting cVM
    dies. Safe to call once per server. *)

(** {1 Client (sender)} *)

type client

val client :
  Netstack.Ff_api.t ->
  buf:Cheri.Capability.t ->
  server_ip:Netstack.Ipv4_addr.t ->
  port:int ->
  ?write_size:int ->
  ?max_writes_per_step:int ->
  unit ->
  client
(** [write_size] defaults to the full buffer capability length. *)

val client_step : client -> unit
val client_take_tx : client -> int
val client_stop : client -> unit
(** Close the connection (FIN). *)
