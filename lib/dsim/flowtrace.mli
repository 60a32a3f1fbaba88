(** Sampled per-packet causal flow tracing with drop attribution.

    A flow trace follows one frame (or one [ff_write] call) across every
    layer boundary it crosses — socket buffer, TCP output, IP, ethernet,
    the DPDK TX ring, NIC DMA, the wire, and back up the receive path on
    the peer — recording a virtual-clock timestamp at each hop. Traces
    are sampled 1-in-N ({!set_sample_every}) so the subsystem stays
    cheap under load, and every recording entry point is a single load
    and branch when the registry is disabled, so an untraced run is
    bit-identical to one with the library compiled in (regression-tested
    against the Fig. 4 medians).

    Two things are recorded {e unconditionally} while the registry is
    enabled, independent of sampling, because they must be complete to
    be useful:

    - the {b drop table}: every dropped frame increments a
      [(stage, reason)] counter at the exact point of the drop, so 100%
      of drops are attributed even when the dropped frame itself was not
      sampled;
    - origin/sample totals, so an analysis knows the sampling fraction.

    Retransmitted TCP segments link to the trace of the original
    transmission ({!origin} with [?parent]), giving retransmit lineage:
    the analyze pass can tell first-transmission latency from
    recovery-path latency. *)

(** Pipeline stage at which a hop or drop is recorded. The first group
    is the packet path (TX then RX); the second is the [ff_write]
    measurement path of Figs. 4–6 (clock read, trampoline, umtx,
    syscall body). *)
type stage =
  | App
  | Ff_api
  | Tcp_out
  | Ip_out
  | Eth_tx
  | Tx_ring
  | Tx_dma
  | Wire
  | Rx_dma
  | Rx_ring
  | Eth_rx
  | Ip_rx
  | Tcp_in
  | Udp_in
  | Sock
  | Clock_ret
  | Tramp_in
  | Umtx_wait
  | Ff_write
  | Tramp_out
  | Clock_entry

(** Typed reason attached to every drop. *)
type reason =
  | Tx_ring_full
  | Rx_ring_full
  | Mac_filter
  | Link_down
  | Bad_checksum
  | Parse_error
  | Out_of_window
  | Dup_segment
  | Rcv_buf_full
  | Mbuf_exhausted
  | No_socket
  | Sock_queue_full
  | Capability_fault
  | Unknown_proto
  | Fcs_error  (** Ethernet FCS mismatch detected by the receiving MAC. *)
  | Dma_error  (** Injected/observed DMA descriptor failure. *)
  | Chaos_injected  (** Dropped on purpose by {!Chaos}. *)
  | Arp_unresolved
      (** TX packet abandoned after ARP resolution failed (negative
          cache) or the pending queue overflowed. *)
  | Bad_length
      (** Header or length field lies about the bytes actually present:
          truncated header, total/udp length beyond the frame, option
          region past the buffer. *)
  | Bad_option  (** Malformed TCP/IP option list (overflow or runt). *)
  | Frag_unsupported
      (** IPv4 fragment (MF set or non-zero offset): the stack does no
          reassembly, so fragments are a typed reject, never a
          silently-misparsed whole datagram. *)

val stage_name : stage -> string
(** Lower-case stable identifier, e.g. [Tx_ring -> "tx_ring"]. *)

val stage_of_name : string -> stage option
val reason_name : reason -> string
val reason_of_name : string -> reason option
val all_stages : stage list
(** In pipeline order; the order used by reports. *)

type t
(** A trace registry (collection of traces plus the drop table). *)

type ctx
(** The trace context carried by a sampled frame: trace id, flow label,
    parent link and the hop sequence recorded so far. *)

val create : ?enabled:bool -> ?sample_every:int -> ?capacity:int -> unit -> t
(** [capacity] bounds the number of retained traces (default 65536);
    once full, further origins still count but are not recorded, and
    each sample they would have taken counts as {!refused}. *)

val default : t
(** Process-wide registry used by the stack layers, disabled until
    {!set_enabled}. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
val sample_every : t -> int
val set_sample_every : t -> int -> unit
(** Sample 1 frame in [n] (deterministic modulo counter, no RNG).
    @raise Invalid_argument if [n < 1]. *)

val clear : t -> unit
(** Forget traces, drop table and counters; keeps enabled/sampling. *)

val with_recording : ?sample_every:int -> t -> (unit -> 'a) -> 'a
(** [with_recording t f] runs [f] with [t] enabled (sampling 1 in
    [sample_every], if given) and cleared, then restores the previous
    enabled flag and sampling period and clears [t] again — also when
    [f] raises. *)

(** {1 Recording (hot path)} *)

val origin :
  t -> at:Time.t -> flow:string -> ?parent:int -> stage -> ctx option
(** Start a trace at a frame's origin. Returns [None] when the registry
    is disabled or this frame falls outside the 1-in-N sample; the
    caller threads the [ctx option] along with the frame and every
    recording call downstream accepts the option directly. [?parent]
    links a retransmission to the trace id of the original segment. *)

val origin_ns :
  t -> seq:int -> at_ns:float -> flow:string -> stage -> ctx option
(** As {!origin}, with a raw float nanosecond timestamp (the measurement
    harness's stage boundaries are sub-ns exact) and sampled by the
    caller's own sequence number: [seq] is a hit when it is a multiple
    of {!sample_every}. A measured path numbers its iterations from 0,
    so 1 in N of them are traced, evenly spaced, whatever packet traffic
    shares the registry — on the shared counter alone, the periodic
    frames each iteration triggers can phase-lock the sample onto the
    frames and starve the path. The call still advances the shared
    counter, so the frames around it are sampled as before. *)

val hop : ctx option -> stage -> at:Time.t -> unit
(** Record a layer crossing; no-op on [None]. Stage latency is defined
    hop-to-hop: the interval ending at this hop is attributed to this
    hop's stage. *)

val hop_ns : ctx option -> stage -> at_ns:float -> unit

val drop : t -> ?flow:ctx option -> stage -> reason -> unit
(** Attribute a dropped frame. Always bumps the [(stage, reason)]
    counter while enabled — sampled or not — and additionally marks the
    trace terminated when [flow] carries a context. *)

val id : ctx -> int
val parent : ctx -> int option
val flow_label : ctx -> string
val hops : ctx -> (stage * float) list
(** Hop sequence in recording order, timestamps in ns. *)

val dropped_at : ctx -> (stage * reason) option

(** {1 Inspection / export} *)

val origins : t -> int
(** Frames considered for sampling since the last {!clear}. *)

val sampled : t -> int

val refused : t -> int
(** Sample hits turned away because [capacity] traces were already
    retained: non-zero means the dump holds a prefix of the run. *)

val dropped_frames : t -> int
(** Total drops recorded in the attribution table. *)

val traces : t -> ctx list
(** Retained traces, oldest first. *)

val drop_table : t -> ((stage * reason) * int) list
(** Attribution counters, insertion order. *)

val to_json : t -> Json.t
(** Self-contained export: counters, every retained trace with its hop
    timeline and drop marker, and the drop-attribution table. Consumed
    by [netrepro analyze]. A [refused] count appears only when
    non-zero. *)

val to_chrome_trace : t -> Json.t
(** The retained traces as Chrome [trace_event] JSON
    ([{"traceEvents": [...]}]) for chrome://tracing or Perfetto: one
    track per flow label (an ["M"] [thread_name] record) and one ["X"]
    event per hop interval, named by the stage of the hop ending it,
    timestamps in microseconds. [args.trace] carries the trace id.
    Written by [netrepro ... --trace-json FILE]. *)
