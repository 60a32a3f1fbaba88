(** Calibrated timing constants for the simulated Morello/CheriBSD system.

    The paper reports wall-clock effects measured on real hardware; this
    reproduction runs on a simulator, so each mechanism is assigned a
    cost here and the evaluation *shape* (deltas, ratios, crossovers)
    emerges from executing the real code paths with these costs.

    Calibration sources (see DESIGN.md §2):
    - Scenario 1 adds ~125 ns to ff_write() vs. Baseline — two one-way
      musl→Intravisor trampolines on the timing path (Fig. 4).
    - Scenario 2 (uncontended) adds ~200 ns over Scenario 1 — an extra
      cross-cVM round trip plus an uncontended mutex (Fig. 5).
    - Scenario 2 (contended) costs ~19 us, a 152x slowdown — waiting for
      the F-Stack main loop's critical section (Fig. 6).
    - Single-port TCP goodput is 941 Mbit/s = 1 Gbit/s x 1448/1538
      (Table II, single-port rows).
    - Dual-port goodput saturates the PCI bus at ~658 (RX) and ~757 (TX)
      Mbit/s per port (Table II, dual-port rows). *)

type t = {
  tramp_oneway_ns : float;
      (** One-way cross-compartment jump: save registers, install the
          target PCC/DDC, [blrs]-style sealed branch. *)
  syscall_ns : float;  (** Host-OS syscall body (e.g. clock_gettime). *)
  vdso_clock_total_ns : float;
      (** Baseline clock_gettime via the vDSO fast path — no kernel
          entry at all, which is why Baseline's measured ff_write is so
          small. *)
  vdso_clock_read_ns : float;
      (** Offset within the vDSO call at which the timer is sampled. *)
  mmu_syscall_extra_ns : float;
      (** Baseline-only kernel entry/exit via SVC (no trampoline). *)
  ff_write_fixed_ns : float;
      (** Socket-buffer bookkeeping of ff_write, payload-independent. *)
  ff_write_per_byte_ns : float;  (** Copy cost into the socket buffer. *)
  mutex_uncontended_ns : float;  (** Lock+unlock with no waiter. *)
  umtx_wake_ns : float;
      (** Kernel wake of a blocked waiter (futex→umtx proxy path). *)
  stack_loop_gap_ns : float;
      (** Time the F-Stack main loop spends outside its critical section
          (the mutex hold in Scenario 2, whose length is the loop's
          measured work). Calibration: Fig. 6's contended median of
          ~19 us is half the loop period when an app blocks at a
          uniformly random phase of the main loop. *)
  jitter_sigma : float;
      (** Lognormal sigma (on the log scale) of measurement noise. *)
  outlier_prob : float;
      (** Probability a sample is disturbed (IRQ, cache miss burst);
          the paper discards ~10% of iterations by IQR. *)
  outlier_scale_mean : float;
      (** Mean multiplicative penalty on disturbed samples. *)
  link_bps : float;  (** Line rate of each Ethernet port. *)
  pci_rx_bps : float;
      (** Aggregate PCI DMA ceiling for device→memory (receive). *)
  pci_tx_bps : float;  (** Aggregate ceiling for memory→device. *)
  dma_per_packet_ns : float;  (** Fixed descriptor + doorbell cost. *)
  prop_delay_ns : float;  (** Back-to-back wire propagation delay. *)
}

val default : t
(** Values calibrated against the paper's Morello/82576 setup. *)

val no_cheri : t -> t
(** The same platform without capability checks (Baseline). *)

val scaled_jitter : t -> factor:float -> t
(** Multiply the noise parameters; used by tests to get deterministic
    (factor = 0) or exaggerated distributions. *)

val ethernet_goodput_ratio : float
(** 1448/1538: TCP payload per wire byte for a 1500-byte MTU with
    timestamps, preamble, and inter-frame gap. *)

val serialization_ns : t -> bytes:int -> float
(** Time to put [bytes] on the wire at [link_bps]. *)
