type t = {
  tramp_oneway_ns : float;
  syscall_ns : float;
  vdso_clock_total_ns : float;
  vdso_clock_read_ns : float;
  mmu_syscall_extra_ns : float;
  ff_write_fixed_ns : float;
  ff_write_per_byte_ns : float;
  mutex_uncontended_ns : float;
  umtx_wake_ns : float;
  stack_loop_gap_ns : float;
  jitter_sigma : float;
  outlier_prob : float;
  outlier_scale_mean : float;
  link_bps : float;
  pci_rx_bps : float;
  pci_tx_bps : float;
  dma_per_packet_ns : float;
  prop_delay_ns : float;
}

let default =
  {
    tramp_oneway_ns = 62.5;
    syscall_ns = 30.;
    vdso_clock_total_ns = 30.;
    vdso_clock_read_ns = 15.;
    mmu_syscall_extra_ns = 40.;
    ff_write_fixed_ns = 95.;
    ff_write_per_byte_ns = 0.05;
    mutex_uncontended_ns = 75.;
    umtx_wake_ns = 350.;
    stack_loop_gap_ns = 8_000.;
    jitter_sigma = 0.04;
    outlier_prob = 0.10;
    outlier_scale_mean = 2.5;
    link_bps = 1e9;
    pci_rx_bps = 1.395e9;
    pci_tx_bps = 1.609e9;
    dma_per_packet_ns = 120.;
    prop_delay_ns = 500.;
  }

let no_cheri t = { t with tramp_oneway_ns = 0. }

let scaled_jitter t ~factor =
  {
    t with
    jitter_sigma = t.jitter_sigma *. factor;
    outlier_prob = t.outlier_prob *. factor;
  }

let ethernet_goodput_ratio = 1448. /. 1538.

let serialization_ns t ~bytes = float_of_int bytes *. 8. /. t.link_bps *. 1e9
