(** Red-team network-borne attack generator with blast-radius gates.

    Drives the seeded attack corpus of {!Dsim.Redteam} against the
    three reproduction topologies and demands a typed verdict for every
    launch:

    - {b phase 1}, Baseline dual-port ([cheri:false]): the wire-parser
      subset is caught (those checks are software, common to both
      models), but the memory-shaped attacks — lying-length overread,
      use-after-close write, cross-tenant read — go through the flat
      MMU model silently; the ledger {e records} the corruption/leak.
    - {b phase 2}, Scenario 1 dual-port (CHERI): the full wire corpus
      (14 parser-bounds frames, blind RST/SYN/FIN, SYN/fragment
      floods, a port scan, an mbuf exhaust-and-spray) against port 0,
      with port 1 as the blast-radius control.
    - {b phase 3}, Scenario 2 shared stack (CHERI): cross-tenant
      probes (forged 5-tuples, port scan, RSS-steering abuse), a
      close-race stale-capability dereference inside the supervised
      [ff_*] boundary (mutex held), a stale-fd epoll probe, and
      floods — the supervisor must contain the fault, release the
      mutex, and the sibling must keep its goodput.

    Attack frames enter via {!Nic.Link.inject} (the tamper hook), so
    they share serialisation, FCS and propagation with legitimate
    traffic and runs stay deterministic per seed. Each phase runs an
    undisturbed twin first (same topology seed, no attacks); the
    {!Blast} sibling gate extends to attacked runs: sibling goodput
    outside quarantine must be >= 0.9x its twin. *)

type profile = {
  warmup : Dsim.Time.t;
  duration : Dsim.Time.t;
  sample_every : Dsim.Time.t;
  exhaust_window : Dsim.Time.t;
      (** How long the mbuf spray holds the pool. *)
}

val quick : profile
(** CI-sized: 6 ms warmup, 30 ms attacked window. *)

val full : profile
(** 20 ms warmup, 120 ms attacked window. *)

type phase = {
  blast : Blast.phase;  (** Roles, drop table and twin goodput. *)
  ap_ids : int list;  (** Ledger ids launched during this phase. *)
  ap_mutex_free : bool;
      (** Shared mutex not left held by the victim cVM. *)
  ap_pool_recovered : bool;  (** Mbufs available again after the spray. *)
  ap_rst_sent : int;  (** RSTs the stack answered probes with. *)
}

type report = {
  seed : int64;
  launched : int;
  caught : int;
  leaked : int;
  pending : int;
  counts : (Dsim.Redteam.cls * Dsim.Redteam.tally) list;
  phases : phase list;
  cheri_caught : int;  (** Caught launches in the CHERI phases. *)
  cheri_launched : int;
  pass : bool;
      (** No pending launches, 100% caught-and-attributed in the CHERI
          phases, >= 1 recorded baseline leak, sibling ratio >= 0.9 and
          pools/mutex recovered in every phase. *)
  text : string;
  json : Dsim.Json.t;
}

val run :
  ?profile:profile -> ?blackbox_dir:string -> seed:int64 -> unit -> report
(** Run the three attacked phases (each against its undisturbed twin)
    and assemble the gated report. With [blackbox_dir], supervisor
    containments also write [DIR/<cvm>.blackbox.json] and the report
    links each contained verdict to its dump file. Deterministic:
    the same [seed] yields a byte-identical [text] and [json]. *)
