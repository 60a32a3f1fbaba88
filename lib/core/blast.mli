(** The blast-radius harness of the chaos, red-team and audit
    experiments.

    The paper's containment claim is checked one way everywhere: run a
    scenario undisturbed (the twin), run it again with a victim
    compartment under fault or attack, and hold the sibling's goodput
    outside the victim's quarantine windows to >= 0.9x the twin's.

    [component] names the profile-key component ("chaos", "redteam",
    ...) the harness's own events and errors are labelled with. *)

type window = {
  warmup : Dsim.Time.t;
  duration : Dsim.Time.t;  (** Measured window after [warmup]. *)
  sample_every : Dsim.Time.t;  (** Goodput sample period. *)
}

type sample = float * float * int
(** One [(t0_ns, t1_ns, bytes)] goodput window of a flow. *)

type quarantine = (Dsim.Time.t * Dsim.Time.t option) list
(** [(trap, recovery)] intervals, [None] = never recovered. *)

val overlaps : float * float -> quarantine -> bool
(** Half-open: a sample ending exactly at a window's start is outside. *)

val rate_outside : sample list -> quarantine -> float
(** Gbit/s over the samples outside every window; 0 if there are none. *)

val frac : window -> float -> Dsim.Time.t
(** The instant a fraction into the measured window. *)

val run_window : window -> Scenarios.built -> unit
(** Run to the end of the measured window, then stop the scenario. *)

val drive :
  component:string ->
  window ->
  ?after_warmup:(unit -> unit) ->
  ?on_tick:(now_ns:float -> (string * int) list -> unit) ->
  Scenarios.built ->
  (string * sample list) list
(** {!run_window}, sampling every flow's byte delta each
    [sample_every]; [after_warmup] arms the fault source, [on_tick]
    sees each tick's per-flow deltas. Samples are chronological. *)

val reference :
  component:string -> window -> Scenarios.built -> (string * sample list) list
(** Drive the undisturbed twin, then clear {!Dsim.Flowtrace.default} so
    the attacked run's drop table starts empty. *)

type phase = {
  title : string;
  victim : string;
  sibling : string;
  drops : ((Dsim.Flowtrace.stage * Dsim.Flowtrace.reason) * int) list;
  sibling_rate : float;  (** Gbit/s outside quarantine windows. *)
  sibling_ref : float;  (** The twin, same windows. *)
  victim_rate : float;
  victim_ref : float;
}

val phase :
  title:string ->
  victim:string ->
  sibling:string ->
  quarantine ->
  ref_samples:(string * sample list) list ->
  (string * sample list) list ->
  phase
(** Rates of both runs plus the drop table of {!Dsim.Flowtrace.default}. *)

val sibling_ok : phase -> bool
(** The gate: sibling >= 0.9x its twin. No twin bytes outside
    quarantine is a failure, not a pass. *)

val section :
  ?before_drops:(Buffer.t -> unit) ->
  ?after_drops:(Buffer.t -> unit) ->
  Buffer.t ->
  phase ->
  unit
(** Render a phase: title, drop table, sibling goodput with the gate's
    verdict, victim goodput. The hooks add experiment-specific lines. *)

val phase_json : extra:(string * Dsim.Json.t) list -> phase -> Dsim.Json.t
(** Roles, ratios ([null] without a reference), the gate, [extra], then
    the drop table. *)

val restart_once : Capvm.Supervisor.policy
(** Restart budget 1: the first fault restarts the cVM, the second
    quarantines it for good. *)

val supervised :
  component:string ->
  ?blackbox_dir:string ->
  ?on_transition:
    (cvm:string -> old_state:Capvm.Supervisor.state -> Capvm.Supervisor.state -> unit) ->
  (Dsim.Engine.t -> Capvm.Supervisor.t) ->
  (Dsim.Engine.t -> Capvm.Supervisor.t) * (unit -> Capvm.Supervisor.t)
(** Wrap a scenario's [supervise] callback: the supervisor gets the
    black-box directory and transition hook, and the getter returns it
    after the build ([Invalid_argument] if the build never made one). *)

type cap_injector = {
  ci_supervise : Dsim.Engine.t -> Capvm.Supervisor.t;
      (** The scenario's [supervise] callback. *)
  ci_sup : unit -> Capvm.Supervisor.t;
  ci_hook : Capvm.Cvm.t -> unit;  (** The scenario's [app_hook]. *)
  ci_arm : string -> unit;  (** Fault the named cVM's next entry. *)
}

val cap_injector :
  component:string ->
  ?blackbox_dir:string ->
  Dsim.Chaos.t ->
  detail:string ->
  (Dsim.Engine.t -> Capvm.Supervisor.t) ->
  cap_injector
(** Injected capability faults, raised inside the armed compartment
    with [detail], each a [Cap_fault] entry in the chaos ledger. A
    restart resolves the open entries as recovered with their
    trap-to-recovery time; death attributes them to the supervisor. *)
