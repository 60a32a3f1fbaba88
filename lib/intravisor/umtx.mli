(** The shared mutex of Scenario 2, backed by CheriBSD's [_umtx_op].

    cVM1's main loop holds it for the length of each poll iteration;
    application cVMs take it around every F-Stack API call. Acquisition
    is asynchronous in simulation terms: if the lock is held, the
    caller's continuation runs at the simulated time the lock is
    granted, after the kernel wake cost.

    Two hand-off policies, for the locking-strategy ablation the paper
    defers to future work:
    - [Barging]: the most recent waiter wins (LIFO), the unfairness that
      produces Table II's contended imbalance;
    - [Fifo]: ticket-lock order, fair but with longer worst-case chains. *)

type policy = Barging | Fifo

type t

val create :
  Dsim.Engine.t ->
  ?policy:policy ->
  ?uncontended_ns:float ->
  ?wake_ns:float ->
  unit ->
  t
(** [uncontended_ns] and [wake_ns] default to {!Dsim.Cost_model.default}'s
    [mutex_uncontended_ns] and [umtx_wake_ns]. *)

val policy : t -> policy

val acquire :
  t ->
  ?flow:Dsim.Flowtrace.ctx option ->
  owner:string ->
  (wait_ns:float -> unit) ->
  unit
(** Run the continuation when the lock is granted. [wait_ns] is the
    simulated blocking time (0 for an uncontended grab; the uncontended
    lock cost itself is in the cost model, accounted by the caller).
    [flow] gets an [Umtx_wait] hop stamped at the grant time, so the
    blocking interval shows up in the per-stage latency breakdown. *)

val release : t -> unit
(** @raise Invalid_argument when not held. Grants to the next waiter
    per policy (scheduling its continuation after the wake cost). *)

val force_release : t -> owner:string -> bool
(** Crash cleanup for a dead compartment: drop any continuations it has
    queued, and if it holds the lock, release (granting to the next
    surviving waiter). Returns whether the hold was broken. Never
    raises — safe to run unconditionally from supervisor teardown. *)

val try_acquire : t -> owner:string -> bool
val locked : t -> bool
val holder : t -> string option
val waiters : t -> int
val acquisitions : t -> int
val contended_acquisitions : t -> int
val total_wait_ns : t -> float
