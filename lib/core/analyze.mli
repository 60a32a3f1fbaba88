(** Offline analysis of a {!Dsim.Flowtrace} JSON export.

    [netrepro analyze FILE] loads the trace file written by
    [--flow-trace], computes per-stage latency percentiles from the
    hop-to-hop intervals, decomposes each flow group's end-to-end median
    into its stage medians (the stage intervals of one trace telescope
    exactly to its end-to-end time), and renders the drop-attribution
    table. *)

type trace = {
  t_id : int;
  t_parent : int option;  (** Original transmission (retransmits). *)
  t_flow : string;
  t_hops : (string * float) list;  (** (stage name, at_ns), in order. *)
  t_drop : (string * string) option;  (** (stage, reason). *)
}

type t = {
  sample_every : int;
  origins : int;
  sampled : int;
  dropped_frames : int;
  traces : trace list;
  drops : (string * string * int) list;  (** (stage, reason, count). *)
}

val of_json : Dsim.Json.t -> (t, string) result
val of_file : string -> (t, string) result
(** Reads and parses the file; [Error] carries a human-readable cause. *)

val stage_durations : t -> (string * Dsim.Stats.t) list
(** Hop-to-hop intervals grouped by the stage they are attributed to
    (the stage of the hop {e ending} the interval), in pipeline order;
    stages with no samples are omitted. *)

type group = {
  g_flow : string;
  g_traces : int;
  g_retransmits : int;  (** Traces carrying a parent link. *)
  g_e2e_p50 : float;  (** Median of (last hop - first hop), ns. *)
  g_stage_sum_p50 : float;  (** Sum of per-stage median intervals, ns. *)
}

val groups : t -> group list
(** One entry per distinct flow label, largest trace count first. Only
    traces with at least two hops contribute latency figures. *)

val render : t -> string
(** The full human-readable report. *)

(** {1 Sampler time-series files} *)

val is_timeseries : Dsim.Json.t -> bool
(** Does the value look like a [--timeseries] export
    ([interval_ns] + [rows]) rather than a flow trace? *)

val timeseries_summary : Dsim.Json.t -> (string, string) result
(** Row/series counts, interval and span, and a prominent warning when
    the sampler hit capacity and dropped snapshots ([truncated]). *)
