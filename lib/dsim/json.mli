(** Minimal JSON tree, emitter and parser.

    The telemetry surface needs JSON in three places: the flow-trace
    exports ({!Flowtrace.to_json} and the Chrome [trace_event]
    rendering {!Flowtrace.to_chrome_trace}), the bench harness's
    machine-readable per-artefact summaries, and the round-trip tests
    that validate both. The container carries no JSON library, so this
    is a small self-contained implementation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. NaN/infinite floats render as [null]. *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input. *)

val parse_opt : string -> t option

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] elsewhere. *)

val to_list : t -> t list option
