type kind =
  | Tag_violation
  | Out_of_bounds
  | Permission_violation
  | Seal_violation
  | Unseal_violation
  | Monotonicity_violation
  | Representability_violation

type t = { kind : kind; address : int; detail : string }

exception Capability_fault of t

let all_kinds =
  [
    Tag_violation;
    Out_of_bounds;
    Permission_violation;
    Seal_violation;
    Unseal_violation;
    Monotonicity_violation;
    Representability_violation;
  ]

let kind_label = function
  | Tag_violation -> "tag"
  | Out_of_bounds -> "out_of_bounds"
  | Permission_violation -> "permission"
  | Seal_violation -> "seal"
  | Unseal_violation -> "unseal"
  | Monotonicity_violation -> "monotonicity"
  | Representability_violation -> "representability"

(* Ambient compartment context, set by the Intravisor around every
   trampoline so a fault raised deep inside Capability/Tagged_memory —
   which know nothing about cVMs — is still accounted to the
   compartment whose code was running. *)
let context = ref "host"

let set_context name = context := name
let current_context () = !context

let with_context name f =
  let saved = !context in
  context := name;
  match f () with
  | v ->
    context := saved;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    context := saved;
    Printexc.raise_with_backtrace e bt

let faults_metric ~cvm ~kind =
  Dsim.Metrics.counter Dsim.Metrics.default
    ~help:"Capability faults raised, by compartment and fault kind."
    ~labels:[ ("cvm", cvm); ("kind", kind_label kind) ]
    "capability_faults_total"

let register_compartment name =
  (* Pre-register every kind so a compartment that never faults still
     exposes zero-valued series (the Fig. 4 run has no faults, but its
     metrics file must say so). *)
  List.iter (fun kind -> ignore (faults_metric ~cvm:name ~kind)) all_kinds

let raise_fault kind ~address ~detail =
  if Dsim.Metrics.enabled Dsim.Metrics.default then
    Dsim.Metrics.incr (faults_metric ~cvm:!context ~kind);
  (* Mirror the trap into the audit ledger so chaos-injected capability
     faults cross-reference with audit attribution by cVM and kind.
     Hw_fault never raises in strict mode — the capability fault below
     is the authoritative exception. *)
  if Dsim.Audit.enabled Dsim.Audit.default then
    Dsim.Audit.record_violation Dsim.Audit.default ~kind:Dsim.Audit.Hw_fault
      ~cvm:!context ~address
      ~detail:(kind_label kind ^ ": " ^ detail)
      ~source:"hardware";
  raise (Capability_fault { kind; address; detail })

let kind_to_string = function
  | Tag_violation -> "CAP tag violation"
  | Out_of_bounds -> "CAP out-of-bounds"
  | Permission_violation -> "CAP permission violation"
  | Seal_violation -> "CAP seal violation"
  | Unseal_violation -> "CAP unseal violation"
  | Monotonicity_violation -> "CAP monotonicity violation"
  | Representability_violation -> "CAP representability violation"

let pp fmt f =
  Format.fprintf fmt "%s at 0x%x (%s)" (kind_to_string f.kind) f.address f.detail

let to_string f = Format.asprintf "%a" pp f

let () =
  Printexc.register_printer (function
    | Capability_fault f -> Some ("Capability_fault: " ^ to_string f)
    | _ -> None)
