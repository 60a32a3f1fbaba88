module Ch = Dsim.Chaos
module Ft = Dsim.Flowtrace
module Time = Dsim.Time
module Engine = Dsim.Engine
module Sup = Capvm.Supervisor

type window = { warmup : Time.t; duration : Time.t; sample_every : Time.t }
type sample = float * float * int
type quarantine = (Time.t * Time.t option) list

(* ------------------------------------------------------------------ *)
(* Goodput sampling                                                    *)
(* ------------------------------------------------------------------ *)

let overlaps (a, b) windows =
  List.exists
    (fun (ws, we) ->
      let ws = Time.to_float_ns ws in
      match we with
      | Some we -> a < Time.to_float_ns we && b > ws
      | None -> b > ws)
    windows

(* Bits per virtual nanosecond = Gbit/s. *)
let rate_outside samples windows =
  let bytes, ns =
    List.fold_left
      (fun (bytes, ns) (a, b, d) ->
        if overlaps (a, b) windows then (bytes, ns)
        else (bytes + d, ns +. (b -. a)))
      (0, 0.) samples
  in
  if ns <= 0. then 0. else float_of_int (bytes * 8) /. ns

let frac w f =
  Time.add w.warmup (Time.of_float_ns (f *. Time.to_float_ns w.duration))

let run_window w built =
  Engine.run ~until:(Time.add w.warmup w.duration) built.Scenarios.engine;
  built.Scenarios.stop ()

let drive ~component w ?(after_warmup = fun () -> ())
    ?(on_tick = fun ~now_ns:_ _ -> ()) built =
  let key stage = Dsim.Profile.(key default) ~component ~cvm:"-" ~stage in
  let k_arm = key "warmup_arm" and k_tick = key "sample_tick" in
  let engine = built.Scenarios.engine in
  let samples =
    List.map (fun f -> (f.Scenarios.label, ref [])) built.Scenarios.flows
  in
  let t0 = w.warmup in
  let t_end = Time.add t0 w.duration in
  ignore
    (Engine.schedule_at_l engine ~at:t0 ~label:k_arm (fun () ->
         List.iter
           (fun f -> ignore (f.Scenarios.take_bytes ()))
           built.Scenarios.flows;
         after_warmup ()));
  let rec tick prev () =
    let now = Engine.now engine in
    let now_ns = Time.to_float_ns now and prev_ns = Time.to_float_ns prev in
    let deltas =
      List.map
        (fun f -> (f.Scenarios.label, f.Scenarios.take_bytes ()))
        built.Scenarios.flows
    in
    List.iter2
      (fun (_, r) (_, d) -> r := (prev_ns, now_ns, d) :: !r)
      samples deltas;
    on_tick ~now_ns deltas;
    if Time.(now < t_end) then
      ignore
        (Engine.schedule_l engine ~delay:w.sample_every ~label:k_tick
           (tick now))
  in
  ignore
    (Engine.schedule_at_l engine ~at:(Time.add t0 w.sample_every)
       ~label:k_tick (tick t0));
  run_window w built;
  List.map (fun (l, r) -> (l, List.rev !r)) samples

let reference ~component w built =
  let samples = drive ~component w built in
  Ft.clear Ft.default;
  samples

(* ------------------------------------------------------------------ *)
(* Phases and the sibling gate                                         *)
(* ------------------------------------------------------------------ *)

type phase = {
  title : string;
  victim : string;
  sibling : string;
  drops : ((Ft.stage * Ft.reason) * int) list;
  sibling_rate : float;
  sibling_ref : float;
  victim_rate : float;
  victim_ref : float;
}

let phase ~title ~victim ~sibling windows ~ref_samples samples =
  let rate l ss = rate_outside (List.assoc l ss) windows in
  {
    title;
    victim;
    sibling;
    drops = Ft.drop_table Ft.default;
    sibling_rate = rate sibling samples;
    sibling_ref = rate sibling ref_samples;
    victim_rate = rate victim samples;
    victim_ref = rate victim ref_samples;
  }

let ratio rate ref_ = if ref_ <= 0. then None else Some (rate /. ref_)

let sibling_ok p =
  match ratio p.sibling_rate p.sibling_ref with
  | Some r -> r >= 0.9
  | None -> false

let section ?(before_drops = ignore) ?(after_drops = ignore) b p =
  Printf.bprintf b "-- %s --\n" p.title;
  before_drops b;
  if p.drops = [] then Printf.bprintf b "  drop table: (empty)\n"
  else begin
    Printf.bprintf b "  drop table (stage/reason -> frames):\n";
    List.iter
      (fun ((st, r), n) ->
        Printf.bprintf b "    %-10s %-16s %6d\n" (Ft.stage_name st)
          (Ft.reason_name r) n)
      p.drops
  end;
  after_drops b;
  let ratio_text rate ref_ =
    Option.fold ~none:"n/a" ~some:(Printf.sprintf "%.3f") (ratio rate ref_)
  in
  Printf.bprintf b
    "  sibling %-5s goodput outside quarantine: %.3f Gbit/s vs %.3f \
     undisturbed (ratio %s) [%s]\n"
    p.sibling p.sibling_rate p.sibling_ref
    (ratio_text p.sibling_rate p.sibling_ref)
    (if sibling_ok p then "ok"
     else if p.sibling_ref <= 0. then
       "FAIL: twin moved no bytes outside quarantine"
     else "FAIL");
  Printf.bprintf b
    "  victim  %-5s goodput outside quarantine: %.3f Gbit/s vs %.3f \
     undisturbed (ratio %s)\n"
    p.victim p.victim_rate p.victim_ref
    (ratio_text p.victim_rate p.victim_ref)

let phase_json ~extra p =
  let ratio_json rate ref_ =
    match ratio rate ref_ with
    | Some r -> Dsim.Json.Float r
    | None -> Dsim.Json.Null
  in
  Dsim.Json.Obj
    ([
       ("title", Dsim.Json.String p.title);
       ("victim", Dsim.Json.String p.victim);
       ("sibling", Dsim.Json.String p.sibling);
       ("sibling_ratio", ratio_json p.sibling_rate p.sibling_ref);
       ("victim_ratio", ratio_json p.victim_rate p.victim_ref);
       ("sibling_ok", Dsim.Json.Bool (sibling_ok p));
     ]
    @ extra
    @ [
        ( "drops",
          Dsim.Json.List
            (List.map
               (fun ((st, r), n) ->
                 Dsim.Json.Obj
                   [
                     ("stage", Dsim.Json.String (Ft.stage_name st));
                     ("reason", Dsim.Json.String (Ft.reason_name r));
                     ("frames", Dsim.Json.Int n);
                   ])
               p.drops) );
      ])

(* ------------------------------------------------------------------ *)
(* Supervised victims and injected capability faults                   *)
(* ------------------------------------------------------------------ *)

let restart_once =
  Sup.Restart
    { budget = 1; backoff_base = Time.us 50; backoff_max = Time.ms 2;
      jitter_pct = 0.1 }

let supervised ~component ?blackbox_dir ?on_transition create =
  let sup_ref = ref None in
  let supervise engine =
    let sup = create engine in
    Sup.set_blackbox_dir sup blackbox_dir;
    Sup.set_on_transition sup on_transition;
    sup_ref := Some sup;
    sup
  in
  let get () =
    match !sup_ref with
    | Some s -> s
    | None ->
      invalid_arg (component ^ ": builder did not instantiate the supervisor")
  in
  (supervise, get)

type cap_injector = {
  ci_supervise : Engine.t -> Sup.t;
  ci_sup : unit -> Sup.t;
  ci_hook : Capvm.Cvm.t -> unit;
  ci_arm : string -> unit;
}

let cap_injector ~component ?blackbox_dir ch ~detail create =
  (* The engine's clock, once the scenario build supervises it. *)
  let now_ns = ref (fun () -> 0.) in
  let armed = ref [] in
  (* Injected, unresolved: (cvm, ledger id, injected at), newest first. *)
  let open_faults = ref [] in
  let hook cvm =
    let name = Capvm.Cvm.name cvm in
    if List.mem name !armed then begin
      armed := List.filter (( <> ) name) !armed;
      let at_ns = !now_ns () in
      let id = Ch.inject ch Ch.Cap_fault ~at_ns ~target:name in
      open_faults := (name, id, at_ns) :: !open_faults;
      Cheri.Fault.raise_fault Cheri.Fault.Tag_violation ~address:0 ~detail
    end
  in
  let resolve name f =
    let mine, rest = List.partition (fun (n, _, _) -> n = name) !open_faults in
    open_faults := rest;
    List.iter (fun (_, id, at) -> f (id, at)) mine
  in
  let on_transition ~cvm ~old_state st =
    match (old_state, st) with
    | Sup.Restarting, Sup.Running ->
      let now = !now_ns () in
      resolve cvm (fun (id, at) ->
          Ch.resolve_recovered ch id ~ttr_ns:(now -. at))
    | _, Sup.Dead ->
      resolve cvm (fun (id, _) ->
          Ch.resolve_attributed ch id ~stage:"supervisor" ~reason:"quarantined")
    | _ -> ()
  in
  let supervise, get =
    supervised ~component ?blackbox_dir ~on_transition (fun engine ->
        (now_ns := fun () -> Time.to_float_ns (Engine.now engine));
        create engine)
  in
  {
    ci_supervise = supervise;
    ci_sup = get;
    ci_hook = hook;
    ci_arm = (fun name -> armed := name :: !armed);
  }
