type tenant = {
  name : string;
  mutable flows : int;
  mutable bytes : int;
  fct : Stats.t;
  mutable crossings : int;
  mutable packets : int;
  (* Per-stage hop-to-hop intervals and per-trace end-to-end times from
     sampled traces; keyed by stage name, rendered in pipeline order. *)
  stage_int : (string, Stats.t) Hashtbl.t;
  e2e : Stats.t;
  mutable traces : int;
  drops : (string * string, int) Hashtbl.t;
  mutable drop_order : (string * string) list;  (* first seen, reversed *)
}

type t = {
  tenants : (string, tenant) Hashtbl.t;
  (* Globals accumulated from every ingested registry. *)
  global_drops : (string * string, int) Hashtbl.t;
  mutable global_drop_order : (string * string) list;
  mutable dropped_frames : int;
  mutable origins : int;
  mutable sampled : int;
  mutable unattributed : int;
}

let create () =
  {
    tenants = Hashtbl.create 64;
    global_drops = Hashtbl.create 32;
    global_drop_order = [];
    dropped_frames = 0;
    origins = 0;
    sampled = 0;
    unattributed = 0;
  }

let tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
    let tn =
      {
        name;
        flows = 0;
        bytes = 0;
        fct = Stats.create ();
        crossings = 0;
        packets = 0;
        stage_int = Hashtbl.create 16;
        e2e = Stats.create ();
        traces = 0;
        drops = Hashtbl.create 8;
        drop_order = [];
      }
    in
    Hashtbl.replace t.tenants name tn;
    tn

let note_flow t ~tenant:name ~bytes ~fct_ns =
  let tn = tenant t name in
  tn.flows <- tn.flows + 1;
  tn.bytes <- tn.bytes + bytes;
  Stats.add tn.fct fct_ns

let note_packets t ~tenant:name n =
  let tn = tenant t name in
  tn.packets <- tn.packets + n

let note_crossings t ~tenant:name n =
  let tn = tenant t name in
  tn.crossings <- tn.crossings + n

let bump table order key n =
  match Hashtbl.find_opt table key with
  | Some c ->
    Hashtbl.replace table key (c + n);
    !order
  | None ->
    Hashtbl.replace table key n;
    key :: !order

let stage_buf tn stage =
  match Hashtbl.find_opt tn.stage_int stage with
  | Some s -> s
  | None ->
    let s = Stats.create () in
    Hashtbl.replace tn.stage_int stage s;
    s

let ingest t ~tenant_of ft =
  t.origins <- t.origins + Flowtrace.origins ft;
  t.sampled <- t.sampled + Flowtrace.sampled ft;
  t.dropped_frames <- t.dropped_frames + Flowtrace.dropped_frames ft;
  List.iter
    (fun ((stage, reason), n) ->
      let key = (Flowtrace.stage_name stage, Flowtrace.reason_name reason) in
      let order = ref t.global_drop_order in
      t.global_drop_order <- bump t.global_drops order key n)
    (Flowtrace.drop_table ft);
  List.iter
    (fun ctx ->
      match tenant_of (Flowtrace.flow_label ctx) with
      | None -> t.unattributed <- t.unattributed + 1
      | Some name ->
        let tn = tenant t name in
        (match Flowtrace.dropped_at ctx with
        | Some (stage, reason) ->
          let key = (Flowtrace.stage_name stage, Flowtrace.reason_name reason) in
          let order = ref tn.drop_order in
          tn.drop_order <- bump tn.drops order key 1
        | None -> ());
        let hops = Flowtrace.hops ctx in
        (match hops with
        | [] | [ _ ] -> ()
        | (_, first) :: _ ->
          tn.traces <- tn.traces + 1;
          let rec walk prev = function
            | [] -> prev
            | (stage, at) :: rest ->
              Stats.add (stage_buf tn (Flowtrace.stage_name stage)) (at -. prev);
              walk at rest
          in
          let last = walk first (List.tl hops) in
          Stats.add tn.e2e (last -. first)))
    (Flowtrace.traces ft)

type rollup = {
  r_tenant : string;
  r_flows : int;
  r_bytes : int;
  r_goodput_mbit : float;
  r_fct_p50_ns : float;
  r_fct_p90_ns : float;
  r_fct_p99_ns : float;
  r_fct_p999_ns : float;
  r_traces : int;
  r_stage_p50_ns : (string * float) list;
  r_stage_mean_sum_ns : float;
  r_e2e_mean_ns : float;
  r_e2e_p50_ns : float;
  r_crossings : int;
  r_packets : int;
  r_crossings_per_packet : float;
  r_drops : (string * string * int) list;
}

let rollup t ~duration_ns =
  Hashtbl.fold (fun _ tn acc -> tn :: acc) t.tenants []
  |> List.sort (fun a b -> String.compare a.name b.name)
  |> List.map (fun tn ->
         let stage_names =
           List.filter
             (fun s -> Hashtbl.mem tn.stage_int s)
             (List.map Flowtrace.stage_name Flowtrace.all_stages)
         in
         let stage_p50 =
           List.map
             (fun s -> (s, Stats.percentiles (Hashtbl.find tn.stage_int s) 50.))
             stage_names
         in
         let stage_mean_sum =
           List.fold_left
             (fun acc s ->
               let buf = Hashtbl.find tn.stage_int s in
               acc +. (Stats.mean buf *. float_of_int (Stats.count buf)))
             0. stage_names
           /. float_of_int (max 1 tn.traces)
         in
         let fct = Stats.percentiles tn.fct in
         {
           r_tenant = tn.name;
           r_flows = tn.flows;
           r_bytes = tn.bytes;
           r_goodput_mbit =
             (if duration_ns <= 0. then 0.
              else float_of_int tn.bytes *. 8000. /. duration_ns);
           r_fct_p50_ns = fct 50.;
           r_fct_p90_ns = fct 90.;
           r_fct_p99_ns = fct 99.;
           r_fct_p999_ns = fct 99.9;
           r_traces = tn.traces;
           r_stage_p50_ns = stage_p50;
           r_stage_mean_sum_ns = stage_mean_sum;
           r_e2e_mean_ns = (if Stats.is_empty tn.e2e then 0. else Stats.mean tn.e2e);
           r_e2e_p50_ns = Stats.percentiles tn.e2e 50.;
           r_crossings = tn.crossings;
           r_packets = tn.packets;
           r_crossings_per_packet =
             (if tn.packets = 0 then 0.
              else float_of_int tn.crossings /. float_of_int tn.packets);
           r_drops =
             List.rev_map
               (fun (s, r) -> (s, r, Hashtbl.find tn.drops (s, r)))
               tn.drop_order;
         })

let jain xs =
  match xs with
  | [] -> 1.
  | _ ->
    let s = List.fold_left ( +. ) 0. xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    if s2 = 0. then 1. else s *. s /. (float_of_int (List.length xs) *. s2)

let drop_table t =
  List.rev_map
    (fun (s, r) -> (s, r, Hashtbl.find t.global_drops (s, r)))
    t.global_drop_order

let dropped_frames t = t.dropped_frames
let attributed_drops t = List.fold_left (fun acc (_, _, n) -> acc + n) 0 (drop_table t)
let origins t = t.origins
let sampled t = t.sampled
let unattributed_traces t = t.unattributed
