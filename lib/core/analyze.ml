type trace = {
  t_id : int;
  t_parent : int option;
  t_flow : string;
  t_hops : (string * float) list;
  t_drop : (string * string) option;
}

type t = {
  sample_every : int;
  origins : int;
  sampled : int;
  dropped_frames : int;
  traces : trace list;
  drops : (string * string * int) list;
}

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

let json_int = function
  | Dsim.Json.Int n -> Some n
  | Dsim.Json.Float f -> Some (int_of_float f)
  | _ -> None

let json_float = function
  | Dsim.Json.Float f -> Some f
  | Dsim.Json.Int n -> Some (float_of_int n)
  | _ -> None

let json_string = function Dsim.Json.String s -> Some s | _ -> None

let field name conv j =
  match Dsim.Json.member name j with
  | Some v -> conv v
  | None -> None

let parse_hop j =
  match (field "stage" json_string j, field "at_ns" json_float j) with
  | Some stage, Some at_ns -> Some (stage, at_ns)
  | _ -> None

let parse_drop j =
  match (field "stage" json_string j, field "reason" json_string j) with
  | Some stage, Some reason -> Some (stage, reason)
  | _ -> None

let parse_trace j =
  match (field "id" json_int j, field "flow" json_string j) with
  | Some t_id, Some t_flow ->
    let t_parent =
      match Dsim.Json.member "parent" j with
      | Some (Dsim.Json.Int p) -> Some p
      | _ -> None
    in
    let t_hops =
      match Dsim.Json.member "hops" j with
      | Some hops -> (
        match Dsim.Json.to_list hops with
        | Some l -> List.filter_map parse_hop l
        | None -> [])
      | None -> []
    in
    let t_drop =
      match Dsim.Json.member "drop" j with
      | Some (Dsim.Json.Obj _ as d) -> parse_drop d
      | _ -> None
    in
    Some { t_id; t_parent; t_flow; t_hops; t_drop }
  | _ -> None

let parse_drop_row j =
  match
    ( field "stage" json_string j,
      field "reason" json_string j,
      field "count" json_int j )
  with
  | Some stage, Some reason, Some count -> Some (stage, reason, count)
  | _ -> None

let of_json j =
  match j with
  | Dsim.Json.Obj _ ->
    let int_field name =
      match field name json_int j with Some n -> n | None -> 0
    in
    let list_field name conv =
      match Dsim.Json.member name j with
      | Some v -> (
        match Dsim.Json.to_list v with
        | Some l -> List.filter_map conv l
        | None -> [])
      | None -> []
    in
    Ok
      {
        sample_every = (match field "sample_every" json_int j with
                       | Some n -> n
                       | None -> 1);
        origins = int_field "origins";
        sampled = int_field "sampled";
        dropped_frames = int_field "dropped_frames";
        traces = list_field "traces" parse_trace;
        drops = list_field "drops" parse_drop_row;
      }
  | _ -> Error "flow-trace file: top-level JSON object expected"

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Dsim.Json.parse contents with
    | exception Dsim.Json.Parse_error msg ->
      Error (Printf.sprintf "%s: %s" path msg)
    | j -> of_json j)

(* ------------------------------------------------------------------ *)
(* Derived views                                                        *)
(* ------------------------------------------------------------------ *)

(* Stage order for reports: pipeline order, by stage name. *)
let stage_rank name =
  let rec idx i = function
    | [] -> max_int
    | s :: rest -> if Dsim.Flowtrace.stage_name s = name then i else idx (i + 1) rest
  in
  idx 0 Dsim.Flowtrace.all_stages

(* Intervals attributed to the stage of the hop ending them. *)
let trace_intervals tr =
  match tr.t_hops with
  | [] | [ _ ] -> []
  | (_, t0) :: rest ->
    let _, out =
      List.fold_left
        (fun (prev, acc) (stage, at) -> (at, (stage, at -. prev) :: acc))
        (t0, []) rest
    in
    List.rev out

(* The intervals of [traces], one sample buffer per stage. *)
let intervals_by_stage traces =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun tr ->
      List.iter
        (fun (stage, d) ->
          match Hashtbl.find_opt tbl stage with
          | Some buf -> Dsim.Stats.add buf d
          | None ->
            let buf = Dsim.Stats.create () in
            Dsim.Stats.add buf d;
            Hashtbl.replace tbl stage buf)
        (trace_intervals tr))
    traces;
  tbl

let stage_durations t =
  Hashtbl.fold (fun stage buf acc -> (stage, buf) :: acc)
    (intervals_by_stage t.traces) []
  |> List.sort (fun (a, _) (b, _) -> compare (stage_rank a) (stage_rank b))

type group = {
  g_flow : string;
  g_traces : int;
  g_retransmits : int;
  g_e2e_p50 : float;
  g_stage_sum_p50 : float;
}

let groups t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun tr ->
      match Hashtbl.find_opt tbl tr.t_flow with
      | Some l -> l := tr :: !l
      | None ->
        Hashtbl.replace tbl tr.t_flow (ref [ tr ]);
        order := tr.t_flow :: !order)
    t.traces;
  List.rev !order
  |> List.map (fun flow ->
         let traces = List.rev !(Hashtbl.find tbl flow) in
         let timed = List.filter (fun tr -> List.length tr.t_hops >= 2) traces in
         let e2e = Dsim.Stats.create () in
         List.iter
           (fun tr ->
             let hops = tr.t_hops in
             let _, t0 = List.hd hops in
             let _, tn = List.nth hops (List.length hops - 1) in
             Dsim.Stats.add e2e (tn -. t0))
           timed;
         let stage_sum =
           Hashtbl.fold
             (fun _ buf acc -> acc +. Dsim.Stats.median buf)
             (intervals_by_stage timed) 0.
         in
         {
           g_flow = flow;
           g_traces = List.length traces;
           g_retransmits =
             List.length (List.filter (fun tr -> tr.t_parent <> None) traces);
           g_e2e_p50 = Dsim.Stats.percentiles e2e 50.;
           g_stage_sum_p50 = stage_sum;
         })
  |> List.sort (fun a b -> compare b.g_traces a.g_traces)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let ns f = Printf.sprintf "%.0f" f

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "Flow-trace analysis: %d traces (1-in-%d sample of %d origins), %d \
        attributed drops\n"
       t.sampled t.sample_every t.origins t.dropped_frames);
  let rtx = List.length (List.filter (fun tr -> tr.t_parent <> None) t.traces) in
  if rtx > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "Retransmit lineage: %d traces link to an original transmission\n"
         rtx);
  Buffer.add_char buf '\n';

  (match stage_durations t with
  | [] -> Buffer.add_string buf "No multi-hop traces recorded.\n"
  | stages ->
    Buffer.add_string buf "Per-stage latency (hop-to-hop intervals, ns):\n";
    let rows =
      List.map
        (fun (stage, ds) ->
          let pct = Dsim.Stats.percentiles ds in
          [
            stage;
            string_of_int (Dsim.Stats.count ds);
            ns (pct 50.);
            ns (pct 90.);
            ns (pct 99.);
            ns (pct 99.9);
          ])
        stages
    in
    Buffer.add_string buf
      (Report.table
         ~header:[ "stage"; "intervals"; "p50"; "p90"; "p99"; "p99.9" ]
         ~rows);
    Buffer.add_char buf '\n');

  let gs = groups t in
  if gs <> [] then begin
    Buffer.add_string buf
      "End-to-end decomposition by flow (stage medians vs e2e median, ns):\n";
    let shown, elided =
      if List.length gs > 16 then
        (List.filteri (fun i _ -> i < 16) gs, List.length gs - 16)
      else (gs, 0)
    in
    let rows =
      List.map
        (fun g ->
          let delta_pct =
            if g.g_e2e_p50 = 0. then 0.
            else (g.g_stage_sum_p50 -. g.g_e2e_p50) /. g.g_e2e_p50 *. 100.
          in
          [
            g.g_flow;
            string_of_int g.g_traces;
            string_of_int g.g_retransmits;
            ns g.g_e2e_p50;
            ns g.g_stage_sum_p50;
            Printf.sprintf "%+.2f%%" delta_pct;
          ])
        shown
    in
    Buffer.add_string buf
      (Report.table
         ~header:[ "flow"; "traces"; "rtx"; "e2e p50"; "stage-sum p50"; "delta" ]
         ~rows);
    if elided > 0 then
      Buffer.add_string buf
        (Printf.sprintf "(%d smaller flow groups not shown)\n" elided);
    Buffer.add_char buf '\n'
  end;

  (match t.drops with
  | [] -> Buffer.add_string buf "Drop attribution: no drops recorded.\n"
  | drops ->
    Buffer.add_string buf "Drop attribution:\n";
    let rows =
      List.map
        (fun (stage, reason, count) -> [ stage; reason; string_of_int count ])
        (List.sort
           (fun (_, _, a) (_, _, b) -> compare b a)
           drops)
    in
    Buffer.add_string buf
      (Report.table ~header:[ "stage"; "reason"; "dropped" ] ~rows));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Time-series (--timeseries) summary                                   *)
(* ------------------------------------------------------------------ *)

let is_timeseries j =
  Option.is_some (Dsim.Json.member "interval_ns" j)
  && Option.is_some (Dsim.Json.member "rows" j)

let timeseries_summary j =
  if not (is_timeseries j) then
    Error "not a sampler time-series file (no interval_ns/rows)"
  else begin
    let rows =
      match Option.bind (Dsim.Json.member "rows" j) Dsim.Json.to_list with
      | Some l -> l
      | None -> []
    in
    let ival_ns =
      match Dsim.Json.member "interval_ns" j with
      | Some v -> Option.value ~default:0. (json_float v)
      | None -> 0.
    in
    let truncated =
      match Dsim.Json.member "truncated" j with
      | Some (Dsim.Json.Bool b) -> b
      | _ -> false
    in
    let dropped =
      match Option.bind (Dsim.Json.member "dropped_rows" j) json_int with
      | Some d -> d
      | None -> 0
    in
    let capacity =
      Option.bind (Dsim.Json.member "capacity" j) json_int
    in
    let span_ns =
      match (rows, List.rev rows) with
      | first :: _, last :: _ ->
        let at r =
          Option.value ~default:0.
            (Option.bind (Dsim.Json.member "at_ns" r) json_float)
        in
        at last -. at first
      | _ -> 0.
    in
    let series =
      match List.rev rows with
      | last :: _ -> (
        match Option.bind (Dsim.Json.member "metrics" last) Dsim.Json.to_list with
        | Some ms -> List.length ms
        | None -> 0)
      | [] -> 0
    in
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf
         "Time series: %d rows, %d series/row, interval %.3f ms, span %.3f ms\n"
         (List.length rows) series (ival_ns /. 1e6) (span_ns /. 1e6));
    (match capacity with
    | Some c -> Buffer.add_string buf (Printf.sprintf "Row capacity: %d\n" c)
    | None -> ());
    if truncated then
      Buffer.add_string buf
        (Printf.sprintf
           "WARNING: series TRUNCATED — %d snapshot(s) past capacity were \
            dropped; the recorded rows are a prefix of the run, not the \
            whole run.\n"
           dropped)
    else Buffer.add_string buf "No truncation: the series covers the run.\n";
    Ok (Buffer.contents buf)
  end
