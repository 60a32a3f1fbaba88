(* Golden records of the workloads' virtual-time outputs.

   The outputs are a pure function of (workload, horizon, seed), so a
   change that only speeds the simulator up must leave them identical.
   The record file holds, per workload, the horizon it was made at and
   one object of outputs per recorded seed:

     {"default_seed": 42, "held_out_seed": 4242,
      "goldens": {"s1-dual-recv": {"horizon": "100ms+200ms",
                                   "seeds": {"42": {"crossings": "0", ...}}}}}

   Values are strings, floats in round-trip ["%.17g"] form, so equality
   is exact. *)

type outputs = (string * string) list

let horizon_label (h : Workload.horizon) =
  Printf.sprintf "%gms+%gms"
    (Dsim.Time.to_float_ms h.Workload.warmup)
    (Dsim.Time.to_float_ms h.Workload.window)

let strings fields =
  List.map
    (fun (k, v) ->
      match v with
      | Dsim.Json.String s -> (k, s)
      | _ -> failwith ("golden field " ^ k ^ " is not a string"))
    fields

(* The recorded outputs of [w] at [seed], [None] when that seed has no
   record. A record made at another horizon cannot be compared, and is an
   error rather than a silent pass. *)
let lookup json (w : Workload.t) ~seed =
  let ( >>= ) = Option.bind in
  match Dsim.Json.member "goldens" json >>= Dsim.Json.member w.Workload.name with
  | None -> Ok None
  | Some g -> (
    let want = horizon_label w.Workload.horizon in
    match Dsim.Json.member "horizon" g with
    | Some (Dsim.Json.String h) when h = want -> (
      match Dsim.Json.member "seeds" g >>= Dsim.Json.member (string_of_int seed) with
      | Some (Dsim.Json.Obj fields) -> Ok (Some (strings fields))
      | _ -> Ok None)
    | _ ->
      Error
        (Printf.sprintf "goldens for %s were not recorded at the run's horizon %s"
           w.Workload.name want))

(* Every difference of [got] from [want], naming the field and both
   values. *)
let diff ~what (want : outputs) (got : outputs) =
  let changed =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k got with
        | Some v' when v' = v -> None
        | Some v' -> Some (Printf.sprintf "%s = %s, %s has %s" k v' what v)
        | None -> Some (Printf.sprintf "%s missing, %s has %s" k what v))
      want
  in
  let extra =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k want then None
        else Some (Printf.sprintf "%s = %s, absent from %s" k v what))
      got
  in
  changed @ extra

let to_json (w : Workload.t) ~seed (o : outputs) =
  Dsim.Json.Obj
    [
      ("workload", Dsim.Json.String w.Workload.name);
      ("horizon", Dsim.Json.String (horizon_label w.Workload.horizon));
      ("seed", Dsim.Json.Int seed);
      ("outputs", Dsim.Json.Obj (List.map (fun (k, v) -> (k, Dsim.Json.String v)) o));
    ]
