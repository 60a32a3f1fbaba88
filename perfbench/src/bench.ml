(* The repo benchmark's measuring program.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe record --seeds N,N,...

   The first form repeats the workload (build, then run to its fixed
   virtual-time horizon) until [S] host seconds are used, at least
   [min_reps] times, with a calibration unit ([Calib]) before the first
   repetition and after each, and prints a report whose last line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. Untraced, the
   metrics are the end-to-end ones. Traced, repetitions alternate
   untraced and traced and the metrics are the per-layer ones. A
   repetition fails when it raises, when a gate of the program fails,
   when a virtual-time output differs from the first repetition's, or
   when the seed has a golden record and an output differs from it.

   The second form rewrites the golden file with every workload's
   outputs at the given seeds. Both run from the root of the repo, where
   the golden file's path is relative to. *)

let min_reps = 3
let goldens = "perfbench/goldens.json"

(* The seed routine runs use, and the one kept back to confirm a claimed
   gain on inputs the change was not tuned on. *)
let default_seed = 42
let held_out_seed = 4242

type outcome = {
  traced : bool;
  result : (Workload.rep, string) result;
  unit_s : float;  (** Mean time of the calibration units either side. *)
}

let host_stamp ~workload ~seed ~trace =
  Dsim.Json.Obj
    [
      ("host_cores", Dsim.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Dsim.Json.String Sys.ocaml_version);
      ("executor", Dsim.Json.String "interleaved");
      ("shards", Dsim.Json.Int 1);
      ("workload", Dsim.Json.String workload);
      ("seed", Dsim.Json.Int seed);
      ("trace", Dsim.Json.Bool trace);
    ]

let find_workload name =
  match Workload.find name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %s (known: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
    exit 2

(* ------------------------------------------------------------------ *)
(* Measuring                                                            *)
(* ------------------------------------------------------------------ *)

let repeat (w : Workload.t) ~trace ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let rec go acc n before =
    let elapsed = Unix.gettimeofday () -. t0 in
    let next_fits = n = 0 || elapsed +. (elapsed /. float_of_int n) <= seconds in
    if n >= min_reps && not next_fits then List.rev acc
    else
      let traced = trace && n mod 2 = 1 in
      let result =
        try Ok (w.Workload.run ~trace:traced ~horizon:w.Workload.horizon ~seed)
        with e -> Error (Printexc.to_string e)
      in
      let after = Calib.unit_s () in
      go ({ traced; result; unit_s = (before +. after) /. 2. } :: acc) (n + 1) after
  in
  go [] 0 (Calib.unit_s ())

(* Per repetition: [None] when it passes, else why it failed. *)
let verdicts ~golden outcomes =
  let first = List.find_map (fun o -> Result.to_option o.result) outcomes in
  List.map
    (fun o ->
      match o.result with
      | Error e -> Some [ "raised " ^ e ]
      | Ok r -> (
        let vs what = function
          | Some want -> Golden.diff ~what want r.Workload.outputs
          | None -> []
        in
        let first_outputs = Option.map (fun f -> f.Workload.outputs) first in
        match
          r.Workload.gate_failures @ vs "the golden record" golden
          @ vs "the first repetition" first_outputs
        with
        | [] -> None
        | why -> Some why))
    outcomes

let rate (r : Workload.rep) = r.Workload.sim_s /. r.Workload.wall_s

(* A repetition paired with the calibration unit measured next to it,
   whose host CPU times it turns into reference seconds. *)
let ref_s ((r : Workload.rep), unit_s) = Calib.to_ref ~unit_s r.Workload.cpu_s
let ref_setup_s ((r : Workload.rep), unit_s) = Calib.to_ref ~unit_s r.Workload.setup_cpu_s
let ref_rate ((r : Workload.rep), unit_s) = r.Workload.sim_s /. ref_s (r, unit_s)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* (name, unit, samples): the reported value is the samples' median. *)
let end_to_end ~plain ~all =
  [
    ("sim_s_per_ref_s", "s/s", List.map ref_rate plain);
    ( "minor_words_per_pkt",
      "words/pkt",
      List.map
        (fun ((r : Workload.rep), _) ->
          r.Workload.minor_words /. float_of_int (max 1 r.Workload.packets))
        plain );
    ("peak_heap_mb", "MB", [ peak_heap_mb () ]);
    ("setup_s", "s", List.map ref_setup_s all);
    ( "sim_goodput_mbit",
      "Mbit/s",
      List.map (fun ((r : Workload.rep), _) -> r.Workload.goodput_mbit) all );
  ]

let per_layer ~plain ~traced =
  match List.map fst traced with
  | [] -> []
  | (first : Workload.rep) :: _ as traced ->
    let samples name =
      List.map
        (fun (r : Workload.rep) ->
          (List.find (fun (l : Workload.layer) -> l.Workload.l_name = name) r.Workload.layers)
            .Workload.l_value)
        traced
    in
    let median_rate reps = Bstats.median (List.map rate reps) in
    let overhead = 100. *. ((median_rate (List.map fst plain) /. median_rate traced) -. 1.) in
    List.map
      (fun (l : Workload.layer) -> (l.Workload.l_name, l.Workload.l_unit, samples l.Workload.l_name))
      first.Workload.layers
    @ [ ("trace.overhead_pct", "%", [ overhead ]) ]

let run_bench ~workload ~seed ~seconds ~trace =
  let w = find_workload workload in
  let golden =
    match Golden.lookup (Dsim.Json.parse (In_channel.with_open_bin goldens In_channel.input_all)) w ~seed with
    | Ok g -> g
    | Error e ->
      prerr_endline e;
      exit 2
  in
  Core.Shardcfg.configure ~shards:1 ~domains:false;
  Printf.printf "perfbench host %s\n"
    (Dsim.Json.to_string (host_stamp ~workload ~seed ~trace));
  Printf.printf "perfbench %s: horizon %s (virtual warmup+window), golden record: %s\n%!"
    workload
    (Golden.horizon_label w.Workload.horizon)
    (if golden = None then "none for this seed" else "yes");
  let outcomes = repeat w ~trace ~seed ~seconds in
  let judged = List.combine outcomes (verdicts ~golden outcomes) in
  List.iteri
    (fun i (o, v) ->
      let tag = if o.traced then "traced" else "untraced" in
      match (o.result, v) with
      | Ok r, None ->
        Printf.printf
          "rep %d %s: setup %.4f s, window %.3f s wall %.3f s cpu %.3f s ref, unit %.4f s, %.4f s/ref s, %d pkts\n"
          (i + 1) tag r.Workload.setup_s r.Workload.wall_s r.Workload.cpu_s (ref_s (r, o.unit_s))
          o.unit_s (ref_rate (r, o.unit_s)) r.Workload.packets
      | _, Some why ->
        Printf.printf "rep %d %s FAILED: %s\n" (i + 1) tag (String.concat "; " why)
      | Error _, None -> assert false)
    judged;
  let ok =
    List.filter_map
      (fun (o, v) ->
        match (o.result, v) with Ok r, None -> Some (o.traced, (r, o.unit_s)) | _ -> None)
      judged
  in
  let plain = List.filter_map (fun (t, r) -> if t then None else Some r) ok in
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) ok in
  (match ok with
  | (_, (r, _)) :: _ ->
    Printf.printf "virtual-time outputs:\n";
    List.iter (fun (k, v) -> Printf.printf "  %s = %s\n" k v) r.Workload.outputs
  | [] -> ());
  let failed = List.length (List.filter (fun (_, v) -> v <> None) judged) in
  let rows =
    match (plain, traced, trace) with
    | [], _, _ -> []
    | _, _, false -> end_to_end ~plain ~all:(List.map snd ok)
    | _, _, true -> per_layer ~plain ~traced
  in
  Printf.printf "%s metrics, median (q1, q3, samples):\n"
    (if trace then "per-layer" else "end-to-end");
  List.iter
    (fun (name, unit, xs) ->
      let q1, med, q3 = Bstats.quartiles xs in
      Printf.printf "  %-40s %14.6g %-10s (%.6g, %.6g, %d)\n" name med unit q1 q3
        (List.length xs))
    rows;
  (* Values carry every digit of the double ("%.17g"), which the
     library's JSON emitter would round to twelve. *)
  let q s = Dsim.Json.to_string (Dsim.Json.String s) in
  let metric (name, unit, xs) =
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (q name) (Bstats.median xs) (q unit)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && rows <> [])
    (List.length outcomes) failed
    (String.concat ", " (List.map metric rows))

(* One line per recorded seed, so a re-recording diffs by seed. *)
let record ~seeds =
  let q s = Dsim.Json.to_string (Dsim.Json.String s) in
  let per_workload (w : Workload.t) =
    let lines =
      List.map
        (fun seed ->
          let r = w.Workload.run ~trace:false ~horizon:w.Workload.horizon ~seed in
          Printf.printf "%s\n%!" (Dsim.Json.to_string (Golden.to_json w ~seed r.Workload.outputs));
          Printf.sprintf "      %s: %s" (q (string_of_int seed))
            (Dsim.Json.to_string
               (Dsim.Json.Obj (List.map (fun (k, v) -> (k, Dsim.Json.String v)) r.Workload.outputs))))
        seeds
    in
    Printf.sprintf "    %s: {\n      \"horizon\": %s,\n      \"seeds\": {\n%s\n      }\n    }"
      (q w.Workload.name)
      (q (Golden.horizon_label w.Workload.horizon))
      (String.concat ",\n" (List.map (fun l -> "  " ^ l) lines))
  in
  let text =
    Printf.sprintf
      "{\n  \"default_seed\": %d,\n  \"held_out_seed\": %d,\n  \"goldens\": {\n%s\n  }\n}\n"
      default_seed held_out_seed
      (String.concat ",\n" (List.map per_workload Workload.all))
  in
  ignore (Dsim.Json.parse text);
  Out_channel.with_open_bin goldens (fun oc -> output_string oc text)

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       bench.exe record --seeds N,N,...";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let recording, args = match args with "record" :: rest -> (true, rest) | _ -> (false, args) in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let known = if recording then [ "seeds" ] else [ "workload"; "seed"; "seconds"; "trace" ] in
  if List.exists (fun (k, _) -> not (List.mem k known)) o then usage ();
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int s = match int_of_string_opt s with Some i -> i | None -> usage () in
  if recording then
    record ~seeds:(List.map int (String.split_on_char ',' (get "seeds")))
  else
    let seconds = float_of_int (int (get "seconds")) in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    run_bench ~workload:(get "workload") ~seed:(int (get "seed")) ~seconds ~trace
