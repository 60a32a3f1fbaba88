(* The benchmark's own tests: its order statistics, its golden diff, and
   the determinism its per-layer counts rely on. *)

let floats = Alcotest.(float 1e-12)

(* Expected values are Python's statistics.median / quantiles(n=4), the
   functions the benchmark's steadiness check uses. *)
let test_median () =
  Alcotest.check floats "odd" 2. (Bstats.median [ 3.; 1.; 2. ]);
  Alcotest.check floats "even" 2.5 (Bstats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check floats "one" 7. (Bstats.median [ 7. ])

let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Bstats.quartiles xs in
    Alcotest.check floats (name ^ " q1") a q1;
    Alcotest.check floats (name ^ " q2") b q2;
    Alcotest.check floats (name ^ " q3") c q3
  in
  check "1..5" [ 1.; 2.; 3.; 4.; 5. ] (1.5, 3., 4.5);
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "two" [ 3.; 1. ] (0.5, 2., 3.5);
  check "unsorted" [ 0.5; 0.25; 0.75; 1.; 2.; 8. ] (0.4375, 0.875, 3.5)

let test_supported_percentile () =
  let check n want =
    Alcotest.(check (option (float 0.))) (string_of_int n) want
      (Bstats.highest_supported_percentile n)
  in
  check 19 None;
  check 20 (Some 50.);
  check 99 (Some 50.);
  check 100 (Some 90.);
  check 999 (Some 90.);
  check 1000 (Some 99.);
  check 9999 (Some 99.);
  check 10000 (Some 99.9)

let test_golden_diff () =
  let want = [ ("flows", "10"); ("fct_p99_ns", "1.5") ] in
  Alcotest.(check (list string)) "equal" [] (Golden.diff ~what:"golden" want want);
  Alcotest.(check (list string))
    "names the field and both values"
    [ "flows = 11, golden has 10"; "extra = 1, absent from golden" ]
    (Golden.diff ~what:"golden" want [ ("flows", "11"); ("fct_p99_ns", "1.5"); ("extra", "1") ])

let test_to_ref () =
  let r = Calib.reference_unit_s in
  Alcotest.check floats "on the reference host" 2. (Calib.to_ref ~unit_s:r 2.);
  Alcotest.check floats "on a host twice as slow" 1. (Calib.to_ref ~unit_s:(2. *. r) 2.);
  let u = Calib.unit_s () in
  Alcotest.(check bool) "a unit takes some CPU time" true (Float.is_finite u && u > 0.)

(* Short horizons: the property is per seed, not per run length. *)
let short (w : Workload.t) =
  {
    Workload.warmup = Dsim.Time.ms 2;
    window = (if w.Workload.name = "fleet-churn-64" then Dsim.Time.ms 20 else Dsim.Time.ms 10);
  }

let counts (r : Workload.rep) =
  List.filter_map
    (fun (l : Workload.layer) ->
      if l.Workload.l_count then Some (l.Workload.l_name, l.Workload.l_value) else None)
    r.Workload.layers

let test_determinism (w : Workload.t) () =
  let run () = w.Workload.run ~trace:true ~horizon:(short w) ~seed:42 in
  let a = run () and b = run () in
  Alcotest.(check bool) "per-layer counts reported" true (counts a <> []);
  Alcotest.(check (list (pair string (float 0.)))) "per-layer counts" (counts a) (counts b);
  Alcotest.(check (list (pair string string))) "virtual-time outputs" a.Workload.outputs
    b.Workload.outputs;
  Alcotest.(check (list string)) "gate verdicts" a.Workload.gate_failures b.Workload.gate_failures

let test_trace_invisible (w : Workload.t) () =
  let run trace = w.Workload.run ~trace ~horizon:(short w) ~seed:7 in
  Alcotest.(check (list (pair string string)))
    "outputs with tracing on and off" (run false).Workload.outputs (run true).Workload.outputs

let () =
  Alcotest.run "perfbench"
    [
      ( "bstats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python's exclusive method" `Quick test_quartiles;
          Alcotest.test_case "highest percentile with 10 samples beyond" `Quick
            test_supported_percentile;
        ] );
      ("golden", [ Alcotest.test_case "diff names field and values" `Quick test_golden_diff ]);
      ("calib", [ Alcotest.test_case "host seconds to reference seconds" `Quick test_to_ref ]);
      ( "determinism",
        List.concat_map
          (fun (w : Workload.t) ->
            [
              Alcotest.test_case (w.Workload.name ^ " twice in-process") `Quick (test_determinism w);
              Alcotest.test_case (w.Workload.name ^ " traced = untraced") `Quick
                (test_trace_invisible w);
            ])
          Workload.all );
    ]
