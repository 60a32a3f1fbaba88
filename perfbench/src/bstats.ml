(* Order statistics for the benchmark's reports.

   Quartiles use the "exclusive" method of Python's
   [statistics.quantiles] (the default), because the benchmark's
   steadiness check reads run-to-run spread with that function; the
   library's [Dsim.Stats.percentile] interpolates between closest ranks
   and would disagree on small samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [q1, median, q3]. One sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstats.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* The percentile ladder, each with [per]: one sample in [per] lies
   beyond it (one in a hundred beyond p99). *)
let ladder = [ (99.9, 1000); (99., 100); (90., 10); (50., 2) ]

(* The highest percentile of [n] samples that has at least ten samples
   beyond it, or [None] when even the median has fewer. *)
let highest_supported_percentile n =
  List.find_map (fun (p, per) -> if n >= 10 * per then Some p else None) ladder
