type t = { mutable data : float array; mutable len : int }

let create ?(capacity = 64) () = { data = Array.make (max 1 capacity) 0.; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let ndata = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len
let is_empty t = t.len = 0
let to_array t = Array.sub t.data 0 t.len

let mean t =
  if t.len = 0 then 0.
  else begin
    let s = ref 0. in
    for i = 0 to t.len - 1 do s := !s +. t.data.(i) done;
    !s /. float_of_int t.len
  end

let stddev t =
  if t.len < 2 then 0.
  else begin
    let m = mean t in
    let s = ref 0. in
    for i = 0 to t.len - 1 do
      let d = t.data.(i) -. m in
      s := !s +. (d *. d)
    done;
    sqrt (!s /. float_of_int (t.len - 1))
  end

let fold_all f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do acc := f !acc t.data.(i) done;
  !acc

let minimum t =
  if t.len = 0 then 0. else fold_all Float.min t.data.(0) t

let maximum t =
  if t.len = 0 then 0. else fold_all Float.max t.data.(0) t

let sorted t =
  let a = to_array t in
  Array.sort Float.compare a;
  a

let percentile_of_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty buffer";
  if p <= 0. then a.(0)
  else if p >= 100. then a.(n - 1)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let percentile t p = percentile_of_sorted (sorted t) p

let percentiles t =
  if t.len = 0 then fun _ -> 0.
  else begin
    let a = sorted t in
    fun p -> percentile_of_sorted a p
  end
let median t = percentile t 50.

type boxplot = {
  q1 : float;
  median : float;
  q3 : float;
  whisker_low : float;
  whisker_high : float;
  mean : float;
  stddev : float;
  n : int;
  outliers : int;
}

let boxplot t =
  let a = sorted t in
  let q1 = percentile_of_sorted a 25. in
  let q3 = percentile_of_sorted a 75. in
  let med = percentile_of_sorted a 50. in
  let iqr = q3 -. q1 in
  let lo_bound = q1 -. (1.5 *. iqr) and hi_bound = q3 +. (1.5 *. iqr) in
  let whisker_low = ref a.(Array.length a - 1)
  and whisker_high = ref a.(0)
  and outliers = ref 0 in
  Array.iter
    (fun x ->
      if x < lo_bound || x > hi_bound then incr outliers
      else begin
        if x < !whisker_low then whisker_low := x;
        if x > !whisker_high then whisker_high := x
      end)
    a;
  {
    q1;
    median = med;
    q3;
    whisker_low = !whisker_low;
    whisker_high = !whisker_high;
    mean = mean t;
    stddev = stddev t;
    n = t.len;
    outliers = !outliers;
  }

let iqr_filter ?(k = 1.5) t =
  let a = sorted t in
  if Array.length a = 0 then create ()
  else begin
    let q1 = percentile_of_sorted a 25. in
    let q3 = percentile_of_sorted a 75. in
    let iqr = q3 -. q1 in
    let lo = q1 -. (k *. iqr) and hi = q3 +. (k *. iqr) in
    let out = create ~capacity:t.len () in
    for i = 0 to t.len - 1 do
      let x = t.data.(i) in
      if x >= lo && x <= hi then add out x
    done;
    out
  end

let pp_boxplot fmt b =
  Format.fprintf fmt
    "n=%d mean=%.1f sd=%.1f [%.1f | %.1f %.1f %.1f | %.1f] outliers=%d"
    b.n b.mean b.stddev b.whisker_low b.q1 b.median b.q3 b.whisker_high
    b.outliers
