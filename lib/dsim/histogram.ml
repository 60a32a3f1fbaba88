type t = {
  lo : float;
  ratio : float;
  log_ratio : float;
  counts : int array;
  mutable total : int;
}

let create ?(lo = 1.0) ?(ratio = 2.0) ?(buckets = 40) () =
  if lo <= 0. || ratio <= 1. || buckets < 1 then
    invalid_arg "Histogram.create: need lo > 0, ratio > 1, buckets >= 1";
  { lo; ratio; log_ratio = log ratio; counts = Array.make buckets 0; total = 0 }

let bucket_of t v =
  if v < t.lo then 0
  else begin
    let i = int_of_float (Float.floor (log (v /. t.lo) /. t.log_ratio)) in
    min i (Array.length t.counts - 1)
  end

let add t v =
  let i = bucket_of t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let add_stats t s =
  Array.iter (add t) (Stats.to_array s);
  t

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0

let count t = t.total
let bucket_count t = Array.length t.counts

let bucket_range t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Histogram.bucket_range: bad index";
  (t.lo *. (t.ratio ** float_of_int i), t.lo *. (t.ratio ** float_of_int (i + 1)))

let bucket_value t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Histogram.bucket_value: bad index";
  t.counts.(i)

let nonempty_buckets t =
  let out = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then begin
      let lo, hi = bucket_range t i in
      out := (i, lo, hi, t.counts.(i)) :: !out
    end
  done;
  !out

let percentile t p =
  if t.total = 0 then 0.
  else begin
    let target =
      Float.max 1.
        (Float.of_int t.total *. Float.min 100. (Float.max 0. p) /. 100.)
    in
    let last = Array.length t.counts - 1 in
    let rec walk i cum =
      if i > last then fst (bucket_range t last)
      else begin
        let c = t.counts.(i) in
        if Float.of_int (cum + c) >= target && c > 0 then begin
          (* Geometric interpolation inside the bucket, matching the
             log-spaced ladder. *)
          let frac = (target -. Float.of_int cum) /. Float.of_int c in
          let lo, hi = bucket_range t i in
          let lo = Float.max t.lo lo in
          (* The last bucket is open-ended: cap it one ratio above its
             floor. *)
          let hi = if i = last then lo *. t.ratio else hi in
          lo *. ((hi /. lo) ** frac)
        end
        else walk (i + 1) (cum + c)
      end
    in
    walk 0 0
  end

let human v =
  if v < 1e3 then Printf.sprintf "%.0fns" v
  else if v < 1e6 then Printf.sprintf "%.1fus" (v /. 1e3)
  else if v < 1e9 then Printf.sprintf "%.1fms" (v /. 1e6)
  else Printf.sprintf "%.2fs" (v /. 1e9)

let render ?(width = 50) t =
  let rows = nonempty_buckets t in
  match rows with
  | [] -> "(empty histogram)"
  | _ ->
    let peak = List.fold_left (fun m (_, _, _, c) -> max m c) 1 rows in
    let line (_, lo, hi, c) =
      let bar = max 1 (c * width / peak) in
      Printf.sprintf "%9s - %-9s %-*s %d" (human lo) (human hi) width
        (String.make bar '#') c
    in
    String.concat "\n" (List.map line rows)
