(* The host's speed, measured with a fixed unit of work.

   Host speed on a shared machine drifts by tens of percent over minutes:
   the clock rate follows the load on the other cores, and neighbours
   compete for the caches and for memory. A repetition's host time is
   therefore divided by the time this unit took next to it, which turns
   host seconds into reference seconds. The unit is fixed, independent
   of the simulator, and has the simulator's two kinds of host work:
   branchy, allocating OCaml code on a working set that fits in the
   caches, and dependent loads from a working set far larger than them. Both parts are timed in CPU time, like the repetitions, so time
   the process spends descheduled or stolen by the hypervisor does not
   count. *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Pushes and pops on a binary heap of 2^15 ints (256 KB, within a
   core's L2), the engine's event queue in miniature. Each
   step also allocates a short-lived pair, which dies in the minor heap
   and so leaves the major heap alone. *)
let slots = 1 lsl 15

let compute () =
  let h = Array.make slots 0 and n = ref 0 in
  let swap i j =
    let t = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- t
  in
  let push v =
    h.(!n) <- v;
    let i = ref !n in
    incr n;
    while !i > 0 && h.((!i - 1) / 2) > h.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = h.(0) in
    decr n;
    h.(0) <- h.(!n);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !n && h.(l + 1) < h.(l) then l + 1 else l in
      if c < !n && h.(c) < h.(!i) then (swap !i c; i := c) else continue := false
    done;
    top
  in
  let x = ref 88172645463325252 and s = ref 0 in
  for _ = 1 to 2_000_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let pair = Sys.opaque_identity (v, !s) in
    if !n < slots - 1 && (!n < slots / 2 || v land 1 = 0) then push ((fst pair lsr 3) + !s)
    else s := !s + pop ()
  done;
  !s

(* One cycle through 2^23 cells (64 MB, outside the OCaml heap, so the
   benchmark's heap metrics do not see it), built once per process. *)
let cells = 1 lsl 23

let cycle =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cells in
     for i = 0 to cells - 1 do
       a.{i} <- i
     done;
     (* Sattolo's shuffle: a random permutation that is a single cycle. *)
     let x = ref 12345 in
     for i = cells - 1 downto 1 do
       x := ((!x * 1103515245) + 12345) land max_int;
       let j = (!x lsr 17) mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let memory () =
  let a = Lazy.force cycle in
  let j = ref 0 in
  for _ = 1 to 300_000 do
    j := a.{!j}
  done;
  !j

(* CPU seconds one unit took on this host. The first call also builds
   the cycle, outside the timing. *)
let unit_s () =
  ignore (Lazy.force cycle);
  let t0 = cpu_now () in
  ignore (Sys.opaque_identity (compute ()));
  ignore (Sys.opaque_identity (memory ()));
  cpu_now () -. t0

(* The unit's CPU time on the host the benchmark was defined on, a 2-core
   Firecracker VM on an Intel Xeon (Sapphire Rapids). One reference
   second is the host time in which the unit would take this long. *)
let reference_unit_s = 0.18

(* [host_s] host seconds, measured next to a unit that took [unit_s], in
   reference seconds. *)
let to_ref ~unit_s host_s = host_s *. reference_unit_s /. unit_s
