let ones_complement_sum ?(init = 0) b ~off ~len =
  let sum = ref init in
  let i = ref off in
  let last = off + len in
  while !i + 1 < last do
    sum := !sum + (Char.code (Bytes.get b !i) lsl 8) + Char.code (Bytes.get b (!i + 1));
    i := !i + 2
  done;
  if !i < last then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  !sum

let finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let compute ?init b ~off ~len = finish (ones_complement_sum ?init b ~off ~len)

let valid ?init b ~off ~len = compute ?init b ~off ~len = 0

