let total xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  total xs /. float_of_int (Array.length xs)

let stddev xs =
  let m = mean xs in
  let sq = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
  sqrt (sq /. float_of_int (Array.length xs))

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let median xs = percentile xs 50.0

let gini xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.gini: empty";
  Array.iter (fun x -> if x < 0.0 then invalid_arg "Stats.gini: negative") xs;
  let s = total xs in
  if not (s > 0.0) then invalid_arg "Stats.gini: zero total";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  (* G = (2 * sum_i i*x_(i) ) / (n * sum x) - (n + 1) / n, i from 1. *)
  let weighted = ref 0.0 in
  for i = 0 to n - 1 do
    weighted := !weighted +. (float_of_int (i + 1) *. sorted.(i))
  done;
  (2.0 *. !weighted /. (float_of_int n *. s))
  -. ((float_of_int n +. 1.0) /. float_of_int n)
