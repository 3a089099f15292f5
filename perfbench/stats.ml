let sorted xs =
  if xs = [] then invalid_arg "Stats: no samples";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles, method="exclusive": m = n + 1, and the i-th
   cut point sits at position i*m/4 (1-based) between order
   statistics, linearly interpolated. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
      (* computed after the clamp, as Python does: it may fall outside
         0..4 and then extrapolates *)
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)

type tail = { pct : float; value : float; beyond : int; n : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let at pct =
    (* nearest rank: the smallest value with at least pct% of the
       samples at or below it *)
    let exact = pct *. float_of_int n /. 100.0 in
    (* the epsilon keeps 99.9 * 1000 / 100 at rank 999 *)
    let rank = Int.max 1 (int_of_float (Float.ceil (exact -. 1e-9))) in
    { pct; value = a.(rank - 1); beyond = n - rank; n }
  in
  List.find_map
    (fun pct ->
      let t = at pct in
      if t.beyond >= 10 then Some t else None)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]
