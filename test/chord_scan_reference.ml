(* The scanning Chord lookup, retained as the reference for the
   one-probe finger choice in lib/chord/dht.ml.

   From VS [cur], the closest preceding finger of [key] is the largest
   successor(cur + 2^k) lying strictly inside (cur, key); this version
   finds it by probing k = 31, 30, ... until one qualifies, a binary
   search per probe.  The production lookup's contract is that it
   reaches the same owner in the same number of hops for every source
   and key; test_chord checks both on random and edge-case rings.  The
   routing loop is the production one, run over the sorted ids read
   through [Dht.fold_vs]. *)

module Id = P2plb_idspace.Id
module Dht = P2plb_chord.Dht

(* The ring's VS ids, ascending. *)
let ring_ids dht =
  Array.of_list
    (List.rev (Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v.Dht.vs_id :: acc)))

(* Index of the first id >= k, or the length if none. *)
let lower_bound ids k =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ids.(mid) >= k then hi := mid else lo := mid + 1
  done;
  !lo

(* successor(k): first id >= k, wrapping to the smallest. *)
let successor_idx ids k =
  let i = lower_bound ids k in
  if i = Array.length ids then 0 else i

let closest_preceding_finger ids ~cur ~key =
  let best = ref (-1) in
  let k = ref (Id.bits - 1) in
  while !best < 0 && !k >= 0 do
    let target = Id.add cur (1 lsl !k) in
    let fid = ids.(successor_idx ids target) in
    if Id.in_range_excl_excl fid ~lo:cur ~hi:key then best := fid;
    decr k
  done;
  !best

(* [(owner id, hops)] of routing from the VS [from] to [key]. *)
let lookup dht ~from ~key =
  let ids = ring_ids dht in
  let n = Array.length ids in
  let pred_from = ids.((lower_bound ids from + n - 1) mod n) in
  if Id.in_range_excl_incl key ~lo:pred_from ~hi:from
     && (pred_from <> from || key = from)
  then (from, 0)
  else if pred_from = from then (from, 0)
  else begin
    let hops = ref 0 in
    let cur = ref from in
    let result = ref (-1) in
    while !result < 0 do
      let succ_id = ids.(successor_idx ids (!cur + 1)) in
      if Id.in_range_excl_incl key ~lo:!cur ~hi:succ_id then begin
        incr hops;
        result := succ_id
      end
      else begin
        let next = closest_preceding_finger ids ~cur:!cur ~key in
        incr hops;
        cur := if next >= 0 then next else succ_id
      end
    done;
    (!result, !hops)
  end
