(* The key-value store the DHT once kept for proximity-aware VSA
   publications, retained as the reference for Vsa.deliver_published.
   [put] prepends a record to those stored under its key; a VS hands
   on what landed in its region by folding the stored keys clockwise
   from the region's start and prepending every record; the VSs report
   in ring order. *)

module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht
module Leaf_reports = P2plb_ktree.Leaf_reports
module M = Map.Make (Int)

let put m key r =
  M.update key (fun rs -> Some (r :: Option.value rs ~default:[])) m

(* Keys in [lo, hi), ascending, prepended onto [acc]. *)
let fold_keys m ~lo ~hi acc =
  M.fold
    (fun k rs acc ->
      if k >= lo && k < hi then List.fold_left (fun acc r -> r :: acc) acc rs
      else acc)
    m acc

let items_in_region m region =
  let start = Region.start region in
  let hi = start + Region.len region in
  if hi <= Id.space_size then fold_keys m ~lo:start ~hi []
  else
    fold_keys m ~lo:0 ~hi:(hi - Id.space_size)
      (fold_keys m ~lo:start ~hi:Id.space_size [])

let deliver dht ~slot_of_vs published reports =
  let m = List.fold_left (fun m (key, r) -> put m key r) M.empty published in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      let slot = slot_of_vs v.Dht.vs_id in
      if slot >= 0 then
        List.iter
          (Leaf_reports.push reports slot)
          (items_in_region m (Dht.region_of_vs dht v)))
