module Prng = P2plb_prng.Prng
module Id = P2plb_idspace.Id
module Graph = P2plb_topology.Graph
module Hilbert = P2plb_hilbert.Hilbert

type space = {
  landmark_vertices : int array;
  dists : int array array; (* dists.(l).(v): landmark l -> vertex v *)
  d_max : int;
  sorted_dists : int array array; (* per landmark, distances sorted asc *)
}

type binning = Equal_width | Quantile

let select_random rng g ~m =
  if m < 1 then invalid_arg "Landmark.select_random: m < 1";
  Prng.sample_distinct rng ~n:m ~universe:(Graph.n_vertices g)

let make_space oracle ~landmarks =
  if Array.length landmarks = 0 then invalid_arg "Landmark.make_space: no landmarks";
  let n = Graph.Oracle.n_vertices oracle in
  let dists =
    Array.map
      (fun l -> Array.init n (fun v -> Graph.Oracle.distance oracle ~src:l ~dst:v))
      landmarks
  in
  let d_max =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc d -> if d <> max_int && d > acc then d else acc) acc row)
      0 dists
  in
  let sorted_dists =
    Array.map
      (fun row ->
        let s = Array.copy row in
        Array.stable_sort Int.compare s;
        s)
      dists
  in
  { landmark_vertices = Array.copy landmarks; dists; d_max; sorted_dists }

let m s = Array.length s.landmark_vertices
let landmarks s = Array.copy s.landmark_vertices
let max_distance s = s.d_max

let vector s v = Array.map (fun row -> row.(v)) s.dists

(* Rank of [d] within the sorted per-axis distances, as a cell index:
   boundaries sit at the axis's quantiles. *)
let quantile_cell sorted_row cells d =
  let n = Array.length sorted_row in
  (* count entries < d by binary search *)
  let rec lower lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sorted_row.(mid) < d then lower (mid + 1) hi else lower lo mid
  in
  let rank = lower 0 n in
  Int.min (cells - 1) (rank * cells / n)

let grid_coords ?(binning = Equal_width) ?(failed = []) s ~order v =
  if order < 1 then invalid_arg "Landmark.grid_coords: order < 1";
  let cells = 1 lsl order in
  let coords =
    match binning with
    | Equal_width ->
      let scale d =
        let d = if d = max_int then s.d_max else d in
        Int.min (cells - 1) (d * cells / (s.d_max + 1))
      in
      Array.map (fun row -> scale row.(v)) s.dists
    | Quantile ->
      Array.mapi
        (fun l row -> quantile_cell s.sorted_dists.(l) cells row.(v))
        s.dists
  in
  (* A failed landmark answers no probes: every node reads the axis as
     maximal distance, collapsing it to a constant (it carries no
     proximity information but perturbs no other axis). *)
  List.iter
    (fun l -> if l >= 0 && l < Array.length coords then coords.(l) <- cells - 1)
    failed;
  coords

let hilbert_number ?(curve = Hilbert.Hilbert) ?binning ?failed s ~order v =
  let coords = grid_coords ?binning ?failed s ~order v in
  Hilbert.encode_curve curve ~dims:(m s) ~order coords

let dht_key ?(curve = Hilbert.Hilbert) ?binning ?failed s ~order v =
  let idx = hilbert_number ~curve ?binning ?failed s ~order v in
  let bits = m s * order in
  if bits >= Id.bits then Id.of_int (idx lsr (bits - Id.bits))
  else Id.of_int (idx lsl (Id.bits - bits))
