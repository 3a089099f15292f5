let normal t ~mean ~stddev =
  if stddev < 0.0 then invalid_arg "Dist.normal: stddev < 0";
  (* Box–Muller; we only need one of the pair, simplicity over speed. *)
  let rec nonzero () =
    let u = Prng.unit_float t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = Prng.unit_float t in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))

let normal_pos t ~mean ~stddev =
  if mean < 0.0 then invalid_arg "Dist.normal_pos: mean < 0";
  let rec go attempts =
    let x = normal t ~mean ~stddev in
    if x >= 0.0 then x
    else if attempts > 1000 then 0.0 (* pathological stddev/mean ratio *)
    else go (attempts + 1)
  in
  go 0

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Dist.exponential: mean <= 0";
  let rec nonzero () =
    let u = Prng.unit_float t in
    if u > 0.0 then u else nonzero ()
  in
  -.mean *. log (nonzero ())

let pareto t ~shape ~scale =
  if shape <= 0.0 then invalid_arg "Dist.pareto: shape <= 0";
  if scale <= 0.0 then invalid_arg "Dist.pareto: scale <= 0";
  let rec nonzero () =
    let u = Prng.unit_float t in
    if u > 0.0 then u else nonzero ()
  in
  scale /. (nonzero () ** (1.0 /. shape))

let pareto_mean t ~shape ~mean =
  if shape <= 1.0 then invalid_arg "Dist.pareto_mean: shape <= 1";
  let scale = mean *. (shape -. 1.0) /. shape in
  pareto t ~shape ~scale

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n <= 0";
  (* Inverse transform over the exact (unnormalised) CDF by linear
     scan.  Draws are O(expected rank); fine for skewed workloads where
     small ranks dominate. *)
  let total = ref 0.0 in
  for k = 1 to n do
    total := !total +. (1.0 /. (float_of_int k ** s))
  done;
  let u = Prng.unit_float t *. !total in
  let rec scan k acc =
    if k > n then n
    else
      let acc = acc +. (1.0 /. (float_of_int k ** s)) in
      if u <= acc then k else scan (k + 1) acc
  in
  scan 1 0.0

let weighted_index t w =
  let sum = Array.fold_left ( +. ) 0.0 w in
  if not (sum > 0.0) then invalid_arg "Dist.weighted_index: weight sum <= 0";
  Array.iter
    (fun x -> if x < 0.0 then invalid_arg "Dist.weighted_index: negative weight")
    w;
  let u = Prng.float t sum in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if u < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let dirichlet_fractions t k =
  if k <= 0 then invalid_arg "Dist.dirichlet_fractions: k <= 0";
  (* Spacings of k-1 uniforms on [0,1] = flat Dirichlet(1,...,1). *)
  let cuts = Array.init (k - 1) (fun _ -> Prng.unit_float t) in
  Array.sort Float.compare cuts;
  let frac = Array.make k 0.0 in
  let prev = ref 0.0 in
  for i = 0 to k - 2 do
    frac.(i) <- cuts.(i) -. !prev;
    prev := cuts.(i)
  done;
  frac.(k - 1) <- 1.0 -. !prev;
  frac
