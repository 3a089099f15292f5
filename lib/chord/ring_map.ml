module Id = P2plb_idspace.Id
module M = Map.Make (Int)

type 'a t = 'a M.t

let empty = M.empty
let is_empty = M.is_empty
let cardinal = M.cardinal
let add = M.add
let remove = M.remove
let find_opt = M.find_opt
let mem = M.mem

let min_binding_opt = M.min_binding_opt

let successor k m =
  match M.find_first_opt (fun key -> key >= k) m with
  | Some _ as hit -> hit
  | None -> min_binding_opt m (* wrap to the smallest id *)

let successor_strict k m =
  match M.find_first_opt (fun key -> key > k) m with
  | Some _ as hit -> hit
  | None -> min_binding_opt m

let predecessor_strict k m =
  match M.find_last_opt (fun key -> key < k) m with
  | Some _ as hit -> hit
  | None -> M.max_binding_opt m

let fold = M.fold
let iter = M.iter
