type 'a buffer = {
  mutable slots : int array;
  mutable items : 'a array;
  mutable n : int;
  mutable n_slots : int;  (* largest slot pushed + 1 *)
}

let buffer () = { slots = [||]; items = [||]; n = 0; n_slots = 0 }

let push b slot r =
  if slot < 0 then invalid_arg "Leaf_reports.push: negative slot";
  if b.n = Array.length b.slots then begin
    (* grown with the pushed report as filler, so no dummy is needed *)
    let cap = if b.n = 0 then 1024 else 2 * b.n in
    let slots = Array.make cap 0 and items = Array.make cap r in
    Array.blit b.slots 0 slots 0 b.n;
    Array.blit b.items 0 items 0 b.n;
    b.slots <- slots;
    b.items <- items
  end;
  b.slots.(b.n) <- slot;
  b.items.(b.n) <- r;
  b.n <- b.n + 1;
  b.n_slots <- Int.max b.n_slots (slot + 1)

(* Slot [s]'s reports are [grouped.(starts.(s))] up to
   [grouped.(starts.(s + 1) - 1)]. *)
type 'a t = { starts : int array; grouped : 'a array }

let group b =
  let starts = Array.make (b.n_slots + 1) 0 in
  for i = 0 to b.n - 1 do
    let s = b.slots.(i) in
    starts.(s + 1) <- starts.(s + 1) + 1
  done;
  for s = 1 to b.n_slots do
    starts.(s) <- starts.(s) + starts.(s - 1)
  done;
  let grouped =
    if b.n = 0 then [||]
    else begin
      let g = Array.make b.n b.items.(0) in
      let cursor = Array.copy starts in
      for i = 0 to b.n - 1 do
        let s = b.slots.(i) in
        g.(cursor.(s)) <- b.items.(i);
        cursor.(s) <- cursor.(s) + 1
      done;
      g
    end
  in
  { starts; grouped }

let in_range g slot = slot >= 0 && slot < Array.length g.starts - 1

let size g slot =
  if in_range g slot then g.starts.(slot + 1) - g.starts.(slot) else 0

let iter g slot f =
  if in_range g slot then
    for i = g.starts.(slot) to g.starts.(slot + 1) - 1 do
      f g.grouped.(i)
    done

let fold_newest_first g slot ~init ~f =
  if not (in_range g slot) then init
  else begin
    let acc = ref init in
    for i = g.starts.(slot + 1) - 1 downto g.starts.(slot) do
      acc := f !acc g.grouped.(i)
    done;
    !acc
  end
