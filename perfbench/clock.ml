(* p2plint: allow-impure — benchmark host timing, confined to perfbench output *)
let now () = Sys.time ()

(* p2plint: allow-impure — benchmark allocation accounting, confined to perfbench output *)
let alloc_bytes () = Gc.allocated_bytes ()

let mb b = b /. 1e6
let word_bytes = float_of_int (Sys.word_size / 8)

let heap_top_mb () =
  (* p2plint: allow-impure — benchmark heap accounting, confined to perfbench output *)
  let st = Gc.quick_stat () in
  mb (float_of_int st.Gc.top_heap_words *. word_bytes)

let live_mb () =
  (* p2plint: allow-impure — benchmark heap accounting, confined to perfbench output *)
  let st = Gc.stat () in
  mb (float_of_int st.Gc.live_words *. word_bytes)

let collections () =
  (* p2plint: allow-impure — benchmark GC accounting, confined to perfbench output *)
  let st = Gc.quick_stat () in
  (st.Gc.minor_collections, st.Gc.major_collections)
