type span = {
  id : int;
  name : string;
  parent : int;
  start : float;
  stop : float;
  alloc : float;
}

type t = {
  mutable next : int;
  mutable open_ : int list;  (** ids of open spans, innermost first *)
  mutable closed : span list;  (** newest first *)
}

let create () = { next = 0; open_ = []; closed = [] }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let a0 = Clock.alloc_bytes () in
  let start = Clock.now () in
  let close () =
    let stop = Clock.now () in
    let alloc = Clock.alloc_bytes () -. a0 in
    t.open_ <- List.tl t.open_;
    t.closed <- { id; name; parent; start; stop; alloc } :: t.closed
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.closed

let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s start and e = Float.min e stop in
        if e > s then Some (s, e) else None)
      children
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  (* sweep the sorted intervals, adding only the uncovered extension
     of each *)
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (s, e) ->
        if e <= reach then (acc, reach)
        else (acc +. (e -. Float.max s reach), e))
      (0.0, start) clipped
  in
  stop -. start -. covered

type summary = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  self_alloc : float;
  durations : float list;
}

let summarize spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let order = ref [] and acc = Hashtbl.create 32 in
  List.iter
    (fun (s : span) ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self =
        self_time ~start:s.start ~stop:s.stop
          (List.map (fun k -> (k.start, k.stop)) kids)
      in
      let self_alloc =
        List.fold_left (fun a (k : span) -> a -. k.alloc) s.alloc kids
      in
      let prev =
        match Hashtbl.find_opt acc s.name with
        | Some p -> p
        | None ->
          order := s.name :: !order;
          {
            name = s.name;
            count = 0;
            total_s = 0.0;
            self_s = 0.0;
            self_alloc = 0.0;
            durations = [];
          }
      in
      Hashtbl.replace acc s.name
        {
          prev with
          count = prev.count + 1;
          total_s = prev.total_s +. (s.stop -. s.start);
          self_s = prev.self_s +. self;
          self_alloc = prev.self_alloc +. self_alloc;
          durations = (s.stop -. s.start) :: prev.durations;
        })
    spans;
  List.rev_map
    (fun name ->
      let s = Hashtbl.find acc name in
      { s with durations = List.rev s.durations })
    !order

let find summaries name =
  List.find_opt (fun (s : summary) -> String.equal s.name name) summaries

let to_jsonl spans =
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s : span) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%S,\"id\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"alloc_bytes\":%.0f}\n"
           s.name s.id s.parent (s.start -. t0) (s.stop -. t0) s.alloc))
    spans;
  Buffer.contents buf
