module Histogram = P2plb_metrics.Histogram
module Report = P2plb_metrics.Report

(* The span forest of a schema-v2 trace and every table derived from
   it.  Ordering comes from event order and typed sorts only, never
   from hash-table traversal, so both reports are byte-stable. *)

type node = {
  nd_name : string;
  nd_t0 : float;
  nd_attrs : (string * Trace.value) list;
  nd_points : Trace.ev list;
  nd_children : node list;
}

type forest = { roots : node list; loose : Trace.ev list }

type builder = {
  b_id : int;
  b_name : string;
  b_t0 : float;
  mutable b_open : bool;
  mutable b_attrs : (string * Trace.value) list; (* reversed *)
  mutable b_points : Trace.ev list; (* reversed *)
  mutable b_children : builder list; (* reversed *)
}

let of_events evs =
  let by_id : (int, builder) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] and loose = ref [] and all = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let open_span id =
    match Hashtbl.find_opt by_id id with
    | Some b when b.b_open -> Some b
    | Some _ | None -> None
  in
  let step (e : Trace.ev) =
    match e.kind with
    | Trace.Begin when Hashtbl.mem by_id e.span ->
      fail "span %d ('%s') begins twice" e.span e.name
    | Trace.Begin -> (
      let b =
        {
          b_id = e.span;
          b_name = e.name;
          b_t0 = e.time;
          b_open = true;
          b_attrs = List.rev e.attrs;
          b_points = [];
          b_children = [];
        }
      in
      let added () =
        Hashtbl.replace by_id e.span b;
        all := b :: !all;
        Ok ()
      in
      if e.parent < 0 then begin
        roots := b :: !roots;
        added ()
      end
      else
        match open_span e.parent with
        | Some p ->
          p.b_children <- b :: p.b_children;
          added ()
        | None ->
          fail
            "span %d ('%s') declares parent %d, which is not an open span \
             (orphan parent)"
            e.span e.name e.parent)
    | Trace.End -> (
      match Hashtbl.find_opt by_id e.span with
      | Some b when b.b_open ->
        b.b_open <- false;
        b.b_attrs <- List.rev_append e.attrs b.b_attrs;
        Ok ()
      | Some _ -> fail "span %d ('%s') ends twice" e.span e.name
      | None ->
        fail "end of span %d ('%s') with no matching begin (unbalanced trace)"
          e.span e.name)
    | Trace.Point when e.span < 0 ->
      loose := e :: !loose;
      Ok ()
    | Trace.Point -> (
      match open_span e.span with
      | Some b ->
        b.b_points <- e :: b.b_points;
        Ok ()
      | None ->
        fail "point '%s' (seq %d) names span %d, which is not open" e.name
          e.seq e.span)
  in
  let rec go = function
    | [] -> Ok ()
    | e :: rest -> ( match step e with Ok () -> go rest | Error _ as err -> err)
  in
  let rec freeze b =
    {
      nd_name = b.b_name;
      nd_t0 = b.b_t0;
      nd_attrs = List.rev b.b_attrs;
      nd_points = List.rev b.b_points;
      nd_children = List.rev_map freeze b.b_children;
    }
  in
  match go evs with
  | Error _ as err -> err
  | Ok () -> (
    match List.find_opt (fun b -> b.b_open) (List.rev !all) with
    | Some b -> fail "span %d ('%s') never ends (unbalanced trace)" b.b_id b.b_name
    | None ->
      Ok { roots = List.rev_map freeze !roots; loose = List.rev !loose })

(* ---- tables ------------------------------------------------------------ *)

let cell tbl k fresh =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
    let v = fresh () in
    Hashtbl.replace tbl k v;
    v

let by_key cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let numeric = function
  | Trace.Int i -> Some (float_of_int i)
  | Trace.Float f -> Some f
  | Trace.Bool _ | Trace.Str _ -> None

type round = { r_index : int; r_roots : node list; r_loose : Trace.ev list }

let round_of_root n =
  match List.assoc_opt "index" n.nd_attrs with
  | Some (Trace.Int i) when String.equal n.nd_name "round" -> i
  | _ -> int_of_float n.nd_t0

let rounds f =
  let tbl = Hashtbl.create 8 in
  let at i = cell tbl i (fun () -> (ref [], ref [])) in
  List.iter (fun n -> let r, _ = at (round_of_root n) in r := n :: !r) f.roots;
  List.iter
    (fun (e : Trace.ev) -> let _, l = at (int_of_float e.time) in l := e :: !l)
    f.loose;
  List.map
    (fun (r_index, (r, l)) ->
      { r_index; r_roots = List.rev !r; r_loose = List.rev !l })
    (by_key Int.compare tbl)

type row = {
  name : string;
  count : int;
  points : int;
  totals : (string * float) list;
}

let span_rows r =
  let tbl = Hashtbl.create 16 in
  let rec visit n =
    let count, points, sums =
      cell tbl n.nd_name (fun () -> (ref 0, ref 0, Hashtbl.create 8))
    in
    incr count;
    points := !points + List.length n.nd_points;
    List.iter
      (fun (k, v) ->
        Option.iter
          (fun x ->
            let s = cell sums k (fun () -> ref 0.0) in
            s := !s +. x)
          (numeric v))
      n.nd_attrs;
    List.iter visit n.nd_children
  in
  List.iter visit r.r_roots;
  List.map
    (fun (name, (count, points, sums)) ->
      {
        name;
        count = !count;
        points = !points;
        totals = List.map (fun (k, s) -> (k, !s)) (by_key String.compare sums);
      })
    (by_key String.compare tbl)

(* Every point event of [rs] with the "mode" attr of the span it was
   recorded in ("all" outside a span or for an untagged one). *)
let iter_points f rs =
  let rec visit n =
    let mode =
      match List.assoc_opt "mode" n.nd_attrs with
      | Some (Trace.Str m) -> m
      | _ -> "all"
    in
    List.iter (f mode) n.nd_points;
    List.iter visit n.nd_children
  in
  List.iter
    (fun r ->
      List.iter visit r.r_roots;
      List.iter (f "all") r.r_loose)
    rs

let point_counts rs =
  let tbl = Hashtbl.create 32 in
  iter_points (fun _ (e : Trace.ev) -> incr (cell tbl e.name (fun () -> ref 0))) rs;
  List.map (fun (name, n) -> (name, !n)) (by_key String.compare tbl)

let hop_histograms rs =
  let tbl = Hashtbl.create 4 in
  iter_points
    (fun mode (e : Trace.ev) ->
      if String.equal e.name "vst/transfer" then
        match
          ( Option.bind (List.assoc_opt "hops" e.attrs) numeric,
            Option.bind (List.assoc_opt "load" e.attrs) numeric )
        with
        | Some hops, Some load ->
          Histogram.add
            (cell tbl mode Histogram.create)
            ~bin:(int_of_float hops) ~weight:load
        | _ -> ())
    rs;
  by_key String.compare tbl

(* ---- reports ----------------------------------------------------------- *)

(* What both reports print for the kept rounds: the number of spans and
   rounds, the span rows per round (of one name under [?phase]), the
   point counts and the hop histograms. *)
let kept ?phase ?round forest =
  let rs =
    List.filter
      (fun r -> Option.fold ~none:true ~some:(Int.equal r.r_index) round)
      (rounds forest)
  in
  let all = List.map (fun r -> (r.r_index, span_rows r)) rs in
  let n_spans =
    List.fold_left
      (fun acc (_, rows) -> List.fold_left (fun n row -> n + row.count) acc rows)
      0 all
  in
  let keep (i, rows) =
    ( i,
      List.filter
        (fun row -> Option.fold ~none:true ~some:(String.equal row.name) phase)
        rows )
  in
  (n_spans, List.length rs, List.map keep all, point_counts rs, hop_histograms rs)

let n_points points = List.fold_left (fun acc (_, n) -> acc + n) 0 points

let total_cell v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let span_table (i, rows) =
  match rows with
  | [] -> None
  | _ ->
    Some
      (Report.table
         ~title:(Printf.sprintf "round %d spans (numeric attrs summed)" i)
         ~header:[ "span"; "count"; "points"; "totals" ]
         (List.map
            (fun row ->
              [
                row.name;
                string_of_int row.count;
                string_of_int row.points;
                String.concat " "
                  (List.map (fun (k, v) -> k ^ "=" ^ total_cell v) row.totals);
              ])
            rows))

let hop_table named =
  let max_bin =
    List.fold_left (fun m (_, h) -> Int.max m (Histogram.max_bin h)) (-1) named
  in
  let empty b =
    List.for_all (fun (_, h) -> Float.equal (Histogram.weight_at h b) 0.0) named
  in
  let row b =
    string_of_int b
    :: List.concat_map
         (fun (_, h) ->
           [
             Report.percent_cell (Histogram.fraction_at h b);
             Report.percent_cell (Histogram.cumulative_fraction h b);
           ])
         named
  in
  let cdf h = List.map (fun (b, f) -> (float_of_int b, f)) (Histogram.to_cdf h) in
  Report.table
    ~title:
      "Hop-cost of transferred load, reconstructed from vst/transfer events \
       (grouped by the enclosing span's mode)"
    ~header:
      ("hops" :: List.concat_map (fun (m, _) -> [ m ^ " %"; m ^ " CDF" ]) named)
    (List.filter_map
       (fun b -> if empty b then None else Some (row b))
       (List.init (max_bin + 1) Fun.id))
  ^ "\n"
  ^ Report.ascii_plot ~title:"CDF of moved load vs transfer distance"
      ~x_label:"hops" ~y_label:"CDF"
      ~series:(List.map (fun (m, h) -> (m, cdf h)) named)
      ()

let render ?phase ?round forest =
  let n_spans, n_rounds, rows, points, hops = kept ?phase ?round forest in
  String.concat "\n"
    ((Printf.sprintf "trace: %d spans, %d point events, %d round(s)\n" n_spans
        (n_points points) n_rounds
     :: List.filter_map span_table rows)
    @ (match points with
      | [] -> []
      | _ ->
        [
          Report.table ~title:"Point events" ~header:[ "event"; "count" ]
            (List.map (fun (name, n) -> [ name; string_of_int n ]) points);
        ])
    @ match hops with [] -> [] | _ -> [ hop_table hops ])

let to_jsonl ?phase ?round forest =
  let n_spans, n_rounds, rows, points, hops = kept ?phase ?round forest in
  let int i = Trace.Scalar (Trace.Int i)
  and str s = Trace.Scalar (Trace.Str s)
  and float f = Trace.Scalar (Trace.Float f) in
  let span_line i row =
    [
      ("k", str "span");
      ("round", int i);
      ("name", str row.name);
      ("count", int row.count);
      ("points", int row.points);
      ( "totals",
        Trace.Nested (List.map (fun (k, v) -> (k, Trace.Float v)) row.totals) );
    ]
  in
  let hop_lines (mode, h) =
    List.map
      (fun (b, w) ->
        [ ("k", str "hops"); ("mode", str mode); ("hops", int b); ("load", float w) ])
      (Histogram.bins h)
  in
  [
    ("k", str "trace");
    ("spans", int n_spans);
    ("points", int (n_points points));
    ("rounds", int n_rounds);
  ]
  :: List.concat_map (fun (i, rows) -> List.map (span_line i) rows) rows
  @ List.map
      (fun (name, n) -> [ ("k", str "point"); ("name", str name); ("count", int n) ])
      points
  @ List.concat_map hop_lines hops
  |> List.map (fun fields -> Trace.flat_to_line fields ^ "\n")
  |> String.concat ""
