module Stats = P2plb_metrics.Stats
module Histogram = P2plb_metrics.Histogram
module Report = P2plb_metrics.Report

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let feq = Alcotest.float 1e-9

let test_stddev () =
  check feq "constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  (* population stddev of 1..5 is sqrt(2) *)
  check (Alcotest.float 1e-6) "1..5" (sqrt 2.0)
    (Stats.stddev [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check feq "p0" 10.0 (Stats.percentile xs 0.0);
  check feq "p100" 40.0 (Stats.percentile xs 100.0);
  check feq "p50 interpolates" 25.0 (Stats.percentile xs 50.0);
  check feq "median" 25.0 (Stats.median xs);
  (* does not sort the caller's array *)
  let ys = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.percentile ys 50.0);
  check Alcotest.(array (float 0.0)) "input untouched" [| 3.0; 1.0; 2.0 |] ys

let test_gini () =
  check feq "perfect equality" 0.0 (Stats.gini [| 4.0; 4.0; 4.0; 4.0 |]);
  (* all wealth in one hand of n: G = (n-1)/n *)
  check feq "total concentration" 0.75 (Stats.gini [| 0.0; 0.0; 0.0; 8.0 |]);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Stats.gini: negative") (fun () ->
      ignore (Stats.gini [| 1.0; -1.0 |]))

let test_empty_rejected () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (Stats.mean [||]))

(* ---- histogram ---------------------------------------------------------- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  check Alcotest.int "empty max_bin" (-1) (Histogram.max_bin h);
  Histogram.add h ~bin:2 ~weight:3.0;
  Histogram.add h ~bin:5 ~weight:1.0;
  Histogram.add h ~bin:2 ~weight:1.0;
  check feq "total" 5.0 (Histogram.total_weight h);
  check Alcotest.int "max bin" 5 (Histogram.max_bin h);
  check feq "bin 2" 4.0 (Histogram.weight_at h 2);
  check feq "fraction" 0.8 (Histogram.fraction_at h 2);
  check feq "missing bin" 0.0 (Histogram.weight_at h 3)

let test_histogram_cdf () =
  let h = Histogram.create () in
  Histogram.add h ~bin:1 ~weight:1.0;
  Histogram.add h ~bin:3 ~weight:1.0;
  Histogram.add h ~bin:10 ~weight:2.0;
  check feq "cdf@0" 0.0 (Histogram.cumulative_fraction h 0);
  check feq "cdf@1" 0.25 (Histogram.cumulative_fraction h 1);
  check feq "cdf@3" 0.5 (Histogram.cumulative_fraction h 3);
  check feq "cdf@10" 1.0 (Histogram.cumulative_fraction h 10);
  check feq "cdf beyond" 1.0 (Histogram.cumulative_fraction h 100);
  check
    Alcotest.(list (pair int (float 1e-9)))
    "to_cdf"
    [ (1, 0.25); (3, 0.5); (10, 1.0) ]
    (Histogram.to_cdf h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a ~bin:1 ~weight:1.0;
  Histogram.add b ~bin:1 ~weight:2.0;
  Histogram.add b ~bin:4 ~weight:3.0;
  let m = Histogram.merge a b in
  check feq "merged bin 1" 3.0 (Histogram.weight_at m 1);
  check feq "merged bin 4" 3.0 (Histogram.weight_at m 4);
  check feq "inputs unchanged" 1.0 (Histogram.weight_at a 1)

let test_histogram_percentile_bin () =
  let h = Histogram.create () in
  check Alcotest.int "empty histogram" (-1) (Histogram.percentile_bin h 50.0);
  Histogram.add h ~bin:1 ~weight:1.0;
  Histogram.add h ~bin:3 ~weight:1.0;
  Histogram.add h ~bin:10 ~weight:2.0;
  check Alcotest.int "p25 lands on first bin" 1 (Histogram.percentile_bin h 25.0);
  check Alcotest.int "p50" 3 (Histogram.percentile_bin h 50.0);
  check Alcotest.int "p99" 10 (Histogram.percentile_bin h 99.0);
  check Alcotest.int "p100 is the max bin" 10 (Histogram.percentile_bin h 100.0);
  (* total on out-of-range inputs: clamped into [0, 100], NaN reads
     as 100 *)
  check Alcotest.int "p > 100 clamps to 100" 10
    (Histogram.percentile_bin h 101.0);
  check Alcotest.int "p < 0 clamps to 0" 1 (Histogram.percentile_bin h (-5.0));
  check Alcotest.int "p = 0 is the first non-empty bin" 1
    (Histogram.percentile_bin h 0.0);
  check Alcotest.int "NaN reads as 100" 10
    (Histogram.percentile_bin h Float.nan);
  check Alcotest.int "empty histogram at p = 0" (-1)
    (Histogram.percentile_bin (Histogram.create ()) 0.0)

let test_histogram_validation () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative bin"
    (Invalid_argument "Histogram.add: negative bin") (fun () ->
      Histogram.add h ~bin:(-1) ~weight:1.0);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Histogram.add: negative weight") (fun () ->
      Histogram.add h ~bin:1 ~weight:(-1.0))

(* ---- report ------------------------------------------------------------- *)

let test_table_alignment () =
  let t =
    Report.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' t in
  let nonempty = List.filter (fun l -> l <> "") lines in
  check Alcotest.int "4 lines" 4 (List.length nonempty);
  (* all non-empty lines have the same width *)
  let widths = List.map String.length nonempty in
  match widths with
  | w :: rest -> List.iter (fun x -> check Alcotest.int "aligned" w x) rest
  | [] -> Alcotest.fail "no output"

let test_table_arity_mismatch () =
  Alcotest.check_raises "bad row"
    (Invalid_argument "Report.table: row arity mismatch") (fun () ->
      ignore (Report.table ~header:[ "a"; "b" ] [ [ "1" ] ]))

let test_cells () =
  check Alcotest.string "float" "3.142" (Report.float_cell 3.14159);
  check Alcotest.string "percent" "12.5%" (Report.percent_cell 0.125)

let test_ascii_plot_nonempty () =
  let p =
    Report.ascii_plot ~series:[ ("s", [ (0.0, 0.0); (1.0, 1.0) ]) ] ()
  in
  check Alcotest.bool "mentions legend" true
    (String.length p > 0
    && String.split_on_char '\n' p |> List.exists (fun l -> l = "   * = s"))

let test_ascii_plot_empty () =
  check Alcotest.string "empty plot" "(empty plot)\n"
    (Report.ascii_plot ~series:[ ("s", []) ] ())

(* plot edge cases: no series at all, a single point (both axis ranges
   degenerate), and a flat series (y range degenerate) must all render
   without division by zero or out-of-grid writes *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let grid_rows p =
  String.split_on_char '\n' p
  |> List.filter (fun l -> String.length l > 2 && String.equal (String.sub l 0 3) "  |")

let test_ascii_plot_no_series () =
  check Alcotest.string "no series" "(empty plot)\n"
    (Report.ascii_plot ~series:[] ())

let test_ascii_plot_single_point () =
  let p = Report.ascii_plot ~series:[ ("one", [ (2.0, 3.0) ]) ] () in
  check Alcotest.bool "y range collapses to the value" true
    (contains p "y: [3 .. 3]");
  check Alcotest.bool "x range collapses to the value" true
    (contains p "x: [2 .. 2]");
  let starred =
    List.filter (fun l -> String.exists (fun c -> c = '*') l) (grid_rows p)
  in
  check Alcotest.int "exactly one grid row carries the glyph" 1
    (List.length starred)

let test_ascii_plot_flat_y () =
  let p =
    Report.ascii_plot
      ~series:[ ("flat", [ (0.0, 1.0); (1.0, 1.0); (2.0, 1.0) ]) ]
      ()
  in
  check Alcotest.bool "degenerate y range" true (contains p "y: [1 .. 1]");
  let rows = grid_rows p in
  let starred = List.filter (fun l -> String.exists (fun c -> c = '*') l) rows in
  (* all points share the one y value, so they land on a single row *)
  check Alcotest.int "one row holds every point" 1 (List.length starred);
  match starred with
  | [ row ] ->
    let stars = ref 0 in
    String.iter (fun c -> if c = '*' then incr stars) row;
    check Alcotest.int "all three x positions plotted" 3 !stars
  | _ -> Alcotest.fail "expected one starred row"

(* ---- properties --------------------------------------------------------- *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 30) (float_range (-100.) 100.)) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (l, (p1, p2)) ->
      let xs = Array.of_list l in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_gini_range =
  QCheck.Test.make ~name:"gini in [0,1)" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (float_range 0.0 1000.0))
    (fun l ->
      let xs = Array.of_list l in
      QCheck.assume (Array.fold_left ( +. ) 0.0 xs > 0.0);
      let g = Stats.gini xs in
      g >= -1e-9 && g < 1.0)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"histogram CDF is monotone" ~count:200
    QCheck.(list (pair (int_range 0 50) (float_range 0.0 10.0)))
    (fun entries ->
      let h = Histogram.create () in
      List.iter (fun (bin, weight) -> Histogram.add h ~bin ~weight) entries;
      let ok = ref true in
      for b = 0 to 51 do
        if
          Histogram.cumulative_fraction h b
          < Histogram.cumulative_fraction h (b - 1) -. 1e-9
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "metrics"
    [
      ( "stats",
        [
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "gini" `Quick test_gini;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basic;
          Alcotest.test_case "cdf" `Quick test_histogram_cdf;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "percentile bin" `Quick
            test_histogram_percentile_bin;
          Alcotest.test_case "validation" `Quick test_histogram_validation;
        ] );
      ( "report",
        [
          Alcotest.test_case "table alignment" `Quick test_table_alignment;
          Alcotest.test_case "arity mismatch" `Quick test_table_arity_mismatch;
          Alcotest.test_case "cells" `Quick test_cells;
          Alcotest.test_case "plot" `Quick test_ascii_plot_nonempty;
          Alcotest.test_case "empty plot" `Quick test_ascii_plot_empty;
          Alcotest.test_case "no series" `Quick test_ascii_plot_no_series;
          Alcotest.test_case "single point" `Quick
            test_ascii_plot_single_point;
          Alcotest.test_case "flat y" `Quick test_ascii_plot_flat_y;
        ] );
      ( "properties",
        [ qtest prop_percentile_monotone; qtest prop_gini_range; qtest prop_cdf_monotone ]
      );
    ]
