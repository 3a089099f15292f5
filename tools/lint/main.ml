(* p2plint CLI.

   Usage:
     p2plint [--json] [--explain RULE] [path ...]

   With no paths, lints the project's default scope.  Exit codes form
   the CI contract: 0 = clean, 1 = findings, 2 = internal error
   (unknown flag, missing path or unparseable input). *)

let default_paths = [ "lib"; "bin"; "bench"; "test"; "tools"; "examples" ]

let usage () =
  prerr_string
    "usage: p2plint [--json] [--explain RULE] [path ...]\n";
  exit 2

let explain rule =
  match P2plint.Report.explain rule with
  | Some text ->
    print_string text;
    print_newline ();
    exit 0
  | None ->
    Printf.eprintf "p2plint: unknown rule %S (known: %s)\n" rule
      (String.concat " " P2plint.Report.all_rules);
    exit 2

let () =
  let json = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--explain" :: rule :: _ -> explain rule
    | "--explain" :: [] -> usage ()
    | arg :: _ when String.length arg > 2 && String.equal (String.sub arg 0 2) "--"
      ->
      Printf.eprintf "p2plint: unknown flag %s\n" arg;
      usage ()
    | path :: rest ->
      paths := path :: !paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths =
    match List.rev !paths with [] -> default_paths | args -> args
  in
  let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
  (match missing with
  | [] -> ()
  | _ :: _ ->
    List.iter (Printf.eprintf "p2plint: no such path: %s\n") missing;
    exit 2);
  let viols = P2plint.Report.run_all paths in
  let parse_errors, findings =
    List.partition
      (fun (v : P2plint.Lint.violation) -> String.equal v.v_rule "PARSE")
      viols
  in
  (match parse_errors with
  | [] -> ()
  | _ :: _ ->
    List.iter
      (fun v -> prerr_endline (P2plint.Lint.to_string v))
      parse_errors;
    Printf.eprintf "p2plint: %d parse error(s)\n" (List.length parse_errors);
    exit 2);
  let findings = P2plint.Report.assign_ids findings in
  if !json then print_string (P2plint.Report.to_json findings)
  else
    List.iter
      (fun (f : P2plint.Report.finding) ->
        Printf.printf "%s  [%s]\n" (P2plint.Lint.to_string f.fd_viol) f.fd_id)
      findings;
  match findings with
  | [] ->
    if not !json then
      Printf.printf "p2plint: OK (%s)\n" (String.concat " " paths);
    exit 0
  | _ :: _ ->
    Printf.eprintf "p2plint: %d finding(s)\n" (List.length findings);
    exit 1
