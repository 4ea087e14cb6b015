(* Name the fields that moved between two JSON files.

     bench_diff.exe OLD NEW

   prints one line per differing leaf: its path and both values, as in
   [.E12.sections[3].makespan: 138221984 -> 193282750].  A field only one
   side has reads [(absent)] on the other, and lists of different
   lengths compare element by element.  Exit 0 when the two documents
   are equal, 1 when anything moved, 2 when a file cannot be read or
   parsed.  The smoke targets run it on a BENCH file that a regeneration
   changed: every BENCH file is one line, so a textual diff prints both
   whole files. *)

module Json = Mach_obs.Obs_json

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      prerr_endline ("bench_diff: " ^ msg);
      exit 2
  | text -> (
      match Json.of_string text with
      | Ok j -> j
      | Error msg ->
          Printf.eprintf "bench_diff: %s: %s\n" path msg;
          exit 2)

let show = function None -> "(absent)" | Some j -> Json.to_string j

(* Every differing leaf under [path], in document order. *)
let rec diff path a b acc =
  match (a, b) with
  | Some (Json.Obj xs), Some (Json.Obj ys) ->
      let keys =
        List.map fst xs
        @ List.filter (fun k -> not (List.mem_assoc k xs)) (List.map fst ys)
      in
      List.fold_left
        (fun acc k ->
          diff (path ^ "." ^ k) (List.assoc_opt k xs) (List.assoc_opt k ys) acc)
        acc keys
  | Some (Json.List xs), Some (Json.List ys) ->
      let xs = Array.of_list xs and ys = Array.of_list ys in
      let nth l i = if i < Array.length l then Some l.(i) else None in
      let acc = ref acc in
      for i = 0 to max (Array.length xs) (Array.length ys) - 1 do
        acc := diff (Printf.sprintf "%s[%d]" path i) (nth xs i) (nth ys i) !acc
      done;
      !acc
  | _ when a = b -> acc
  | _ ->
      let path = if path = "" then "." else path in
      Printf.sprintf "%s: %s -> %s" path (show a) (show b) :: acc

let () =
  match Sys.argv with
  | [| _; old_path; new_path |] -> (
      let moved =
        List.rev (diff "" (Some (load old_path)) (Some (load new_path)) [])
      in
      match moved with
      | [] -> ()
      | lines ->
          Printf.printf "%s -> %s: %d field(s) moved\n" old_path new_path
            (List.length lines);
          List.iter print_endline lines;
          exit 1)
  | _ ->
      prerr_endline "usage: bench_diff.exe OLD NEW";
      exit 2
