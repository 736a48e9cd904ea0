(* Recorded reference outputs, one whitespace-separated record per line
   under perfbench/reference/, keyed by their leading fields. The files
   are read from the working directory, which is the checkout root the
   benchmark runs from. *)

let dir = Filename.concat "perfbench" "reference"

let load file =
  let path = Filename.concat dir file in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else Some (List.filter (( <> ) "") (String.split_on_char ' ' line)))

(* The fields after [key] of the first record starting with [key]. *)
let find records key =
  let rec after key fields =
    match (key, fields) with
    | [], rest -> Some rest
    | k :: key, f :: fields when k = f -> after key fields
    | _ -> None
  in
  List.find_map (after key) records
