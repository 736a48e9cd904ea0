let time f =
  let t0 = Ptg_util.Clock.now_ns () in
  let v = f () in
  (v, Ptg_util.Clock.elapsed_s t0)

let ratio a b = if b > 0. then a /. b else 0.
let counter snap key = Option.value ~default:0. (Ptg_obs.Registry.find snap key)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median: empty sample";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> invalid_arg "Measure.mean: empty sample"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let rank p n =
  if not (p > 0. && p <= 100.) then invalid_arg "Measure: percentile outside (0, 100]";
  max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9))))

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.percentile: empty sample";
  a.(rank p n - 1)

let beyond p n = if n = 0 then 0 else n - rank p n

type tail = { pct : float; value : float; samples : int }

let supports ?(min_beyond = 10) p n = beyond p n >= min_beyond

let tail ?min_beyond candidates xs =
  let n = List.length xs in
  List.sort (fun a b -> Float.compare b a) candidates
  |> List.find_opt (fun p -> supports ?min_beyond p n)
  |> Option.map (fun p -> { pct = p; value = percentile p xs; samples = n })

type outcome =
  | Passed
  | Refused
  | Timed_out
  | Errored of string
  | Mismatch of string

type tally = { mutable attempted : int; mutable failed : int; mutable why : string list }

let tally () = { attempted = 0; failed = 0; why = [] }

let record t outcome =
  t.attempted <- t.attempted + 1;
  let reason =
    match outcome with
    | Passed -> None
    | Refused -> Some "refused (overloaded)"
    | Timed_out -> Some "timed out"
    | Errored e -> Some ("error: " ^ e)
    | Mismatch m -> Some ("output mismatch: " ^ m)
  in
  match reason with
  | None -> ()
  | Some r ->
      t.failed <- t.failed + 1;
      if List.length t.why < 8 then t.why <- r :: t.why

let attempted t = t.attempted
let failed t = t.failed

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted

let reasons t = List.rev t.why

type layer = { name : string; calls : float; cost_s : float }

let layer_s l = l.calls *. l.cost_s
let share ~wall l = layer_s l /. wall

let unattributed_share ~wall layers =
  if not (wall > 0.) then invalid_arg "Measure.unattributed_share: wall <= 0";
  1. -. (List.fold_left (fun acc l -> acc +. layer_s l) 0. layers /. wall)

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> None
    | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> Some kb
        | None -> scan ())
  in
  let kb = Fun.protect ~finally:(fun () -> close_in_noerr ic) scan in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith (Printf.sprintf "no VmHWM for pid %d" pid)

type metric = { name : string; value : float; unit_ : string }

let result_line ~correct ~attempted ~failed metrics =
  let metric m =
    if not (Float.is_finite m.value) then
      invalid_arg (Printf.sprintf "Measure.result_line: %s is not finite" m.name);
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name m.value m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

type report = { tally : tally; metrics : (string * float) list; notes : string list }
