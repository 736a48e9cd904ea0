(* A counter's value is its own count plus what its sources read now,
   less [base]: the sources' total at the last [reset]. *)
type counter = {
  c_key : string;
  mutable c : int;
  mutable sources : (unit -> int) list;
  mutable base : int;
}
type gauge = { g_key : string; mutable g : float }

type histogram = {
  h_name : string;
  h_labels : string; (* rendered "{k=\"v\",...}" or "" *)
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* per-bound bucket counts; +inf bucket is implicit *)
  mutable sum : float;
  mutable n : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  metrics : (string, metric) Hashtbl.t;
  mutable absorbed : (string * float) list; (* sorted, merged child rows *)
}

let create () = { metrics = Hashtbl.create 64; absorbed = [] }

let render_labels = function
  | [] -> ""
  | labels ->
      let labels =
        List.sort (fun (a, _) (b, _) -> String.compare a b) labels
      in
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let check_name name =
  if name = "" then invalid_arg "Registry: empty metric name"

let register t key m = Hashtbl.replace t.metrics key m

let counter t ?(labels = []) name =
  check_name name;
  let key = name ^ render_labels labels in
  match Hashtbl.find_opt t.metrics key with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Registry.counter: " ^ key ^ " is not a counter")
  | None ->
      let c = { c_key = key; c = 0; sources = []; base = 0 } in
      register t key (Counter c);
      c

let source t ?labels name read =
  let c = counter t ?labels name in
  c.sources <- read :: c.sources

let incr c = c.c <- c.c + 1

let add c n =
  if n < 0 then invalid_arg "Registry.add: counters are monotonic";
  c.c <- c.c + n

let read_sources c = List.fold_left (fun acc read -> acc + read ()) 0 c.sources
let counter_value c = c.c + read_sources c - c.base

let gauge t ?(labels = []) name =
  check_name name;
  let key = name ^ render_labels labels in
  match Hashtbl.find_opt t.metrics key with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Registry.gauge: " ^ key ^ " is not a gauge")
  | None ->
      let g = { g_key = key; g = 0.0 } in
      register t key (Gauge g);
      g

let set_gauge g v = g.g <- v
let gauge_value g = g.g

let default_buckets = [| 25.0; 50.0; 100.0; 200.0; 400.0; 800.0 |]

let histogram t ?(labels = []) ?(buckets = default_buckets) name =
  check_name name;
  let rendered = render_labels labels in
  let key = name ^ rendered in
  match Hashtbl.find_opt t.metrics key with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg ("Registry.histogram: " ^ key ^ " is not a histogram")
  | None ->
      Array.iteri
        (fun i b ->
          if i > 0 && b <= buckets.(i - 1) then
            invalid_arg "Registry.histogram: buckets must strictly increase")
        buckets;
      let h =
        {
          h_name = name;
          h_labels = rendered;
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets) 0;
          sum = 0.0;
          n = 0;
        }
      in
      register t key (Histogram h);
      h

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  (* counts.(i) is the non-cumulative count of observations <= bounds.(i)
     and > bounds.(i-1); flattening renders the cumulative view. *)
  let rec place i =
    if i >= Array.length h.bounds then ()
    else if v <= h.bounds.(i) then h.counts.(i) <- h.counts.(i) + 1
    else place (i + 1)
  in
  place 0

(* Snapshots: sorted (key, value) rows. *)

type snapshot = (string * float) list

let fmt_bound b =
  if Float.is_integer b then Printf.sprintf "%.0f" b else Printf.sprintf "%g" b

let flatten = function
  | Counter c -> [ (c.c_key, float_of_int (counter_value c)) ]
  | Gauge g -> [ (g.g_key, g.g) ]
  | Histogram h ->
      let tagged suffix = h.h_name ^ suffix ^ h.h_labels in
      let cumulative = ref 0 in
      let buckets =
        Array.to_list
          (Array.mapi
             (fun i b ->
               cumulative := !cumulative + h.counts.(i);
               (tagged ("_le_" ^ fmt_bound b), float_of_int !cumulative))
             h.bounds)
      in
      ((tagged "_count", float_of_int h.n) :: (tagged "_sum", h.sum) :: buckets)
      @ [ (tagged "_le_inf", float_of_int h.n) ]

let sort_rows rows =
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

(* Pointwise combine of two key-sorted row lists. *)
let rec combine op a b =
  match (a, b) with
  | [], rest -> List.map (fun (k, v) -> (k, op 0.0 v)) rest
  | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c = 0 then (ka, op va vb) :: combine op ta tb
      else if c < 0 then (ka, va) :: combine op ta ((kb, vb) :: tb)
      else (kb, op 0.0 vb) :: combine op ((ka, va) :: ta) tb

let merge a b = combine ( +. ) a b
let diff later earlier = combine ( -. ) later earlier

let snapshot t =
  let own =
    Hashtbl.fold (fun _ m acc -> List.rev_append (flatten m) acc) t.metrics []
  in
  merge (sort_rows own) t.absorbed

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c ->
          c.c <- 0;
          c.base <- read_sources c
      | Gauge g -> g.g <- 0.0
      | Histogram h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.sum <- 0.0;
          h.n <- 0)
    t.metrics;
  t.absorbed <- []

let absorb t snap = t.absorbed <- merge t.absorbed snap
let rows s = s
let find s k = List.assoc_opt k s

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (ka, va) (kb, vb) -> ka = kb && va = vb) a b

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_csv s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "metric,value\n";
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Ptg_util.Table.csv_field k);
      Buffer.add_char buf ',';
      Buffer.add_string buf (fmt_value v);
      Buffer.add_char buf '\n')
    s;
  Buffer.contents buf

let to_jsonl s =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"metric\":\"%s\",\"value\":%s}\n" (Ptg_util.Json.escape k)
           (fmt_value v)))
    s;
  Buffer.contents buf

let save rendering s ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (rendering s))

let save_csv = save to_csv
let save_jsonl = save to_jsonl
