open Ptg_snapshot

(* ------------------------------------------------------------------ *)
(* Warm-start store: <dir>/<key>.<count>.ptgs                          *)
(* ------------------------------------------------------------------ *)

let path = Snapshot.store_path

(* Counts present in the store for [key], newest first. *)
let stored_counts = Snapshot.store_counts

(* Deepest-N retention applied after every successful save: the deepest
   checkpoint plus one fallback. Without this every chunk leaks a file
   and a long served run grows the store without bound. *)
let default_keep = 2

(* A peer shard or domain sharing the store may create [dir] between our
   check and our mkdir; losing that race is success, not an error. *)
let ensure_dir dir =
  let is_dir () = Sys.file_exists dir && Sys.is_directory dir in
  if not (is_dir ()) then
    try Sys.mkdir dir 0o755 with Sys_error _ when is_dir () -> ()

(* Every checkpoint opens with a meta section naming what produced it:
   the driver kind, the warm-start store key, and how far the run had
   got. Loading validates kind and key — a snapshot from a different
   scenario (or a stale key collision) is rejected before any state is
   touched. *)
let save ~path ~kind ~key ~count sections =
  let b = Codec.writer () in
  Codec.put_string b kind;
  Codec.put_string b key;
  Codec.put_varint b count;
  Snapshot.save ~path (Snapshot.section ~name:"meta" (Codec.contents b) :: sections)

let load ~kind ~key path =
  let sections = Snapshot.load ~path in
  let r = Snapshot.reader ~what:path sections "meta" in
  let m_kind = Codec.get_string r in
  let m_key = Codec.get_string r in
  let count = Codec.get_varint r in
  Codec.expect_end r;
  if m_kind <> kind then
    invalid_arg
      (Printf.sprintf "Snapshot.load: %s: checkpoint kind %S, want %S" path
         m_kind kind);
  if m_key <> key then
    invalid_arg
      (Printf.sprintf "Snapshot.load: %s: checkpoint key %s, want %s" path
         m_key key);
  (count, sections)

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

type 's instance = {
  kind : string;
  total : int;
  start : 's Lazy.t;
  start_depth : int;
  depth : 's -> int;
  step : 's -> int -> 's;
  encode : 's -> Snapshot.section list;
  decode : what:string -> Snapshot.section list -> 's option;
}

let never_stop () = false
let no_progress ~done_count:_ ~total:_ = ()

(* The deepest stored state past the cold start and within the budget.
   A damaged, foreign or mismatched file is skipped, and so is one a
   sharing peer pruned between our readdir and the open: the store is
   an optimization, never a reason to fail. *)
let adopt_from ~dir ~key inst =
  stored_counts ~dir ~key
  |> List.filter (fun n -> n > inst.start_depth && n <= inst.total)
  |> List.find_map (fun n ->
         let p = path ~dir ~key n in
         match
           let count, sections = load ~kind:inst.kind ~key p in
           if count = n then inst.decode ~what:p sections else None
         with
         | Some s when inst.depth s = n -> Some s
         | _ -> None
         | exception (Invalid_argument _ | Sys_error _) -> None)

let drive ?(keep = default_keep) ?every ?poll ?dir ?(adopt = true)
    ?(should_stop = never_stop) ?(progress = no_progress) ~key inst =
  let total = inst.total in
  let resumed =
    match dir with Some dir when adopt -> adopt_from ~dir ~key inst | _ -> None
  in
  (* Taken now: a machine state keeps moving after adoption. *)
  let resumed_from = Option.map inst.depth resumed in
  (* Make the adopted depth visible to progress streams before any new
     work happens (also the only progress a full-depth adoption emits). *)
  Option.iter (fun n -> progress ~done_count:n ~total) resumed_from;
  let s = ref (match resumed with Some s -> s | None -> Lazy.force inst.start) in
  let checkpoint () =
    Option.iter
      (fun dir ->
        ensure_dir dir;
        let count = inst.depth !s in
        let p = path ~dir ~key count in
        if not (Sys.file_exists p) then begin
          save ~path:p ~kind:inst.kind ~key ~count (inst.encode !s);
          ignore (Snapshot.prune ~keep ~dir ~key ())
        end)
      dir
  in
  (* [every] is the save cadence and the chunk; without it, [poll] only
     chunks the run so [should_stop] gets a look, and saves wait for
     completion or a stop. *)
  let chunk =
    match (every, poll) with
    | Some e, _ when e > 0 -> e
    | _, Some p when p > 0 -> p
    | _ -> total
  in
  let stepped = ref false and stopped = ref false in
  while (not !stopped) && inst.depth !s < total do
    if should_stop () then stopped := true
    else begin
      s := inst.step !s (min chunk (total - inst.depth !s));
      stepped := true;
      if every <> None || inst.depth !s >= total then checkpoint ();
      progress ~done_count:(inst.depth !s) ~total
    end
  done;
  if !stopped && !stepped then checkpoint ();
  (!s, not !stopped, resumed_from)

(* ------------------------------------------------------------------ *)
(* Sweeps: a case list computed in order, one unit per case            *)
(* ------------------------------------------------------------------ *)

type 'p prologue =
  | Given of 'p
  | Stored of {
      name : string;
      compute : unit -> 'p;
      put : Codec.writer -> 'p -> unit;
      get : Codec.reader -> 'p option;
    }

type ('p, 'c, 'u, 'r) t = {
  kind : string;
  section : string;
  header : string;
  jobs : int option;
  prologue : 'p prologue;
  cases : 'c list;
  run : ?obs:Ptg_obs.Sink.t -> 'p -> 'c -> 'u;
  finish : 'u list -> 'r;
  put : Codec.writer -> 'u -> unit;
  get : Codec.reader -> 'u;
  answers : 'u -> 'c -> bool;
}

type ('u, 'r) outcome = {
  o_result : 'r option;
  o_units : 'u list;
  o_completed : bool;
  o_resumed_from : int option;
}

(* The one per-case fan-out: each case writes into its own child sink,
   and the children merge into [obs] in case order after the join, so
   metrics and traces are identical for any job count. *)
let fan_out ?jobs ?obs f cases =
  let cases = Array.of_list cases in
  let children =
    Option.map (fun sink -> Array.map (fun _ -> Ptg_obs.Sink.child sink) cases) obs
  in
  let units =
    Ptg_util.Pool.parallel_map ?jobs
      (fun i -> f ?obs:(Option.map (fun c -> c.(i)) children) cases.(i))
      (Array.init (Array.length cases) Fun.id)
  in
  (match (obs, children) with
  | Some dst, Some children ->
      Array.iter (fun src -> Ptg_obs.Sink.merge_into ~src ~dst) children
  | _ -> ());
  Array.to_list units

let slice l from n = List.filteri (fun i _ -> i >= from && i < from + n) l

let rec answer_all t units cases =
  match (units, cases) with
  | [], _ -> true
  | u :: units, c :: cases -> t.answers u c && answer_all t units cases
  | _ :: _, [] -> false

let encoded put v =
  let b = Codec.writer () in
  put b v;
  Codec.contents b

(* The state is the prologue (once computed) and the completed unit
   prefix. A checkpoint holds the stored prologue, if any, then the
   prefix section: the case count, the header, the units. *)
let instance ?obs t =
  let total = List.length t.cases in
  let read ~what sections name get =
    let r = Snapshot.reader ~what sections name in
    let v = get r in
    Codec.expect_end r;
    v
  in
  let start = ((match t.prologue with Given p -> Some p | Stored _ -> None), []) in
  let depth = function None, _ -> -1 | Some _, units -> List.length units in
  {
    kind = t.kind;
    total;
    start = Lazy.from_val start;
    start_depth = depth start;
    depth;
    step =
      (fun (p, units) n ->
        match p with
        | None ->
            ( Some (match t.prologue with Given p -> p | Stored s -> s.compute ()),
              units )
        | Some p ->
            ( Some p,
              units
              @ fan_out ?jobs:t.jobs ?obs
                  (fun ?obs c -> t.run ?obs p c)
                  (slice t.cases (List.length units) n) ));
    encode =
      (fun (p, units) ->
        let prefix =
          Snapshot.section ~name:t.section
            (encoded
               (fun b units ->
                 Codec.put_varint b total;
                 Codec.put_raw b t.header;
                 Codec.put_list b t.put units)
               units)
        in
        match (t.prologue, p) with
        | Stored s, Some p -> [ Snapshot.section ~name:s.name (encoded s.put p); prefix ]
        | _ -> [ prefix ]);
    decode =
      (fun ~what sections ->
        let p =
          match t.prologue with
          | Given p -> Some p
          | Stored s -> read ~what sections s.name s.get
        in
        Option.bind p (fun p ->
            read ~what sections t.section (fun r ->
                let stored_total = Codec.get_varint r in
                let header = Codec.get_raw r (String.length t.header) in
                let units = Codec.get_list r t.get in
                if stored_total = total && header = t.header
                   && answer_all t units t.cases
                then Some (Some p, units)
                else None)));
  }

let exec ?obs ?keep ?every ?poll ?dir ?adopt ?should_stop ?progress ~key t =
  if Option.is_some obs && Option.is_some dir then
    invalid_arg "Sweep.exec: a checkpointed run excludes obs";
  let (_, units), completed, resumed_from =
    drive ?keep ?every ?poll ?dir ?adopt ?should_stop ?progress ~key (instance ?obs t)
  in
  {
    o_result = (if completed then Some (t.finish units) else None);
    o_units = units;
    o_completed = completed;
    o_resumed_from = resumed_from;
  }

(* No store, so the key names nothing. *)
let units ?obs t = (exec ?obs ~key:"" t).o_units
let run ?obs t = t.finish (units ?obs t)
