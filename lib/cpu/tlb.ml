(* VPNs are stored as native ints (exact for the nonnegative sub-2^62
   addresses the simulators generate), keeping the lookup loop free of
   boxed-int64 loads and comparisons. *)
type entry = { mutable vpn : int; mutable valid : bool; mutable lru : int }

(* Hit and miss counts, apart from the entries: a registry source
   reads this record. *)
type counts = { mutable hits : int; mutable misses : int }

type t = {
  entries : entry array;
  counts : counts;
  trace : Ptg_obs.Trace.t option;
  mutable tick : int;
  (* Index of the most recently hit/filled entry. Pure fast path: entries
     are unique by vpn (fill never duplicates), so when the MRU entry
     matches, the scan would have found exactly that entry. *)
  mutable mru : int;
}

let export counts sink =
  let source = Ptg_obs.Registry.source (Ptg_obs.Sink.registry sink) in
  source "tlb_hits" (fun () -> counts.hits);
  source "tlb_misses" (fun () -> counts.misses)

let create ?(entries = 64) ?obs () =
  if entries < 1 then invalid_arg "Tlb.create";
  let counts = { hits = 0; misses = 0 } in
  (match obs with Some sink -> export counts sink | None -> ());
  {
    entries = Array.init entries (fun _ -> { vpn = 0; valid = false; lru = 0 });
    counts;
    trace = Option.map Ptg_obs.Sink.trace obs;
    tick = 0;
    mru = 0;
  }

(* Index of the valid entry holding [vpn], or -1. Runs once per
   instruction, so this is a closure-free index loop. *)
let find t vpn =
  let entries = t.entries in
  let n = Array.length entries in
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < n do
    let e = Array.unsafe_get entries !i in
    if e.valid && e.vpn = vpn then found := !i;
    incr i
  done;
  !found

(* [@inline] so the int64 [vpn] a caller computes is converted in
   registers instead of being boxed for the call (the caller needs this
   module's .cmx: a build without -opaque). *)
let[@inline] lookup t ~vpn =
  t.tick <- t.tick + 1;
  let vpn = Int64.to_int vpn in
  (* MRU shortcut: page locality makes consecutive lookups overwhelmingly
     hit the same entry; skip the associative scan when they do. *)
  let mru_e = Array.unsafe_get t.entries t.mru in
  let idx =
    if mru_e.valid && mru_e.vpn = vpn then t.mru else find t vpn
  in
  if idx >= 0 then begin
    (Array.unsafe_get t.entries idx).lru <- t.tick;
    t.mru <- idx;
    t.counts.hits <- t.counts.hits + 1;
    true
  end
  else begin
    t.counts.misses <- t.counts.misses + 1;
    (match t.trace with
    | None -> ()
    | Some tr -> Ptg_obs.Trace.record tr (Ptg_obs.Trace.Tlb_miss { vpn = Int64.of_int vpn }));
    false
  end

let fill t ~vpn =
  t.tick <- t.tick + 1;
  let vpn = Int64.to_int vpn in
  if find t vpn < 0 then begin
    let entries = t.entries in
    let n = Array.length entries in
    (* First invalid entry if any, else the leftmost LRU minimum —
       identical victim choice to the fold this replaced. *)
    let victim = ref (-1) in
    let j = ref 0 in
    while !victim < 0 && !j < n do
      if not (Array.unsafe_get entries !j).valid then victim := !j;
      incr j
    done;
    if !victim < 0 then begin
      let best = ref 0 in
      for k = 1 to n - 1 do
        if (Array.unsafe_get entries k).lru < (Array.unsafe_get entries !best).lru
        then best := k
      done;
      victim := !best
    end;
    let e = Array.unsafe_get entries !victim in
    e.vpn <- vpn;
    e.valid <- true;
    e.lru <- t.tick;
    t.mru <- !victim
  end

let flush t = Array.iter (fun e -> e.valid <- false) t.entries
let hits t = t.counts.hits
let misses t = t.counts.misses

type state = {
  s_entries : (int * bool * int) array; (* vpn, valid, lru *)
  s_tick : int;
  s_hits : int;
  s_misses : int;
  s_mru : int;
}

let state t =
  {
    s_entries = Array.map (fun e -> (e.vpn, e.valid, e.lru)) t.entries;
    s_tick = t.tick;
    s_hits = t.counts.hits;
    s_misses = t.counts.misses;
    s_mru = t.mru;
  }

let set_state t s =
  let n = Array.length t.entries in
  if Array.length s.s_entries <> n then
    invalid_arg "Tlb.set_state: entry count mismatch";
  if s.s_mru < 0 || s.s_mru >= n then invalid_arg "Tlb.set_state: mru";
  Array.iteri
    (fun i (vpn, valid, lru) ->
      let e = t.entries.(i) in
      e.vpn <- vpn;
      e.valid <- valid;
      e.lru <- lru)
    s.s_entries;
  t.tick <- s.s_tick;
  t.counts.hits <- s.s_hits;
  t.counts.misses <- s.s_misses;
  t.mru <- s.s_mru

let miss_rate t =
  let total = hits t + misses t in
  if total = 0 then 0.0 else float_of_int (misses t) /. float_of_int total
