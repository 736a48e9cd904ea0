(* VPNs are stored as native ints (exact for the nonnegative sub-2^62
   addresses the simulators generate), keeping the lookup loop free of
   boxed-int64 loads and comparisons. *)
type entry = { mutable vpn : int; mutable valid : bool; mutable lru : int }

type obs = {
  o_hits : Ptg_obs.Registry.counter;
  o_misses : Ptg_obs.Registry.counter;
  o_trace : Ptg_obs.Trace.t;
}

type t = {
  entries : entry array;
  obs : obs option;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  (* Index of the most recently hit/filled entry. Pure fast path: entries
     are unique by vpn (fill never duplicates), so when the MRU entry
     matches, the scan would have found exactly that entry. *)
  mutable mru : int;
}

let obs_of_sink sink =
  let c = Ptg_obs.Registry.counter (Ptg_obs.Sink.registry sink) in
  {
    o_hits = c "tlb_hits";
    o_misses = c "tlb_misses";
    o_trace = Ptg_obs.Sink.trace sink;
  }

let create ?(entries = 64) ?obs () =
  if entries < 1 then invalid_arg "Tlb.create";
  {
    entries = Array.init entries (fun _ -> { vpn = 0; valid = false; lru = 0 });
    obs = Option.map obs_of_sink obs;
    tick = 0;
    hits = 0;
    misses = 0;
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
    t.hits <- t.hits + 1;
    (match t.obs with None -> () | Some o -> Ptg_obs.Registry.incr o.o_hits);
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (match t.obs with
    | None -> ()
    | Some o ->
        Ptg_obs.Registry.incr o.o_misses;
        Ptg_obs.Trace.record o.o_trace
          (Ptg_obs.Trace.Tlb_miss { vpn = Int64.of_int vpn }));
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
let hits t = t.hits
let misses t = t.misses

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
    s_hits = t.hits;
    s_misses = t.misses;
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
  t.hits <- s.s_hits;
  t.misses <- s.s_misses;
  t.mru <- s.s_mru

let miss_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
