(* Consistent-hash ring over shard indices.

   Each shard owns [vnodes] points on a 64-bit ring, placed by hashing
   "shard/<i>/<v>" with the same FNV-1a the scenario hash uses; a key
   routes to the shard owning the first point clockwise of the key's
   hash. Ejecting a shard removes it from consideration without moving
   any point: its arcs fall to the clockwise successors (rendezvous
   re-routing), every other key keeps its shard. Re-admission restores
   exactly the original ownership. *)

type point = { pos : int64; shard : int }

type t = { points : point array; shards : int }

(* Unsigned comparison: ring positions are raw 64-bit hashes. *)
let ucompare a b = Int64.unsigned_compare a b

let fnv1a64 s = Ptg_snapshot.Codec.fnv1a64 s

(* FNV-1a of near-identical strings (scenarios differing only in a seed
   digit) clusters in a narrow band of the 64-bit space — poor avalanche
   in the high bits — which would drop a whole working set into one arc.
   Finalize with splitmix64's mixer so ring placement sees uniform keys;
   applied to point positions and lookup keys alike, so routing is still
   a pure function of the inputs. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ?(vnodes = 64) shards =
  if shards < 1 then invalid_arg "Ring.create: shards";
  if vnodes < 1 then invalid_arg "Ring.create: vnodes";
  let points =
    Array.init (shards * vnodes) (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        { pos = mix64 (fnv1a64 (Printf.sprintf "shard/%d/%d" shard v)); shard })
  in
  Array.sort
    (fun a b ->
      match ucompare a.pos b.pos with 0 -> compare a.shard b.shard | c -> c)
    points;
  { points; shards }

let shards t = t.shards

(* First point at or clockwise of [key] (wrapping), as an index into the
   sorted points array. *)
let successor t key =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  (* Invariant: points.[0, lo) < key <= points.[hi, n). *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ucompare t.points.(mid).pos key < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let route t ~live key =
  if Array.length live <> t.shards then invalid_arg "Ring.route: live";
  let n = Array.length t.points in
  let start = successor t (mix64 key) in
  let rec walk i remaining =
    if remaining = 0 then None
    else
      let p = t.points.((start + i) mod n) in
      if live.(p.shard) then Some p.shard else walk (i + 1) (remaining - 1)
  in
  walk 0 n

let route_string t ~live key = route t ~live (fnv1a64 key)

(* Fraction of the 64-bit keyspace each live shard owns: the arc ending
   at every point belongs to that point's shard (when live; an ejected
   shard's arc belongs to the next live successor). *)
let ownership t ~live =
  if Array.length live <> t.shards then invalid_arg "Ring.ownership: live";
  let shares = Array.make t.shards 0. in
  if Array.exists Fun.id live then begin
    let n = Array.length t.points in
    let width i =
      (* Arc from the previous point (wrapping) to point i, as an
         unsigned 64-bit difference scaled into [0,1]. *)
      let prev = t.points.((i + n - 1) mod n).pos in
      let w = Int64.sub t.points.(i).pos prev in
      (* The wrap-around arc is the 2^64 complement; Int64 subtraction
         already computes it modulo 2^64. *)
      Int64.to_float (Int64.shift_right_logical w 1) *. 2. /. 1.8446744073709552e19
    in
    let owner_of i =
      let rec go j remaining =
        if remaining = 0 then None
        else
          let p = t.points.((i + j) mod n) in
          if live.(p.shard) then Some p.shard else go (j + 1) (remaining - 1)
      in
      go 0 n
    in
    for i = 0 to n - 1 do
      match owner_of i with
      | Some s -> shares.(s) <- shares.(s) +. width i
      | None -> ()
    done
  end;
  shares
