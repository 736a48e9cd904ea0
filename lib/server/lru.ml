(* Classic hashtable + intrusive doubly-linked recency list. The list
   head is most-recently-used; eviction pops the tail.

   Capacity is two-dimensional: an entry count and an optional byte
   budget over encoded sizes (key + value bytes). A fullsys rendering is
   three orders of magnitude bigger than a fig6 row summary, so counting
   entries alone would let a handful of huge results evict the whole hot
   set's worth of budget while reporting a healthy entry count.

   Hits, misses and evictions are counted in registry counters, so an
   owner that exports them hands over its own and reads them back. *)

module Registry = Ptg_obs.Registry

type counters = {
  hits : Registry.counter;
  misses : Registry.counter;
  evictions : Registry.counter;
}

type node = {
  key : string;
  mutable value : string;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cap : int;
  max_bytes : int option;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable bytes : int;
  counts : counters;
}

let weight ~key ~value = String.length key + String.length value

let counted counts ?max_bytes ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity";
  (match max_bytes with
  | Some b when b < 1 -> invalid_arg "Lru.create: max_bytes"
  | _ -> ());
  {
    cap = capacity;
    max_bytes;
    tbl = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    bytes = 0;
    counts;
  }

let create ?max_bytes ~capacity () =
  let reg = Registry.create () in
  let counter name = Registry.counter reg name in
  counted
    { hits = counter "hits"; misses = counter "misses"; evictions = counter "evictions" }
    ?max_bytes ~capacity ()

let capacity t = t.cap
let max_bytes t = t.max_bytes
let length t = Hashtbl.length t.tbl
let bytes t = t.bytes
let hits t = Registry.counter_value t.counts.hits
let misses t = Registry.counter_value t.counts.misses
let evictions t = Registry.counter_value t.counts.evictions

let to_alist t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go ((n.key, n.value) :: acc) n.next
  in
  go [] t.head

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
      Registry.incr t.counts.misses;
      None
  | Some n ->
      Registry.incr t.counts.hits;
      unlink t n;
      push_front t n;
      Some n.value

let mem t key = Hashtbl.mem t.tbl key

let over_budget t =
  Hashtbl.length t.tbl > t.cap
  || (match t.max_bytes with Some m -> t.bytes > m | None -> false)

(* Evict least-recently-used entries until both budgets are respected.
   An entry whose own weight exceeds [max_bytes] drains the whole cache
   and is finally evicted itself — oversized results are simply not
   cacheable under that budget, never an error. *)
let rec evict_while_over t =
  if over_budget t then
    match t.tail with
    | None -> ()
    | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.key;
        t.bytes <- t.bytes - weight ~key:lru.key ~value:lru.value;
        Registry.incr t.counts.evictions;
        evict_while_over t

let put t key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some n ->
      t.bytes <- t.bytes - String.length n.value + String.length value;
      n.value <- value;
      unlink t n;
      push_front t n
  | None ->
      let n = { key; value; prev = None; next = None } in
      Hashtbl.replace t.tbl key n;
      t.bytes <- t.bytes + weight ~key ~value;
      push_front t n);
  evict_while_over t
