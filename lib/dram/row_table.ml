(* Per-bank row state, kept sparse: an open-addressing table (linear
   probing, unboxed int keys and cells) holding only the rows that have
   an entry, in the spirit of Ramulator2's per-bank
   [unordered_map<Addr_t, int>]. A table is built, cleared and listed
   in time proportional to the rows it holds, not to [rows_per_bank];
   updating a row that already has an entry allocates nothing. *)

type t = {
  mutable rows : int array; (* -1 = empty slot *)
  mutable cells : int array;
  mutable size : int;
  mutable shift : int; (* 62 - log2 (capacity) *)
}

let empty = -1
let min_bits = 4

let install t bits =
  t.rows <- Array.make (1 lsl bits) empty;
  t.cells <- Array.make (1 lsl bits) 0;
  t.size <- 0;
  t.shift <- 62 - bits

let create () =
  let t = { rows = [||]; cells = [||]; size = 0; shift = 0 } in
  install t min_bits;
  t

let length t = t.size

(* Fibonacci hashing: the top bits of the 62-bit product. *)
let home t row = ((row * 0x27d4eb2f165667c5) land max_int) lsr t.shift

(* The slot holding [row], or the empty slot that ends its probe run. *)
let find_slot t row =
  let rows = t.rows in
  let mask = Array.length rows - 1 in
  let i = ref (home t row) in
  while
    let r = Array.unsafe_get rows !i in
    r <> row && r <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let find t row =
  let i = find_slot t row in
  if Array.unsafe_get t.rows i = row then i else -1

let cell t slot = t.cells.(slot)
let set_cell t slot v = t.cells.(slot) <- v

let get t row =
  let i = find_slot t row in
  if Array.unsafe_get t.rows i = row then Array.unsafe_get t.cells i else 0

(* Place a row known to be absent; the caller keeps the load <= 1/2. *)
let insert t row v =
  let i = find_slot t row in
  Array.unsafe_set t.rows i row;
  Array.unsafe_set t.cells i v;
  t.size <- t.size + 1

let rehash t bits =
  let rows = t.rows and cells = t.cells in
  install t bits;
  Array.iteri (fun i r -> if r <> empty then insert t r cells.(i)) rows

let add t row v =
  insert t row v;
  if 2 * t.size > Array.length t.rows then rehash t (62 - t.shift + 1)

let incr t row =
  let i = find_slot t row in
  if Array.unsafe_get t.rows i = row then begin
    let c = Array.unsafe_get t.cells i + 1 in
    Array.unsafe_set t.cells i c;
    c
  end
  else begin
    add t row 1;
    1
  end

let replace t row v =
  let i = find_slot t row in
  if t.rows.(i) = row then t.cells.(i) <- v else add t row v

(* Backward-shift deletion: later members of the probe run move into
   the hole whenever the hole lies between their home slot and them,
   so every remaining row stays reachable without tombstones. *)
let remove t row =
  let i = find_slot t row in
  if t.rows.(i) = row then begin
    let rows = t.rows and cells = t.cells in
    let mask = Array.length rows - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while rows.(!j) <> empty do
      let r = rows.(!j) in
      if (!j - home t r) land mask >= (!j - !hole) land mask then begin
        rows.(!hole) <- r;
        cells.(!hole) <- cells.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    rows.(!hole) <- empty;
    cells.(!hole) <- 0;
    t.size <- t.size - 1
  end

(* Linear in the rows held: a table far larger than its contents is
   replaced by a minimal one rather than swept. *)
let clear t =
  if t.size > 0 then
    if Array.length t.rows > 8 * t.size then install t min_bits
    else begin
      Array.fill t.rows 0 (Array.length t.rows) empty;
      Array.fill t.cells 0 (Array.length t.cells) 0;
      t.size <- 0
    end

let to_list t =
  let acc = ref [] in
  Array.iteri (fun i r -> if r <> empty then acc := (r, t.cells.(i)) :: !acc) t.rows;
  List.sort (fun ((a : int), _) (b, _) -> Int.compare a b) !acc
