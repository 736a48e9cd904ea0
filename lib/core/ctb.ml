type t = { capacity : int; mutable entries : int64 list }

let create ~capacity =
  if capacity < 1 then invalid_arg "Ctb.create: capacity";
  { capacity; entries = [] }

let capacity t = t.capacity
let size t = List.length t.entries
let is_full t = size t >= t.capacity
(* The table is almost always empty: every access checks it, so the
   empty case decides without allocating. *)
let mem t addr =
  t.entries <> [] && List.exists (Int64.equal (Ptg_pte.Line.line_addr addr)) t.entries

let add t addr =
  let addr = Ptg_pte.Line.line_addr addr in
  if List.exists (Int64.equal addr) t.entries then `Already_present
  else if is_full t then `Full
  else begin
    t.entries <- addr :: t.entries;
    `Added
  end

let remove t addr =
  if t.entries <> [] then begin
    let addr = Ptg_pte.Line.line_addr addr in
    t.entries <- List.filter (fun a -> not (Int64.equal a addr)) t.entries
  end

let clear t = t.entries <- []
let entries t = t.entries

let set_entries t addrs =
  if List.length addrs > t.capacity then invalid_arg "Ctb.set_entries: capacity";
  t.entries <- List.map Ptg_pte.Line.line_addr addrs
let sram_bytes t = 5 * t.capacity
