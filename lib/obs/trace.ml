type event =
  | Mac_verify of { addr : int64; ok : bool }
  | Correction of { addr : int64; step : string; guesses : int; ok : bool }
  | Ctb_insert of { addr : int64 }
  | Ctb_overflow
  | Rekey of { writes : int }
  | Row_activation of { channel : int; bank : int; row : int; count : int }
  | Tlb_miss of { vpn : int64 }
  | Mmu_cache_miss of { addr : int64 }
  | Cache_writeback of { addr : int64 }
  | Os_journal of { entry : string }
  | Server_request of { hash : int64; status : string; cache : string }
  | Router_request of { hash : int64; status : string; shard : string }

type t = {
  cap : int;
  buf : event array;
  mutable start : int; (* index of the oldest retained event *)
  mutable len : int;
  mutable recorded : int;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity";
  { cap = capacity; buf = Array.make capacity Ctb_overflow; start = 0; len = 0; recorded = 0 }

let capacity t = t.cap

let record t e =
  t.recorded <- t.recorded + 1;
  if t.len < t.cap then begin
    t.buf.((t.start + t.len) mod t.cap) <- e;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.start) <- e;
    t.start <- (t.start + 1) mod t.cap
  end

let length t = t.len
let recorded t = t.recorded
let dropped t = t.recorded - t.len
let events t = List.init t.len (fun i -> t.buf.((t.start + i) mod t.cap))

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.recorded <- 0

let append ~src ~dst =
  List.iter (record dst) (events src);
  (* Events src already lost are lost here too, but stay accounted. *)
  dst.recorded <- dst.recorded + dropped src

let kind = function
  | Mac_verify _ -> "mac_verify"
  | Correction _ -> "correction"
  | Ctb_insert _ -> "ctb_insert"
  | Ctb_overflow -> "ctb_overflow"
  | Rekey _ -> "rekey"
  | Row_activation _ -> "row_activation"
  | Tlb_miss _ -> "tlb_miss"
  | Mmu_cache_miss _ -> "mmu_cache_miss"
  | Cache_writeback _ -> "cache_writeback"
  | Os_journal _ -> "os_journal"
  | Server_request _ -> "server_request"
  | Router_request _ -> "router_request"

let hex a = Printf.sprintf "0x%Lx" a

let attrs = function
  | Mac_verify { addr; ok } -> [ ("addr", hex addr); ("ok", string_of_bool ok) ]
  | Correction { addr; step; guesses; ok } ->
      [
        ("addr", hex addr);
        ("step", step);
        ("guesses", string_of_int guesses);
        ("ok", string_of_bool ok);
      ]
  | Ctb_insert { addr } -> [ ("addr", hex addr) ]
  | Ctb_overflow -> []
  | Rekey { writes } -> [ ("writes", string_of_int writes) ]
  | Row_activation { channel; bank; row; count } ->
      [
        ("channel", string_of_int channel);
        ("bank", string_of_int bank);
        ("row", string_of_int row);
        ("count", string_of_int count);
      ]
  | Tlb_miss { vpn } -> [ ("vpn", hex vpn) ]
  | Mmu_cache_miss { addr } -> [ ("addr", hex addr) ]
  | Cache_writeback { addr } -> [ ("addr", hex addr) ]
  | Os_journal { entry } -> [ ("entry", entry) ]
  | Server_request { hash; status; cache } ->
      [
        ("hash", Ptg_util.Bits.to_hex hash);
        ("status", status);
        ("cache", cache);
      ]
  | Router_request { hash; status; shard } ->
      [
        ("hash", Ptg_util.Bits.to_hex hash);
        ("status", status);
        ("shard", shard);
      ]

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "seq,kind,attrs\n";
  let first_seq = dropped t in
  List.iteri
    (fun i e ->
      Buffer.add_string buf (string_of_int (first_seq + i));
      Buffer.add_char buf ',';
      Buffer.add_string buf (kind e);
      Buffer.add_char buf ',';
      Buffer.add_string buf
        (Ptg_util.Table.csv_field
           (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) (attrs e))));
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let to_jsonl t =
  let buf = Buffer.create 1024 in
  let first_seq = dropped t in
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "{\"seq\":%d,\"kind\":\"%s\"" (first_seq + i) (kind e));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf ",\"%s\":\"%s\"" (Ptg_util.Json.escape k)
               (Ptg_util.Json.escape v)))
        (attrs e);
      Buffer.add_string buf "}\n")
    (events t);
  Buffer.contents buf

let save rendering t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (rendering t))

let save_csv = save to_csv
let save_jsonl = save to_jsonl
