type t = { read_word : int64 -> int64; write_word : int64 -> int64 -> unit }

let check_aligned addr =
  if Int64.logand addr 7L <> 0L then
    invalid_arg "Phys_mem: unaligned word address"

let of_hashtbl () =
  let store : (int64, int64) Hashtbl.t = Hashtbl.create 4096 in
  {
    read_word =
      (fun addr ->
        check_aligned addr;
        Option.value ~default:0L (Hashtbl.find_opt store addr));
    write_word =
      (fun addr v ->
        check_aligned addr;
        if Int64.equal v 0L then Hashtbl.remove store addr
        else Hashtbl.replace store addr v);
  }

let of_dram dram =
  {
    read_word =
      (fun addr ->
        check_aligned addr;
        let line = Ptg_dram.Dram.read_line dram addr in
        Ptg_pte.Line.get line (Int64.to_int (Int64.logand addr 63L) / 8));
    write_word =
      (fun addr v ->
        check_aligned addr;
        let line = Ptg_dram.Dram.read_line dram addr in
        Ptg_pte.Line.set line (Int64.to_int (Int64.logand addr 63L) / 8) v;
        Ptg_dram.Dram.write_line dram addr line);
  }

let read_line t addr =
  let base = Ptg_pte.Line.line_addr addr in
  Ptg_pte.Line.init (fun i -> t.read_word (Int64.add base (Int64.of_int (i * 8))))

let write_line t addr line =
  let base = Ptg_pte.Line.line_addr addr in
  for i = 0 to Ptg_pte.Line.words - 1 do
    t.write_word (Int64.add base (Int64.of_int (i * 8))) (Ptg_pte.Line.get line i)
  done
