open Ptg_crypto

type t = { key : Qarma.key; sc : Qarma.scratch }

let create ~rng = { key = Qarma.key_of_rng rng; sc = Qarma.scratch () }

let tweak ~addr i = Block128.make ~hi:(Int64.of_int i) ~lo:addr

let map_chunks f line =
  let out = Ptg_pte.Line.create () in
  for i = 0 to 3 do
    let b =
      Block128.make ~hi:(Ptg_pte.Line.get line ((2 * i) + 1)) ~lo:(Ptg_pte.Line.get line (2 * i))
    in
    let c = f i b in
    Ptg_pte.Line.set out (2 * i) c.Block128.lo;
    Ptg_pte.Line.set out ((2 * i) + 1) c.Block128.hi
  done;
  out

let encrypt_line t ~addr line =
  map_chunks (fun i b -> Qarma.encrypt_with t.sc t.key ~tweak:(tweak ~addr i) b) line

let decrypt_line t ~addr line =
  map_chunks (fun i b -> Qarma.decrypt_with t.sc t.key ~tweak:(tweak ~addr i) b) line

type consume_outcome =
  | Intact
  | Garbage_consumed of { wild_pfn : bool; looks_present : bool }

let consume t ~addr ~original ~stored =
  let decrypted = decrypt_line t ~addr stored in
  if Ptg_pte.Line.equal decrypted original then Intact
  else begin
    let wild_pfn = ref false and looks_present = ref false in
    for i = 0 to Ptg_pte.Line.words - 1 do
      let w = Ptg_pte.Line.get decrypted i and o = Ptg_pte.Line.get original i in
      if not (Int64.equal w o) then begin
        if not (Int64.equal (Ptg_pte.X86.pfn w) (Ptg_pte.X86.pfn o)) then wild_pfn := true;
        if Ptg_pte.X86.get_flag w Ptg_pte.X86.Present then looks_present := true
      end
    done;
    Garbage_consumed { wild_pfn = !wild_pfn; looks_present = !looks_present }
  end
