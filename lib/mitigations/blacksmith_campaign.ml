open Ptg_rowhammer

type result = {
  tries : int;
  effective_patterns : int;
  total_flips : int;
  best_flips : int;
  best : Blacksmith.pattern option;
}

let try_pattern ~slots ~rth ~rng ~victim pattern =
  let dram = Ptg_dram.Dram.create () in
  let config =
    { Fault_model.ddr4 with
      Fault_model.rth;
      orientation = Fault_model.All_true;
      p_flip = 0.02 }
  in
  let fault = Fault_model.attach ~config ~rng dram in
  let victim_flips = ref 0 in
  Fault_model.on_flip fault (fun f -> if f.Fault_model.row = victim then incr victim_flips);
  let _trr = Registry.instantiate_exn "trr" (Registry.ctx dram) in
  let geometry = Ptg_dram.Dram.geometry dram in
  let c = Ptg_dram.Geometry.decode geometry 0L in
  Ptg_dram.Dram.write_line dram
    (Ptg_dram.Geometry.encode geometry { c with Ptg_dram.Geometry.row = victim })
    (Ptg_pte.Line.of_words (Array.make 8 (-1L)));
  ignore
    (Blacksmith.run dram ~channel:c.Ptg_dram.Geometry.channel
       ~bank:c.Ptg_dram.Geometry.bank pattern ~slots ~start_time:0);
  !victim_flips

let campaign ?(tries = 40) ?(slots = 600_000) ?(rth = 10_000) ~rng ~victim () =
  let effective = ref 0 and total = ref 0 and best_flips = ref 0 in
  let best = ref None in
  for _ = 1 to tries do
    let pattern =
      Blacksmith.random_pattern rng ~victim ~decoys:(2 + Ptg_util.Rng.int rng 6)
    in
    let flips = try_pattern ~slots ~rth ~rng:(Ptg_util.Rng.split rng) ~victim pattern in
    total := !total + flips;
    if flips > 0 then incr effective;
    if flips > !best_flips then begin
      best_flips := flips;
      best := Some pattern
    end
  done;
  {
    tries;
    effective_patterns = !effective;
    total_flips = !total;
    best_flips = !best_flips;
    best = !best;
  }

let pp fmt r =
  Format.fprintf fmt
    "@[<v>fuzzed %d patterns against TRR: %d effective, %d total flips, best %d@,"
    r.tries r.effective_patterns r.total_flips r.best_flips;
  (match r.best with
  | Some p -> Format.fprintf fmt "best pattern: %a@]" Blacksmith.pp_pattern p
  | None -> Format.fprintf fmt "no effective pattern found@]")
