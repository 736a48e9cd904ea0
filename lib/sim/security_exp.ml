open Ptg_crypto

type k_row = {
  k : int;
  p_uncorrectable_1pct : float;
  p_uncorrectable_0p2pct : float;
  n_eff : float;
  years : float;
}

type result = {
  report : Security.report;
  k_sweep : k_row list;
  chosen_k : int;
  mac_width_sweep : (int * float * float) list;
}

let run ?(g_max = 372) () =
  let n = 96 in
  let k_sweep =
    List.map
      (fun k ->
        let n_eff = Security.effective_mac_bits ~n ~k ~g_max in
        {
          k;
          p_uncorrectable_1pct = Security.p_uncorrectable ~n ~p_flip:0.01 ~k;
          p_uncorrectable_0p2pct = Security.p_uncorrectable ~n ~p_flip:0.002 ~k;
          n_eff;
          years =
            Security.years_to_attack ~log2_p_success:(-.n_eff)
              ~attempts_per_sec:Security.dram_attempts_per_sec;
        })
      (List.init 9 Fun.id)
  in
  let mac_width_sweep =
    List.map
      (fun width ->
        let n_eff = Security.effective_mac_bits ~n:width ~k:4 ~g_max in
        ( width,
          n_eff,
          Security.years_to_attack ~log2_p_success:(-.n_eff)
            ~attempts_per_sec:Security.dram_attempts_per_sec ))
      [ 48; 64; 80; 96 ]
  in
  {
    report = Security.report ~g_max ();
    k_sweep;
    chosen_k = Security.min_k ~n ~p_flip:0.01 ~target:0.01;
    mac_width_sweep;
  }

let to_string result =
  let module Table = Ptg_util.Table in
  String.concat ""
    [
      "Security analysis (Sections IV-G and VI-E, Equations 1-2)\n";
      Format.asprintf "%a@." Security.pp_report result.report;
      Printf.sprintf "\nSoft-match tolerance sweep (96-bit MAC, G_max=%d):\n"
        result.report.Security.g_max;
      Table.render
        ~align:[ Table.Right; Right; Right; Right; Right ]
        ~header:[ "k"; "P[unc.] @1%"; "P[unc.] @0.2%"; "n_eff (bits)"; "attack years" ]
        (List.map
           (fun r ->
             [
               string_of_int r.k;
               Printf.sprintf "%.3g" r.p_uncorrectable_1pct;
               Printf.sprintf "%.3g" r.p_uncorrectable_0p2pct;
               Printf.sprintf "%.1f" r.n_eff;
               Printf.sprintf "%.3g" r.years;
             ])
           result.k_sweep);
      Printf.sprintf
        "Chosen k = %d (smallest with <1%% uncorrectable MACs at p_flip = 1%%; paper: 4).\n\n"
        result.chosen_k;
      "MAC width ablation (Section VII-A), with k=4 correction:\n";
      Table.render
        ~align:[ Table.Right; Right; Right ]
        ~header:[ "MAC bits"; "n_eff"; "attack years" ]
        (List.map
           (fun (w, n_eff, years) ->
             [ string_of_int w; Printf.sprintf "%.1f" n_eff; Printf.sprintf "%.3g" years ])
           result.mac_width_sweep);
    ]
