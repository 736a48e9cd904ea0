type pattern =
  | Single_sided of { aggressor : int; dummy : int }
  | Double_sided of { victim : int }
  | Many_sided of { aggressors : int list }
  | Synchronized_many_sided of {
      aggressors : int list;
      decoys : int list;
      ref_interval : int;
      window : int;
    }
  | Half_double of { victim : int; distance : int }

let pattern_name = function
  | Single_sided _ -> "single-sided"
  | Double_sided _ -> "double-sided"
  | Many_sided _ -> "many-sided"
  | Synchronized_many_sided _ -> "synchronized many-sided (TRRespass)"
  | Half_double _ -> "half-double"

let pp_pattern fmt p =
  match p with
  | Single_sided { aggressor; dummy } ->
      Format.fprintf fmt "single-sided(aggressor=%d, dummy=%d)" aggressor dummy
  | Double_sided { victim } -> Format.fprintf fmt "double-sided(victim=%d)" victim
  | Many_sided { aggressors } ->
      Format.fprintf fmt "many-sided(%d aggressors)" (List.length aggressors)
  | Synchronized_many_sided { aggressors; decoys; ref_interval; window } ->
      Format.fprintf fmt
        "sync-many-sided(%d aggressors, %d decoys, ref=%d, window=%d)"
        (List.length aggressors) (List.length decoys) ref_interval window
  | Half_double { victim; distance } ->
      Format.fprintf fmt "half-double(victim=%d, distance=%d)" victim distance

let rotation = function
  | Single_sided { aggressor; dummy } -> [ aggressor; dummy ]
  | Double_sided { victim } -> [ victim - 1; victim + 1 ]
  | Many_sided { aggressors } -> aggressors
  | Synchronized_many_sided { aggressors; _ } -> aggressors
  | Half_double { victim; distance } -> [ victim - distance; victim + distance ]

let aggressor_rows p =
  match p with
  | Synchronized_many_sided { aggressors; decoys; _ } ->
      List.sort_uniq compare (aggressors @ decoys)
  | _ -> List.sort_uniq compare (rotation p)

let victim_rows = function
  | Single_sided { aggressor; dummy = _ } -> [ aggressor - 1; aggressor + 1 ]
  | Double_sided { victim } -> [ victim ]
  | Many_sided { aggressors } | Synchronized_many_sided { aggressors; _ } ->
      List.sort_uniq compare
        (List.concat_map (fun a -> [ a - 1; a + 1 ]) aggressors)
  | Half_double { victim; distance = _ } -> [ victim ]

let schedule p ~iterations =
  match p with
  | Synchronized_many_sided { aggressors; decoys; ref_interval; window } ->
      if decoys = [] || aggressors = [] then invalid_arg "Attack.schedule: empty rows";
      if window >= ref_interval then invalid_arg "Attack.schedule: window >= ref_interval";
      let agg = Array.of_list aggressors and dec = Array.of_list decoys in
      let ai = ref 0 and di = ref 0 in
      Array.init (iterations * List.length aggressors) (fun i ->
          if i mod ref_interval < window then begin
            let r = dec.(!di mod Array.length dec) in
            incr di;
            r
          end
          else begin
            let r = agg.(!ai mod Array.length agg) in
            incr ai;
            r
          end)
  | _ ->
      let rot = Array.of_list (rotation p) in
      Array.init (iterations * Array.length rot) (fun i -> rot.(i mod Array.length rot))

let run dram ~channel ~bank pattern ~iterations ~start_time =
  let geometry = Ptg_dram.Dram.geometry dram in
  let sched = schedule pattern ~iterations in
  let now = ref start_time in
  Array.iteri
    (fun i row ->
      if row >= 0 && row < geometry.Ptg_dram.Geometry.rows_per_bank then begin
        (* Vary the column so consecutive same-row accesses in a rotation of
           one would still be distinguishable; the row alternation itself
           guarantees activations. *)
        let coords =
          { Ptg_dram.Geometry.channel; rank = bank / geometry.Ptg_dram.Geometry.banks_per_rank;
            bank; row; col = i land (geometry.Ptg_dram.Geometry.columns - 1) }
        in
        let addr = Ptg_dram.Geometry.encode geometry coords in
        now := !now + Ptg_dram.Dram.access_fast dram ~now:!now ~addr ~is_write:false
      end)
    sched;
  !now
