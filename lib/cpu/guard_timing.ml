type kind =
  | Unprotected
  | Guarded of {
      config : Ptguard.Config.t;
      p_data_protected : float;
      rng : Ptg_util.Rng.t;
    }

type obs = {
  o_reads : Ptg_obs.Registry.counter;
  o_mac_computations : Ptg_obs.Registry.counter;
}

type t = {
  kind : kind;
  obs : obs option;
  mutable mac_computations : int;
  mutable reads : int;
}

let obs_of_sink sink =
  let c = Ptg_obs.Registry.counter (Ptg_obs.Sink.registry sink) in
  { o_reads = c "guard_reads"; o_mac_computations = c "guard_mac_computations" }

(* Shared global: never carries a sink (it would cross-talk between
   experiments); build guarded instances with [of_config ?obs] instead. *)
let unprotected = { kind = Unprotected; obs = None; mac_computations = 0; reads = 0 }

let of_config ?(p_data_protected = 0.005) ?obs config ~rng =
  {
    kind = Guarded { config; p_data_protected; rng };
    obs = Option.map obs_of_sink obs;
    mac_computations = 0;
    reads = 0;
  }

let read_penalty t ~is_pte =
  t.reads <- t.reads + 1;
  (match t.obs with None -> () | Some o -> Ptg_obs.Registry.incr o.o_reads);
  match t.kind with
  | Unprotected -> 0
  | Guarded { config; p_data_protected; rng } -> (
      let charge () =
        t.mac_computations <- t.mac_computations + 1;
        (match t.obs with
        | None -> ()
        | Some o -> Ptg_obs.Registry.incr o.o_mac_computations);
        config.Ptguard.Config.mac_latency_cycles
      in
      match config.Ptguard.Config.design with
      | Ptguard.Config.Baseline ->
          (* Section IV: the MAC is recomputed on every DRAM read. *)
          charge ()
      | Ptguard.Config.Optimized ->
          if is_pte then charge ()
          else if Ptg_util.Rng.bernoulli rng p_data_protected then charge ()
          else 0)

let mac_computations t = t.mac_computations
let reads_observed t = t.reads
