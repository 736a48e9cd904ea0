type kind =
  | Unprotected
  | Guarded of {
      config : Ptguard.Config.t;
      p_data_protected : float;
      rng : Ptg_util.Rng.t;
    }

(* A guard is a few words, so a registry source may read it directly. *)
type t = {
  kind : kind;
  mutable mac_computations : int;
  mutable reads : int;
}

(* Shared by every unprotected machine, on every domain, so nothing may
   write it: its path counts nothing and it carries no sink. *)
let unprotected = { kind = Unprotected; mac_computations = 0; reads = 0 }

let of_config ?(p_data_protected = 0.005) ?obs config ~rng =
  let t = { kind = Guarded { config; p_data_protected; rng }; mac_computations = 0; reads = 0 } in
  (match obs with
  | Some sink ->
      let source = Ptg_obs.Registry.source (Ptg_obs.Sink.registry sink) in
      source "guard_reads" (fun () -> t.reads);
      source "guard_mac_computations" (fun () -> t.mac_computations)
  | None -> ());
  t

let read_penalty t ~is_pte =
  match t.kind with
  | Unprotected -> 0
  | Guarded { config; p_data_protected; rng } -> (
      t.reads <- t.reads + 1;
      let charge () =
        t.mac_computations <- t.mac_computations + 1;
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
