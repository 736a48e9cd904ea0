(** Figure 8: distribution of PFN values across the page tables of 623
    simulated processes.

    Paper result being reproduced: 64.13% zero PTEs and 23.73% contiguous
    PFNs on average over 623 processes (24M PTEs), with >99% of lines
    having uniform flags — the locality the correction strategies exploit. *)

type result = {
  aggregate : Ptg_vm.Profile.aggregate;
  sample_rows : (float * float * float) array;
      (** (zero, contiguous, non-contiguous) for a decile sample of
          processes, sorted by contiguity — the Figure 8 curve shape *)
}

val run :
  ?jobs:int -> ?processes:int -> ?seed:int64 -> ?obs:Ptg_obs.Sink.t -> unit -> result
(** Default: 623 processes, matching the paper's survey size. [jobs]
    fans the per-process page-table synthesis across domains; each
    process draws from its own serially-split generator, so results are
    independent of the job count. *)

val to_string : result -> string
(** The report the [fig8] subcommand prints. *)

val to_csv : result -> path:string -> unit
