(** Memory-access traces: external address streams as first-class
    workloads (the DRAMsim3 trace-frontend idiom).

    A trace is a chronological sequence of line-granularity memory
    accesses — [(addr, R/W, cycle)] — recorded from a synthetic
    workload's instruction stream or supplied from outside the
    simulator. Replay drives a {!Ptg_memctrl.Memctrl} and attaches any
    registered mitigation ({!Ptg_mitigations.Registry}) by name, so a
    new attack pattern is a trace file plus a registry lookup instead of
    a cross-cutting patch.

    Two on-disk formats, converted losslessly in either direction:

    - {b text} (one record per line, human-editable):
      {v # <workload>
0x48000000 R 0
0x48010040 W 3 v}
      Addresses are accepted in any [Int64.of_string] form and written
      back as [0x%Lx]; cycles are non-negative decimals; blank lines
      are skipped. Malformed input raises [Invalid_argument] naming the
      file and its 1-based line.
    - {b binary} (compact): magic ["PTGM"], a version byte (currently
      1), the workload name (varint length + bytes), the event count
      (varint), then per event a zigzag-varint address delta and a
      varint packing [(zigzag cycle_delta) lsl 1 lor is_write]. Both
      deltas are signed, so neither addresses nor cycles need to be
      monotone. See EXPERIMENTS.md for the normative grammar.

    Workload names obey {!validate_name} in both formats.

    Page-table-walk traces (paper Section VI-F) are ordinary traces
    recorded by {!record_walks}: one read per walk of the leaf-PTE line
    it fetched, so they save, load, convert and replay like any other. *)

type event = { addr : int64; is_write : bool; cycle : int }

type t = { workload : string; events : event array }

type format = Text | Binary

val record :
  ?instrs:int -> ?seed:int64 -> Ptg_workloads.Workload.spec -> t
(** Record the workload's memory operations (default 500K instructions):
    one event per [Load]/[Store] of the instruction stream, with
    [cycle] = instruction index. Deterministic for a given seed. *)

val record_walks :
  ?instrs:int -> ?seed:int64 -> Ptg_workloads.Workload.spec -> t
(** Run the workload on the timing core (default 500K instructions after
    a warmup of a quarter of that) and record one read event per
    page-table walk: [addr] is the leaf-PTE line the walk fetched and
    [cycle] the walk's ordinal (0, 1, 2, ...). The leaf region starts at
    the core's [data_region_bytes], and leaf line [k] covers virtual
    pages [8k..8k+7] of the workload. Deterministic for a given seed. *)

val length : t -> int

val validate_name : context:string -> string -> unit
(** The header-name rule of both formats: non-empty, no [\n]/[\r].
    Raises [Invalid_argument] prefixed with [context] on violation. *)

val save : t -> format:format -> path:string -> unit
(** Raises [Invalid_argument] if the workload name violates
    {!validate_name}. *)

val load : path:string -> t
(** Sniffs the format (binary iff the file starts with the magic) and
    parses. All malformed-input failures raise [Invalid_argument]
    naming the file — and, for the text format, the 1-based line. *)

val equal : t -> t -> bool

(** {1 Replay} *)

type replay_result = {
  events : int;
  reads : int;
  writes : int;
  activations : int;  (** row activations observed on the DRAM bus *)
  refreshes : int;  (** targeted row refreshes observed on the bus *)
  mitigation_refreshes : int;
      (** as accounted by the attached mitigation (0 when none) *)
}

val replay :
  ?mitigation:string ->
  ?params:(string * Ptg_mitigations.Registry.value) list ->
  ?pt_row:(channel:int -> bank:int -> row:int -> bool) ->
  ?seed:int64 ->
  t ->
  (replay_result, string) result
(** Drive the trace through a fresh memory controller, observing the
    bus via the {!Ptg_memctrl.Memctrl.on_activate} /
    [on_refresh] / [on_line_read] hook points. With [mitigation], the
    named plugin is instantiated from the registry ([params] overriding
    its defaults; [seed], default 42, feeds the RNG of randomized
    defenses; [pt_row] supplies the page-table-row oracle [soft-trr]
    needs). Unknown mitigation names, bad parameters and missing
    capabilities come back as [Error msg]. Deterministic: the result
    depends only on the trace, the mitigation spec and the seed. *)

val render_result : ?mitigation:string -> replay_result -> string
(** Stable human-readable report (the CLI/server output for
    [kind:"trace"] scenarios). *)
