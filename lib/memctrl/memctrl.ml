type obs = {
  o_reads_total : Ptg_obs.Registry.counter;
  o_reads_pte : Ptg_obs.Registry.counter;
  o_reads_failed : Ptg_obs.Registry.counter;
  o_writes_total : Ptg_obs.Registry.counter;
  o_read_latency : Ptg_obs.Registry.histogram;
}

let obs_of_sink sink =
  let reg = Ptg_obs.Sink.registry sink in
  let c = Ptg_obs.Registry.counter reg in
  {
    o_reads_total = c "memctrl_reads_total";
    o_reads_pte = c "memctrl_reads_pte";
    o_reads_failed = c "memctrl_reads_failed";
    o_writes_total = c "memctrl_writes_total";
    o_read_latency = Ptg_obs.Registry.histogram reg "memctrl_read_latency";
  }

type t = {
  dram : Ptg_dram.Dram.t;
  engine : Ptguard.Engine.t option;
  obs : obs option;
  mutable now : int;
  mutable line_read_hooks : (addr:int64 -> is_pte:bool -> unit) list;
      (* newest first; invoked in subscription order on every read_line *)
}

let create ?engine ?obs dram =
  {
    dram;
    engine;
    obs = Option.map obs_of_sink obs;
    now = 0;
    line_read_hooks = [];
  }

let dram t = t.dram
let engine t = t.engine
let now t = t.now
let set_now t now = t.now <- now

(* Observer hook points. Activation and refresh observers forward to the
   DRAM device (one subscription stream shared with the mitigations);
   line-read observers are the controller's own — they see the request
   stream with its isPTE tag, which the DRAM layer does not carry. *)
let on_activate t f = Ptg_dram.Dram.on_activate t.dram f
let on_refresh t f = Ptg_dram.Dram.subscribe_refresh t.dram f

let on_line_read t f = t.line_read_hooks <- t.line_read_hooks @ [ f ]

let obs_incr t sel =
  match t.obs with None -> () | Some o -> Ptg_obs.Registry.incr (sel o)

type read = {
  data : Ptg_pte.Line.t option;
  integrity : Ptguard.Engine.integrity;
  latency : int;
}

let advance t = function
  | Some now -> t.now <- max t.now now
  | None -> t.now <- t.now + 1

(* The DRAM half of every read: clock, observers, counters and the timed
   device access. Returns the stored line and the DRAM latency. *)
let fetch t ?now ~addr ~is_pte () =
  advance t now;
  List.iter (fun f -> f ~addr ~is_pte) t.line_read_hooks;
  obs_incr t (fun o -> o.o_reads_total);
  if is_pte then obs_incr t (fun o -> o.o_reads_pte);
  let latency = Ptg_dram.Dram.access_fast t.dram ~now:t.now ~addr ~is_write:false in
  (Ptg_dram.Dram.read_line t.dram addr, latency)

let observe_latency t latency =
  match t.obs with
  | None -> ()
  | Some o -> Ptg_obs.Registry.observe o.o_read_latency (float_of_int latency)

let read_line t ?now ~addr ~is_pte () =
  let stored, dram_latency = fetch t ?now ~addr ~is_pte () in
  let result =
    match t.engine with
    | None ->
        { data = Some stored; integrity = Ptguard.Engine.Data_passthrough; latency = dram_latency }
    | Some engine ->
        let g = Ptguard.Engine.process_read engine ~addr ~is_pte stored in
        {
          data = g.Ptguard.Engine.line;
          integrity = g.Ptguard.Engine.integrity;
          latency = dram_latency + g.Ptguard.Engine.extra_latency;
        }
  in
  if Option.is_none result.data then obs_incr t (fun o -> o.o_reads_failed);
  observe_latency t result.latency;
  result

(* A data read: the engine always forwards a line for one, so this path
   has no failure case. *)
let read_data t ~addr =
  let stored, dram_latency = fetch t ~addr ~is_pte:false () in
  let data, extra_latency =
    match t.engine with
    | None -> (stored, 0)
    | Some engine -> Ptguard.Engine.process_data_read engine ~addr stored
  in
  observe_latency t (dram_latency + extra_latency);
  data

let write_line t ?now ~addr line () =
  advance t now;
  obs_incr t (fun o -> o.o_writes_total);
  let latency = Ptg_dram.Dram.access_fast t.dram ~now:t.now ~addr ~is_write:true in
  let stored =
    match t.engine with
    | None -> line
    | Some engine -> Ptguard.Engine.process_write engine ~addr line
  in
  Ptg_dram.Dram.write_line t.dram addr stored;
  latency

(* Word-level OS view: an untimed read-modify-write cycle through the
   controller. Data reads of a tampered protected line pass the raw bits
   through — intentionally, see Section IV-E. *)
let phys_mem t =
  {
    Ptg_vm.Phys_mem.read_word =
      (fun addr ->
        let line = read_data t ~addr:(Ptg_pte.Line.line_addr addr) in
        Ptg_pte.Line.get line (Int64.to_int (Int64.logand addr 63L) / 8));
    write_word =
      (fun addr v ->
        let base = Ptg_pte.Line.line_addr addr in
        let line = read_data t ~addr:base in
        Ptg_pte.Line.set line (Int64.to_int (Int64.logand addr 63L) / 8) v;
        ignore (write_line t ~addr:base line ()));
  }

let rekey t ~rng =
  match t.engine with
  | None -> ()
  | Some engine ->
      Ptguard.Engine.rekey engine ~rng
        ~iter_lines:(fun visit ->
          Ptg_dram.Dram.iter_stored t.dram (fun addr line -> visit ~addr line))
        ~write:(fun ~addr line -> Ptg_dram.Dram.write_line t.dram addr line)
