open Ptg_snapshot

(* ------------------------------------------------------------------ *)
(* Warm-start store: <dir>/<key>.<count>.ptgs                          *)
(* ------------------------------------------------------------------ *)

(* The warm-start store is {!Sweep}'s; these two stay here for callers
   that name a fullsys checkpoint file themselves. *)
let path = Sweep.path
let default_keep = Sweep.default_keep

(* ------------------------------------------------------------------ *)
(* Fullsys                                                             *)
(* ------------------------------------------------------------------ *)

(* Keying a fullsys machine outside the scenario layer: everything
   [Fullsys.create] consumed, as JSON with alphabetical keys, hashed —
   the same recipe as [Scenario.prefix_hash], over the creation
   parameters instead of the scenario fields. *)
let fullsys_key ?(config = Fullsys.default_config) ?(pages = 2048) ~seed () =
  let module F = Ptg_rowhammer.Fault_model in
  let open Ptg_util.Json in
  let f = config.Fullsys.fault and int i = Int (Int64.of_int i) in
  let orient =
    F.(match f.orientation with All_true -> "true" | All_anti -> "anti" | Per_row_hash -> "hash")
  in
  let fault =
    [
      ("d2", Float f.F.distance2_weight); ("orient", String orient);
      ("pflip", Float f.F.p_flip); ("refresh", Float f.F.refresh_disturb_weight);
      ("rth", int f.F.rth);
    ]
  in
  [ ("attack", Bool config.Fullsys.attack); ("burst", int config.Fullsys.hammer_burst);
    ("fault", Obj fault); ("guarded", Bool config.Fullsys.guarded); ("pages", int pages);
    ("period", int config.Fullsys.hammer_period); ("seed", Int seed) ]
  |> (fun fields -> to_string (Obj fields))
  |> Codec.fnv1a64 |> Ptg_util.Bits.to_hex

(* One section per subsystem of the machine's current state, encoded
   in turn through one writer. *)
let fullsys_sections (m : Fullsys.t) =
  let s = Fullsys.state m in
  let b = Codec.writer () in
  let sec name fill =
    Codec.reset b;
    fill b;
    Snapshot.section ~name (Codec.contents b)
  in
  [
    sec "rng" (fun b -> Sections.put_words b s.Fullsys.s_rng);
    sec "dram" (fun b -> Sections.put_dram b s.Fullsys.s_dram);
    sec "fault" (fun b -> Sections.put_fault b s.Fullsys.s_fault);
    sec "engine" (fun b -> Codec.put_option b Sections.put_engine s.Fullsys.s_engine);
    sec "memctrl" (fun b -> Codec.put_int b s.Fullsys.s_mc_now);
    sec "vm" (fun b ->
        Sections.put_page_table b s.Fullsys.s_table;
        Sections.put_frame_allocator b s.Fullsys.s_alloc);
    sec "tlb" (fun b -> Sections.put_tlb b s.Fullsys.s_tlb);
    sec "translations" (fun b ->
        Codec.put_list b
          (fun b (vpn, paddr) ->
            Codec.put_i64 b vpn;
            Codec.put_i64 b paddr)
          s.Fullsys.s_translations);
    sec "counters" (fun b ->
        Codec.put_varint b s.Fullsys.s_instr;
        Codec.put_varint b s.Fullsys.s_now;
        Codec.put_varint b s.Fullsys.s_walks;
        Codec.put_varint b s.Fullsys.s_walk_corrections;
        Codec.put_varint b s.Fullsys.s_walk_exceptions;
        Codec.put_varint b s.Fullsys.s_refaults;
        Codec.put_varint b s.Fullsys.s_wrong_translations);
  ]

let fullsys_state_of_sections ~what sections : Fullsys.state =
  let sect name = Snapshot.reader ~what sections name in
  let finish r v =
    Codec.expect_end r;
    v
  in
  let r = sect "rng" in
  let s_rng = finish r (Sections.get_words r) in
  let r = sect "dram" in
  let s_dram = finish r (Sections.get_dram r) in
  let r = sect "fault" in
  let s_fault = finish r (Sections.get_fault r) in
  let r = sect "engine" in
  let s_engine = finish r (Codec.get_option r Sections.get_engine) in
  let r = sect "memctrl" in
  let s_mc_now = finish r (Codec.get_int r) in
  let r = sect "vm" in
  let s_table = Sections.get_page_table r in
  let s_alloc = finish r (Sections.get_frame_allocator r) in
  let r = sect "tlb" in
  let s_tlb = finish r (Sections.get_tlb r) in
  let r = sect "translations" in
  let s_translations =
    finish r
      (Codec.get_list r (fun r ->
           let vpn = Codec.get_i64 r in
           let paddr = Codec.get_i64 r in
           (vpn, paddr)))
  in
  let r = sect "counters" in
  let s_instr = Codec.get_varint r in
  let s_now = Codec.get_varint r in
  let s_walks = Codec.get_varint r in
  let s_walk_corrections = Codec.get_varint r in
  let s_walk_exceptions = Codec.get_varint r in
  let s_refaults = Codec.get_varint r in
  let s_wrong_translations = finish r (Codec.get_varint r) in
  {
    Fullsys.s_rng;
    s_dram;
    s_fault;
    s_engine;
    s_mc_now;
    s_table;
    s_alloc;
    s_tlb;
    s_translations;
    s_instr;
    s_now;
    s_walks;
    s_walk_corrections;
    s_walk_exceptions;
    s_refaults;
    s_wrong_translations;
  }

let fullsys_save ~path ~key m =
  Sweep.save ~path ~kind:"fullsys" ~key ~count:(Fullsys.instrs_done m)
    (fullsys_sections m)

type fullsys_outcome = {
  f_result : Fullsys.result;
  f_completed : bool;
  f_done : int;
  f_resumed_from : int option;
}

(* The machine is the state: [step] runs it on, [decode] builds one
   from the snapshot without constructing its page tables first, so an
   adopted checkpoint never pays for a cold machine, and a refused one
   leaves nothing half-restored behind. *)
let run_fullsys ?config ?pages ?key ?keep ?every ?poll ?dir ?adopt
    ?should_stop ?progress ~seed ~instrs () =
  let key =
    match key with Some k -> k | None -> fullsys_key ?config ?pages ~seed ()
  in
  let m, completed, resumed_from =
    Sweep.drive ?keep ?every ?poll ?dir ?adopt ?should_stop ?progress ~key
      {
        Sweep.kind = "fullsys";
        total = instrs;
        start = lazy (Fullsys.create ?config ?pages ~seed ());
        start_depth = 0;
        depth = Fullsys.instrs_done;
        step =
          (fun m n ->
            ignore (Fullsys.run m ~instrs:n);
            m);
        encode = fullsys_sections;
        decode =
          (fun ~what sections ->
            Some
              (Fullsys.of_state ?config ?pages ~seed
                 (fullsys_state_of_sections ~what sections)));
      }
  in
  {
    f_result = Fullsys.totals m;
    f_completed = completed;
    f_done = Fullsys.instrs_done m;
    f_resumed_from = resumed_from;
  }

(* ------------------------------------------------------------------ *)
(* Scenario entry point (the server's and the CLI's warm-start path)  *)
(* ------------------------------------------------------------------ *)

type served = {
  text : string option; (* None when stopped before completion *)
  completed : bool;
  resumed_from : int option;
}

(* Without an explicit cadence, poll fullsys every ~tenth of its budget
   and sweeps after every unit, so [should_stop] gets a timely look even
   when the caller never tuned [every]; a whole run is one piece. Polling
   saves nothing: the checkpoint waits for completion or a stop. *)
let default_poll = function
  | Scenario.Machine { instrs; _ } -> Some (max 1 (instrs / 10))
  | Scenario.Sweep _ -> Some 1
  | Scenario.Whole _ -> None

(* Scenario kinds the driver can slice: kill, persist, resume,
   byte-identically. *)
let sliceable t = default_poll (Scenario.plan t) <> None

(* Fullsys warm-starts by instruction prefix (keyed by
   [Scenario.prefix_hash]) and sweeps by unit prefix (keyed by the full
   [Scenario.hash] — units are only reusable for identical sizing). Even
   without [dir] a sliceable plan runs chunked, so [should_stop] and
   [progress] stay live; a whole run is one piece. *)
let run_scenario ?dir ?every ?adopt ?should_stop ?progress (t : Scenario.t) =
  let plan = Scenario.plan t in
  let poll = default_poll plan in
  match plan with
  | Scenario.Sweep s ->
      let o =
        Sweep.exec ?every ?poll ?dir ?adopt ?should_stop ?progress
          ~key:(Scenario.hash t) s
      in
      {
        text = Option.map Scenario.render o.Sweep.o_result;
        completed = o.o_completed;
        resumed_from = o.o_resumed_from;
      }
  | Scenario.Machine { seed; instrs; config } ->
      let o =
        run_fullsys ~config ?every ?poll ?dir ?adopt ?should_stop ?progress
          ~key:(Scenario.prefix_hash t) ~seed ~instrs ()
      in
      {
        text =
          (if o.f_completed then
             Some (Scenario.render (Scenario.Fullsys_out o.f_result))
           else None);
        completed = o.f_completed;
        resumed_from = o.f_resumed_from;
      }
  | Scenario.Whole run -> (
      match should_stop with
      | Some stop when stop () ->
          { text = None; completed = false; resumed_from = None }
      | _ ->
          {
            text = Some (Scenario.render (run ()));
            completed = true;
            resumed_from = None;
          })
