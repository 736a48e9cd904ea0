(* The checkpoint contract, end to end: a run that is killed at any
   chunk boundary and resumed from the store finishes byte-identical to
   one that never stopped, for any chunk size, any job count and any
   warm-start depth. Demo-scale budgets keep each machine run fast. *)

module Checkpoint = Ptg_sim.Checkpoint
module Sweep = Ptg_sim.Sweep
module Fullsys = Ptg_sim.Fullsys
module Fig6 = Ptg_sim.Fig6
module Fig7 = Ptg_sim.Fig7
module Fig9 = Ptg_sim.Fig9
module Multicore_exp = Ptg_sim.Multicore_exp
module Scenario = Ptg_sim.Scenario
module Snapshot = Ptg_snapshot.Snapshot
module Codec = Ptg_snapshot.Codec

let seed = 42L
let instrs = 3_000

let with_dir f =
  let dir = Filename.temp_file "ptgstore" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* Stop after [n] chunk boundaries: should_stop is polled once before
   every chunk, so the first [n] polls pass and the next one stops. *)
let stop_after n =
  let polls = ref 0 in
  fun () ->
    incr polls;
    !polls > n

let check_result = Alcotest.testable Fullsys.pp_result ( = )

(* ------------------------------------------------------------------ *)
(* Fullsys                                                             *)
(* ------------------------------------------------------------------ *)

let uninterrupted_machine =
  lazy
    (let m = Fullsys.create ~seed () in
     ignore (Fullsys.run m ~instrs);
     m)

let uninterrupted = lazy (Fullsys.totals (Lazy.force uninterrupted_machine))
let uninterrupted_state = lazy (Fullsys.state (Lazy.force uninterrupted_machine))

let test_chunked_equals_plain () =
  List.iter
    (fun every ->
      let o = Checkpoint.run_fullsys ~every ~seed ~instrs () in
      Alcotest.(check bool)
        (Printf.sprintf "every=%d completed" every)
        true o.Checkpoint.f_completed;
      Alcotest.check check_result
        (Printf.sprintf "every=%d result" every)
        (Lazy.force uninterrupted) o.Checkpoint.f_result)
    [ 500; 1_000; 7_000 ]

let test_killed_and_resumed_identical () =
  with_dir (fun dir ->
      let killed =
        Checkpoint.run_fullsys ~every:1_000 ~dir
          ~should_stop:(stop_after 1) ~seed ~instrs ()
      in
      Alcotest.(check bool) "stopped early" false killed.Checkpoint.f_completed;
      Alcotest.(check int) "one chunk done" 1_000 killed.Checkpoint.f_done;
      let resumed = Checkpoint.run_fullsys ~every:1_000 ~dir ~seed ~instrs () in
      Alcotest.(check bool) "finished" true resumed.Checkpoint.f_completed;
      Alcotest.(check (option int))
        "adopted the kill point" (Some 1_000) resumed.Checkpoint.f_resumed_from;
      Alcotest.check check_result "byte-identical to uninterrupted"
        (Lazy.force uninterrupted) resumed.Checkpoint.f_result)

let test_warm_start_full_depth () =
  with_dir (fun dir ->
      let first = Checkpoint.run_fullsys ~dir ~seed ~instrs () in
      Alcotest.(check (option int))
        "first run is cold" None first.Checkpoint.f_resumed_from;
      (* The completion checkpoint serves the identical re-request
         without executing a single instruction. *)
      let again =
        Checkpoint.run_fullsys ~dir
          ~should_stop:(fun () -> Alcotest.fail "re-ran a finished run")
          ~seed ~instrs ()
      in
      Alcotest.(check (option int))
        "adopted at full depth" (Some instrs) again.Checkpoint.f_resumed_from;
      Alcotest.check check_result "identical result" first.Checkpoint.f_result
        again.Checkpoint.f_result)

let test_adopt_false_starts_cold () =
  with_dir (fun dir ->
      ignore (Checkpoint.run_fullsys ~every:1_000 ~dir ~seed ~instrs ());
      let progressed = ref [] in
      let cold =
        Checkpoint.run_fullsys ~every:1_000 ~dir ~adopt:false
          ~progress:(fun ~done_count ~total:_ ->
            progressed := done_count :: !progressed)
          ~seed ~instrs ()
      in
      Alcotest.(check (option int))
        "store ignored" None cold.Checkpoint.f_resumed_from;
      Alcotest.(check (list int))
        "every chunk re-executed" [ 1_000; 2_000; 3_000 ]
        (List.rev !progressed);
      Alcotest.check check_result "still the same bytes"
        (Lazy.force uninterrupted) cold.Checkpoint.f_result)

let test_damaged_checkpoint_skipped () =
  with_dir (fun dir ->
      ignore (Checkpoint.run_fullsys ~every:1_000 ~dir ~seed ~instrs ());
      let key = Checkpoint.fullsys_key ~seed () in
      (* Damage the deepest checkpoint: resume must fall back to the
         next one rather than fail (the store is an optimization). *)
      let deepest = Sweep.path ~dir ~key instrs in
      let bytes = In_channel.with_open_bin deepest In_channel.input_all in
      Out_channel.with_open_bin deepest (fun oc ->
          Out_channel.output_string oc
            (String.sub bytes 0 (String.length bytes - 1)));
      let o = Checkpoint.run_fullsys ~every:1_000 ~dir ~seed ~instrs () in
      Alcotest.(check (option int))
        "fell back to the previous depth" (Some 2_000)
        o.Checkpoint.f_resumed_from;
      Alcotest.check check_result "result unharmed"
        (Lazy.force uninterrupted) o.Checkpoint.f_result)

let test_restore_rejects_wrong_key () =
  with_dir (fun dir ->
      let key = Checkpoint.fullsys_key ~seed () in
      ignore (Checkpoint.run_fullsys ~every:instrs ~dir ~seed ~instrs ());
      let path = Sweep.path ~dir ~key instrs in
      let load key = Sweep.load ~kind:"fullsys" ~key path in
      Alcotest.(check int) "its own key loads" instrs (fst (load key));
      Alcotest.(check bool)
        "explicit load with a foreign key raises" true
        (match load "deadbeefdeadbeef" with
        | _ -> false
        | exception Invalid_argument _ -> true))

(* A fault section carrying a NaN, infinite or negative disturbance
   value, re-sealed under a valid container hash, still loads, but the
   machine built from it is refused with a message naming the row's
   key: a NaN row would never flip again. The run that finds only such
   a checkpoint computes cold and still gets the uninterrupted
   result. *)
let test_bad_disturbance_refused () =
  with_dir (fun dir ->
      ignore (Checkpoint.run_fullsys ~every:instrs ~dir ~seed ~instrs ());
      let key = Checkpoint.fullsys_key ~seed () in
      let path = Sweep.path ~dir ~key instrs in
      let sections = Snapshot.load ~path in
      let fault =
        Ptg_snapshot.Sections.get_fault (Snapshot.reader ~what:path sections "fault")
      in
      let (c, b, r), rest =
        match fault.Ptg_rowhammer.Fault_model.s_disturbance with
        | (key, _) :: rest -> (key, rest)
        | [] -> Alcotest.fail "the checkpoint holds no disturbance"
      in
      List.iter
        (fun bad ->
          let w = Codec.writer () in
          Ptg_snapshot.Sections.put_fault w
            { fault with Ptg_rowhammer.Fault_model.s_disturbance = ((c, b, r), bad) :: rest };
          Snapshot.save ~path
            (List.map
               (fun (sec : Snapshot.section) ->
                 if sec.Snapshot.name = "fault" then
                   Snapshot.section ~name:"fault" (Codec.contents w)
                 else sec)
               sections);
          let _, loaded = Sweep.load ~kind:"fullsys" ~key path in
          let s_fault =
            Ptg_snapshot.Sections.get_fault (Snapshot.reader ~what:path loaded "fault")
          in
          let state = { (Lazy.force uninterrupted_state) with Fullsys.s_fault } in
          (match Fullsys.of_state ~seed state with
          | _ -> Alcotest.failf "disturbance %g restored" bad
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%S names the key" msg)
                true
                (Test_snapshot_container.contains
                   ~sub:(Printf.sprintf "channel %d bank %d row %d" c b r)
                   msg));
          let o = Checkpoint.run_fullsys ~every:instrs ~dir ~seed ~instrs () in
          Alcotest.(check (option int))
            (Printf.sprintf "%g: not adopted" bad)
            None o.Checkpoint.f_resumed_from;
          Alcotest.check check_result
            (Printf.sprintf "%g: cold result" bad)
            (Lazy.force uninterrupted) o.Checkpoint.f_result)
        [ Float.nan; Float.infinity; -1.0 ])

(* A store written before the fault model dropped its flip journal
   carries, in its fault section, the flips as a list ahead of the
   count. Such a file is skipped as damaged, never fatal: the run
   computes cold and gets the uninterrupted result. *)
let test_journal_store_skipped () =
  with_dir (fun dir ->
      ignore (Checkpoint.run_fullsys ~every:instrs ~dir ~seed ~instrs ());
      let key = Checkpoint.fullsys_key ~seed () in
      let path = Sweep.path ~dir ~key instrs in
      let sections = Snapshot.load ~path in
      let fault =
        Ptg_snapshot.Sections.get_fault (Snapshot.reader ~what:path sections "fault")
      in
      let w = Codec.writer () in
      Ptg_snapshot.Sections.put_words w fault.Ptg_rowhammer.Fault_model.s_rng;
      Codec.put_list w
        (fun w ((c, b, r), d) ->
          Codec.put_int w c;
          Codec.put_int w b;
          Codec.put_int w r;
          Codec.put_float w d)
        fault.s_disturbance;
      Codec.put_list w
        (fun w bit ->
          Codec.put_i64 w 0L;
          List.iter (Codec.put_int w) [ bit; 0; 0; 0 ])
        (List.init fault.s_flip_count (fun i -> i mod 512));
      Codec.put_int w fault.s_flip_count;
      Snapshot.save ~path
        (List.map
           (fun (sec : Snapshot.section) ->
             if sec.Snapshot.name = "fault" then
               Snapshot.section ~name:"fault" (Codec.contents w)
             else sec)
           sections);
      let o = Checkpoint.run_fullsys ~every:instrs ~dir ~seed ~instrs () in
      Alcotest.(check (option int)) "not adopted" None o.Checkpoint.f_resumed_from;
      Alcotest.check check_result "cold result" (Lazy.force uninterrupted)
        o.Checkpoint.f_result)

(* Stored snapshot bytes are themselves deterministic: two cold runs of
   the same machine leave byte-identical stores. Only the deepest
   [default_keep] prefixes survive pruning. *)
let test_store_bytes_deterministic () =
  with_dir (fun dir1 ->
      with_dir (fun dir2 ->
          ignore (Checkpoint.run_fullsys ~every:1_000 ~dir:dir1 ~seed ~instrs ());
          ignore (Checkpoint.run_fullsys ~every:1_000 ~dir:dir2 ~seed ~instrs ());
          let key = Checkpoint.fullsys_key ~seed () in
          List.iter
            (fun n ->
              let read d =
                In_channel.with_open_bin
                  (Sweep.path ~dir:d ~key n)
                  In_channel.input_all
              in
              Alcotest.(check bool)
                (Printf.sprintf "checkpoint %d identical" n)
                true
                (read dir1 = read dir2))
            [ 2_000; 3_000 ]))

(* A multi-chunk run must not leave one file per chunk behind: each
   deeper save prunes the store to the deepest [keep] prefixes, so the
   superseded shallow checkpoints disappear. *)
let test_store_pruned_to_deepest () =
  with_dir (fun dir ->
      ignore (Checkpoint.run_fullsys ~every:500 ~dir ~seed ~instrs ());
      let key = Checkpoint.fullsys_key ~seed () in
      Alcotest.(check (list int))
        "deepest two kept, rest pruned" [ 3_000; 2_500 ]
        (Sweep.stored_counts ~dir ~key);
      (* keep:1 tightens the bound; the survivor still resumes. *)
      with_dir (fun dir ->
          ignore
            (Checkpoint.run_fullsys ~keep:1 ~every:1_000 ~dir ~seed ~instrs ());
          Alcotest.(check (list int))
            "keep:1 leaves only the deepest" [ 3_000 ]
            (Sweep.stored_counts ~dir ~key);
          let o = Checkpoint.run_fullsys ~keep:1 ~every:1_000 ~dir ~seed ~instrs () in
          Alcotest.(check (option int))
            "survivor adopted" (Some 3_000) o.Checkpoint.f_resumed_from))

(* ------------------------------------------------------------------ *)
(* Fig6 row batches                                                    *)
(* ------------------------------------------------------------------ *)

let workloads =
  List.filteri (fun i _ -> i < 4) Ptg_workloads.Workload.all

let fig6_args = (600, 200, Ptguard.Config.baseline)

let fig6_run ?jobs ?(key = "fig6") ?every ?dir ?adopt ?should_stop () =
  let instrs, warmup, config = fig6_args in
  Sweep.exec ~key ?every ?dir ?adopt ?should_stop
    (Fig6.sweep ?jobs ~instrs ~warmup ~seed ~config workloads)

let fig6_reference =
  lazy
    (let instrs, warmup, config = fig6_args in
     Fig6.run_rows ~jobs:1 ~instrs ~warmup ~seed ~config workloads)

let test_fig6_batched_equals_plain () =
  List.iter
    (fun every ->
      let o = fig6_run ~jobs:1 ~every () in
      Alcotest.(check bool)
        (Printf.sprintf "every=%d completed" every)
        true o.Sweep.o_completed;
      Alcotest.(check bool)
        (Printf.sprintf "every=%d rows" every)
        true
        (o.Sweep.o_units = Lazy.force fig6_reference))
    [ 1; 3; 10 ]

let test_fig6_jobs_invariant () =
  (* The acceptance bar for sharing a store across servers: the rows —
     and therefore the snapshot bytes — cannot depend on -j. *)
  with_dir (fun dir1 ->
      with_dir (fun dir2 ->
          let a = fig6_run ~jobs:1 ~every:2 ~dir:dir1 () in
          let b = fig6_run ~jobs:3 ~every:2 ~dir:dir2 () in
          Alcotest.(check bool)
            "rows identical across -j" true
            (a.Sweep.o_units = b.Sweep.o_units);
          let files d =
            Sys.readdir d |> Array.to_list |> List.sort compare
            |> List.map (fun n ->
                   ( n,
                     Ptg_util.Bits.to_hex
                       (Snapshot.content_hash
                          (Snapshot.load ~path:(Filename.concat d n))) ))
          in
          Alcotest.(check bool)
            "store hashes identical across -j" true (files dir1 = files dir2)))

let test_fig6_killed_and_resumed () =
  with_dir (fun dir ->
      let killed = fig6_run ~every:1 ~dir ~should_stop:(stop_after 2) () in
      Alcotest.(check bool) "stopped" false killed.Sweep.o_completed;
      Alcotest.(check bool) "no aggregate yet" true
        (killed.Sweep.o_result = None);
      Alcotest.(check int) "two rows done" 2
        (List.length killed.Sweep.o_units);
      let resumed = fig6_run ~every:1 ~dir () in
      Alcotest.(check (option int))
        "adopted the row prefix" (Some 2) resumed.Sweep.o_resumed_from;
      Alcotest.(check bool)
        "rows byte-identical to uninterrupted" true
        (resumed.Sweep.o_units = Lazy.force fig6_reference);
      Alcotest.(check bool)
        "aggregate equals of_rows" true
        (resumed.Sweep.o_result
        = Some (Fig6.of_rows (Lazy.force fig6_reference))))

let test_fig6_prefix_not_adopted_for_other_workloads () =
  with_dir (fun dir ->
      (* Same explicit key, different workload list: the stored prefix
         must be rejected by the row-name check, not silently reused. *)
      ignore (fig6_run ~key:"cafe" ~every:1 ~dir ());
      let instrs, warmup, config = fig6_args in
      let others =
        List.filteri (fun i _ -> i >= 4 && i < 8) Ptg_workloads.Workload.all
      in
      let o =
        Sweep.exec ~key:"cafe" ~every:1 ~dir
          (Fig6.sweep ~instrs ~warmup ~seed ~config others)
      in
      Alcotest.(check (option int))
        "foreign prefix ignored" None o.Sweep.o_resumed_from)

(* ------------------------------------------------------------------ *)
(* Fig7 point batches                                                  *)
(* ------------------------------------------------------------------ *)

let fig7_args = (600, 200) (* instrs, warmup *)
let fig7_workloads = List.filteri (fun i _ -> i < 2) Ptg_workloads.Workload.all
let fig7_latencies = [ 5; 10 ]

let fig7_run ?every ?dir ?should_stop ?(latencies = fig7_latencies) () =
  let instrs, warmup = fig7_args in
  Sweep.exec ~key:"fig7" ?every ?dir ?should_stop
    (Fig7.sweep ~jobs:1 ~latencies ~workloads:fig7_workloads ~instrs ~warmup
       ~seed ())

let fig7_reference =
  lazy
    (let instrs, warmup = fig7_args in
     Fig7.run ~jobs:1 ~instrs ~warmup ~seed ~latencies:fig7_latencies
       ~workloads:fig7_workloads ())

let test_fig7_killed_and_resumed () =
  with_dir (fun dir ->
      (* Poll 1 admits the baseline chunk, poll 2 admits one point,
         poll 3 stops. *)
      let killed = fig7_run ~every:1 ~dir ~should_stop:(stop_after 2) () in
      Alcotest.(check bool) "stopped" false killed.Sweep.o_completed;
      Alcotest.(check int) "one point done" 1
        (List.length killed.Sweep.o_units);
      let resumed = fig7_run ~every:1 ~dir () in
      Alcotest.(check (option int))
        "adopted the point prefix" (Some 1) resumed.Sweep.o_resumed_from;
      Alcotest.(check bool)
        "result byte-identical to uninterrupted" true
        (resumed.Sweep.o_result = Some (Lazy.force fig7_reference)))

let test_fig7_base_only_checkpoint_adopted () =
  with_dir (fun dir ->
      (* Killed after the baselines but before any point: the count-0
         checkpoint still spares the resume the whole baseline sweep. *)
      let killed = fig7_run ~every:1 ~dir ~should_stop:(stop_after 1) () in
      Alcotest.(check int) "no points yet" 0
        (List.length killed.Sweep.o_units);
      let resumed = fig7_run ~every:1 ~dir () in
      Alcotest.(check (option int))
        "baselines adopted at depth 0" (Some 0)
        resumed.Sweep.o_resumed_from;
      Alcotest.(check bool)
        "result byte-identical to uninterrupted" true
        (resumed.Sweep.o_result = Some (Lazy.force fig7_reference)))

let test_fig7_foreign_sweep_not_adopted () =
  with_dir (fun dir ->
      (* Same explicit key, different latency sweep: the stored point
         prefix no longer matches the case list and must be ignored. *)
      let instrs, warmup = fig7_args in
      ignore
        (Sweep.exec ~key:"cafe" ~every:1 ~dir
           (Fig7.sweep ~jobs:1 ~latencies:fig7_latencies
              ~workloads:fig7_workloads ~instrs ~warmup ~seed ()));
      let o =
        Sweep.exec ~key:"cafe" ~every:1 ~dir
          (Fig7.sweep ~jobs:1 ~latencies:[ 5; 15 ] ~workloads:fig7_workloads
             ~instrs ~warmup ~seed ())
      in
      Alcotest.(check (option int))
        "foreign sweep ignored" None o.Sweep.o_resumed_from)

(* ------------------------------------------------------------------ *)
(* Fig9 workload batches                                               *)
(* ------------------------------------------------------------------ *)

let fig9_lines = 40

let fig9_workloads =
  List.filteri (fun i _ -> i < 2) Ptg_workloads.Workload.fig9_subset

let fig9_run ?every ?dir ?should_stop () =
  Sweep.exec ~key:"fig9" ?every ?dir ?should_stop
    (Fig9.sweep ~jobs:1 ~workloads:fig9_workloads ~lines_per_point:fig9_lines
       ~seed ())

let fig9_reference =
  lazy
    (Fig9.run ~jobs:1 ~lines_per_point:fig9_lines ~seed
       ~workloads:fig9_workloads ())

let test_fig9_killed_and_resumed () =
  with_dir (fun dir ->
      let killed = fig9_run ~every:1 ~dir ~should_stop:(stop_after 1) () in
      Alcotest.(check bool) "stopped" false killed.Sweep.o_completed;
      Alcotest.(check int) "one workload done" 1
        (List.length killed.Sweep.o_units);
      let resumed = fig9_run ~every:1 ~dir () in
      Alcotest.(check (option int))
        "adopted the workload prefix" (Some 1)
        resumed.Sweep.o_resumed_from;
      Alcotest.(check bool)
        "result byte-identical to uninterrupted" true
        (resumed.Sweep.o_result = Some (Lazy.force fig9_reference)))

(* A hash-valid checkpoint whose part carries fewer cells than the run
   has flip probabilities answers a different run: it must not be
   adopted (assembling it would index past its cells). *)
let test_fig9_short_part_not_adopted () =
  with_dir (fun dir ->
      let sweep =
        Fig9.sweep ~jobs:1 ~workloads:fig9_workloads
          ~lines_per_point:fig9_lines ~seed ()
      in
      ignore
        (Sweep.exec ~key:"fig9" ~every:1 ~dir ~should_stop:(stop_after 1) sweep);
      let p = Sweep.path ~dir ~key:"fig9" 1 in
      let sections = Snapshot.load ~path:p in
      let r = Snapshot.reader ~what:p sections sweep.Sweep.section in
      let total = Codec.get_varint r in
      let header = Codec.get_raw r (String.length sweep.Sweep.header) in
      let parts =
        Codec.get_list r sweep.Sweep.get
        |> List.map (fun ((w : Fig9.workload_result), steps) ->
               ({ w with Fig9.cells = [ List.hd w.Fig9.cells ] }, steps))
      in
      let b = Codec.writer () in
      Codec.put_varint b total;
      Codec.put_raw b header;
      Codec.put_list b sweep.Sweep.put parts;
      let short = Snapshot.section ~name:sweep.Sweep.section (Codec.contents b) in
      Snapshot.save ~path:p
        (List.map
           (fun s -> if s.Snapshot.name = short.Snapshot.name then short else s)
           sections);
      let resumed = Sweep.exec ~key:"fig9" ~every:1 ~dir sweep in
      Alcotest.(check (option int))
        "short part ignored" None resumed.Sweep.o_resumed_from;
      Alcotest.(check bool)
        "result equals the cold result" true
        (resumed.Sweep.o_result = Some (Lazy.force fig9_reference)))

(* ------------------------------------------------------------------ *)
(* Multicore row batches                                               *)
(* ------------------------------------------------------------------ *)

let mc_same = List.filteri (fun i _ -> i < 2) Ptg_workloads.Workload.all
let mc_instrs = 1_500

let mc_run ?every ?dir ?should_stop () =
  Sweep.exec ~key:"multicore" ?every ?dir ?should_stop
    (Multicore_exp.sweep ~jobs:1 ~same:mc_same ~instrs_per_core:mc_instrs
       ~mixes:1 ~seed ())

let mc_reference =
  lazy
    (Multicore_exp.run ~jobs:1 ~instrs_per_core:mc_instrs ~seed ~same:mc_same
       ~mixes:1 ())

let test_multicore_killed_and_resumed () =
  with_dir (fun dir ->
      let killed = mc_run ~every:1 ~dir ~should_stop:(stop_after 1) () in
      Alcotest.(check bool) "stopped" false killed.Sweep.o_completed;
      Alcotest.(check int) "one row done" 1
        (List.length killed.Sweep.o_units);
      let resumed = mc_run ~every:1 ~dir () in
      Alcotest.(check (option int))
        "adopted the row prefix" (Some 1) resumed.Sweep.o_resumed_from;
      Alcotest.(check bool)
        "result byte-identical to uninterrupted" true
        (resumed.Sweep.o_result = Some (Lazy.force mc_reference)))

(* ------------------------------------------------------------------ *)
(* Every kind through the one driver                                   *)
(* ------------------------------------------------------------------ *)

(* One row per checkpoint kind. [run] runs the kind under [key] in
   chunks (so a finished store holds its deepest two depths) and reports
   the adopted depth and whether the result equals the uninterrupted
   one; [foreign] fills the store under the same key from a different
   case list. *)
type kind_row = {
  kind : string;
  key : string;
  run : ?should_stop:(unit -> bool) -> string -> int option * bool;
  foreign : (string -> unit) option;
}

let kind_rows =
  let instrs6, warmup6, config6 = fig6_args in
  let instrs7, warmup7 = fig7_args in
  let other_workloads lo n = List.filteri (fun i _ -> i >= lo && i < lo + n) in
  [
    {
      kind = "fullsys";
      key = Checkpoint.fullsys_key ~seed ();
      run =
        (fun ?should_stop dir ->
          let o =
            Checkpoint.run_fullsys ~every:1_000 ~dir ?should_stop ~seed ~instrs ()
          in
          ( o.Checkpoint.f_resumed_from,
            o.Checkpoint.f_result = Lazy.force uninterrupted ));
      foreign = None;
    };
    {
      kind = "fig6";
      key = "fig6";
      run =
        (fun ?should_stop dir ->
          let o = fig6_run ~jobs:1 ~every:1 ~dir ?should_stop () in
          ( o.Sweep.o_resumed_from,
            o.Sweep.o_units = Lazy.force fig6_reference ));
      foreign =
        Some
          (fun dir ->
            ignore
              (Sweep.exec ~key:"fig6" ~every:1 ~dir
                 (Fig6.sweep ~jobs:1 ~instrs:instrs6 ~warmup:warmup6 ~seed
                    ~config:config6
                    (other_workloads 4 4 Ptg_workloads.Workload.all))));
    };
    {
      kind = "fig7";
      key = "fig7";
      run =
        (fun ?should_stop dir ->
          let o = fig7_run ~every:1 ~dir ?should_stop () in
          ( o.Sweep.o_resumed_from,
            o.Sweep.o_result = Some (Lazy.force fig7_reference) ));
      foreign =
        Some
          (fun dir ->
            ignore
              (Sweep.exec ~key:"fig7" ~every:1 ~dir
                 (Fig7.sweep ~jobs:1 ~latencies:fig7_latencies
                    ~workloads:(other_workloads 2 2 Ptg_workloads.Workload.all)
                    ~instrs:instrs7 ~warmup:warmup7 ~seed ())));
    };
    {
      kind = "fig9";
      key = "fig9";
      run =
        (fun ?should_stop dir ->
          let o = fig9_run ~every:1 ~dir ?should_stop () in
          ( o.Sweep.o_resumed_from,
            o.Sweep.o_result = Some (Lazy.force fig9_reference) ));
      foreign =
        Some
          (fun dir ->
            ignore
              (Sweep.exec ~key:"fig9" ~every:1 ~dir
                 (Fig9.sweep ~jobs:1
                    ~workloads:
                      (other_workloads 2 2 Ptg_workloads.Workload.fig9_subset)
                    ~lines_per_point:fig9_lines ~seed ())));
    };
    {
      kind = "multicore";
      key = "multicore";
      run =
        (fun ?should_stop dir ->
          let o = mc_run ~every:1 ~dir ?should_stop () in
          ( o.Sweep.o_resumed_from,
            o.Sweep.o_result = Some (Lazy.force mc_reference) ));
      foreign =
        Some
          (fun dir ->
            ignore
              (Sweep.exec ~key:"multicore" ~every:1 ~dir
                 (Multicore_exp.sweep ~jobs:1
                    ~same:(other_workloads 2 2 Ptg_workloads.Workload.all)
                    ~instrs_per_core:mc_instrs ~mixes:1 ~seed ())));
    };
  ]

let check_cold row (resumed, same) =
  Alcotest.(check (option int)) (row.kind ^ ": store ignored") None resumed;
  Alcotest.(check bool) (row.kind ^ ": result unchanged") true same

(* A damaged deepest checkpoint demotes to the next depth: the store is
   an optimization, never a reason to fail or to drift. *)
let test_every_kind_damaged_falls_back () =
  List.iter
    (fun row ->
      with_dir (fun dir ->
          ignore (row.run dir);
          match Sweep.stored_counts ~dir ~key:row.key with
          | deepest :: next :: _ ->
              let p = Sweep.path ~dir ~key:row.key deepest in
              let bytes = In_channel.with_open_bin p In_channel.input_all in
              Out_channel.with_open_bin p (fun oc ->
                  Out_channel.output_string oc
                    (String.sub bytes 0 (String.length bytes - 1)));
              let resumed, same = row.run dir in
              Alcotest.(check (option int))
                (row.kind ^ ": fell back to the next depth") (Some next) resumed;
              Alcotest.(check bool) (row.kind ^ ": result unchanged") true same
          | counts ->
              Alcotest.failf "%s: store holds %d checkpoints, want 2" row.kind
                (List.length counts)))
    kind_rows

(* Rewrite a stored checkpoint's meta header to claim another kind; the
   payload sections stay exactly as the real kind wrote them. *)
let relabel ~kind path =
  let sections = Snapshot.load ~path in
  let r = Snapshot.reader ~what:path sections "meta" in
  let _kind = Ptg_snapshot.Codec.get_string r in
  let key = Ptg_snapshot.Codec.get_string r in
  let count = Ptg_snapshot.Codec.get_varint r in
  let b = Ptg_snapshot.Codec.writer () in
  Ptg_snapshot.Codec.put_string b kind;
  Ptg_snapshot.Codec.put_string b key;
  Ptg_snapshot.Codec.put_varint b count;
  let meta = Snapshot.section ~name:"meta" (Ptg_snapshot.Codec.contents b) in
  Snapshot.save ~path
    (List.map (fun s -> if s.Snapshot.name = "meta" then meta else s) sections)

(* Same key, same depths, another meta kind (each row claims the next
   row's kind): nothing is adopted. *)
let test_every_kind_foreign_meta_ignored () =
  List.iteri
    (fun i row ->
      let other = List.nth kind_rows ((i + 1) mod List.length kind_rows) in
      with_dir (fun dir ->
          ignore (row.run dir);
          let counts = Sweep.stored_counts ~dir ~key:row.key in
          Alcotest.(check int) (row.kind ^ ": two checkpoints stored") 2
            (List.length counts);
          List.iter
            (fun n ->
              relabel ~kind:other.kind (Sweep.path ~dir ~key:row.key n))
            counts;
          check_cold row (row.run dir)))
    kind_rows

(* Same key, another case list: the stored prefix answers different
   cases and is ignored. *)
let test_every_kind_foreign_cases_ignored () =
  List.iter
    (fun row ->
      Option.iter
        (fun foreign ->
          with_dir (fun dir ->
              foreign dir;
              Alcotest.(check bool)
                (row.kind ^ ": foreign prefix stored") true
                (Sweep.stored_counts ~dir ~key:row.key <> []);
              check_cold row (row.run dir)))
        row.foreign)
    kind_rows

(* A run stopped before any step has nothing new to keep and must not
   write a checkpoint: a cold fullsys file would sit at depth 0, which no
   run adopts, and take the one fallback slot pruning leaves. *)
let test_every_kind_stop_before_step_writes_nothing () =
  List.iter
    (fun row ->
      with_dir (fun dir ->
          ignore (row.run ~should_stop:(fun () -> true) dir);
          Alcotest.(check (list int))
            (row.kind ^ ": cold stop writes nothing") []
            (Sweep.stored_counts ~dir ~key:row.key);
          ignore (row.run ~should_stop:(stop_after 1) dir);
          let kept = Sweep.stored_counts ~dir ~key:row.key in
          ignore (row.run ~should_stop:(fun () -> true) dir);
          Alcotest.(check (list int))
            (row.kind ^ ": stop straight after adoption writes nothing") kept
            (Sweep.stored_counts ~dir ~key:row.key)))
    kind_rows

(* Every sweep, filled one unit per checkpoint at demo scale: its kind
   and a run over a store. [exec] reports whether the run completed with
   a result. *)
type sweep_row = { s_kind : string; exec : ?keep:int -> string -> bool }

let sweep_row kind sweep =
  {
    s_kind = kind;
    exec =
      (fun ?keep dir ->
        let o = Sweep.exec ?keep ~key:kind ~every:1 ~dir sweep in
        o.Sweep.o_completed && Option.is_some o.Sweep.o_result);
  }

let sweep_rows =
  lazy
    [
      sweep_row "fig6"
        (Fig6.sweep ~jobs:1 ~instrs:600 ~warmup:200 ~seed
           ~config:Ptguard.Config.baseline
           (List.filteri (fun i _ -> i < 2) Ptg_workloads.Workload.all));
      sweep_row "fig7"
        (Fig7.sweep ~jobs:1 ~latencies:[ 5 ]
           ~workloads:(List.filteri (fun i _ -> i < 1) Ptg_workloads.Workload.all)
           ~instrs:600 ~warmup:200 ~seed ());
      sweep_row "fig9"
        (Fig9.sweep ~jobs:1 ~workloads:fig9_workloads ~lines_per_point:10 ~seed
           ());
      sweep_row "multicore"
        (Multicore_exp.sweep ~jobs:1 ~same:(List.filteri (fun i _ -> i < 1) mc_same)
           ~instrs_per_core:mc_instrs ~mixes:1 ~seed ());
    ]

(* Each row's depth-1 checkpoint, as written by a full run. *)
let depth1_sections =
  lazy
    (List.map
       (fun row ->
         with_dir (fun dir ->
             ignore (row.exec ~keep:max_int dir);
             Snapshot.load ~path:(Sweep.path ~dir ~key:row.s_kind 1)))
       (Lazy.force sweep_rows))

type damage = Flip of int * int | Truncate of int

(* Which row, which of its payload sections, what damage. *)
let damage_gen =
  QCheck2.Gen.(
    triple (int_bound 3) nat
      (oneof
         [
           map2 (fun pos x -> Flip (pos, x)) nat (int_range 1 255);
           map (fun n -> Truncate n) nat;
         ]))

let print_damage (i, sec, d) =
  Printf.sprintf "row %d, payload section %d, %s" i sec
    (match d with
    | Flip (pos, x) -> Printf.sprintf "flip byte %d by 0x%02x" pos x
    | Truncate n -> Printf.sprintf "truncate to %d bytes" n)

(* A payload section (the unit prefix, or fig7's stored baselines)
   damaged in any one byte, or cut short, and re-sealed under a valid
   container hash: the run adopts it or starts cold, and always
   completes without raising. *)
let prop_damaged_prefix_never_raises =
  QCheck2.Test.make ~name:"every sweep: damaged unit prefix never raises"
    ~count:200 ~print:print_damage damage_gen (fun (i, sec, damage) ->
      let row = List.nth (Lazy.force sweep_rows) i in
      let sections = List.nth (Lazy.force depth1_sections) i in
      let payloads =
        List.filter (fun s -> s.Snapshot.name <> "meta") sections
      in
      let target = List.nth payloads (sec mod List.length payloads) in
      let damaged payload =
        let n = String.length payload in
        match damage with
        | Flip (pos, x) ->
            let b = Bytes.of_string payload in
            let pos = pos mod n in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
            Bytes.to_string b
        | Truncate len -> String.sub payload 0 (len mod n)
      in
      with_dir (fun dir ->
          Snapshot.save
            ~path:(Sweep.path ~dir ~key:row.s_kind 1)
            (List.map
               (fun s ->
                 if s.Snapshot.name = target.Snapshot.name then
                   Snapshot.section ~name:s.Snapshot.name (damaged s.Snapshot.payload)
                 else s)
               sections);
          row.exec dir))

(* A checkpointed run excludes observability, as on the command line. *)
let test_obs_with_store_rejected () =
  with_dir (fun dir ->
      let raised =
        match
          Sweep.exec ~obs:(Ptg_obs.Sink.create ()) ~key:"fig9" ~dir
            (Fig9.sweep ~jobs:1 ~workloads:fig9_workloads ~lines_per_point:10
               ~seed ())
        with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) "obs and a store raise" true raised;
      Alcotest.(check (list int))
        "nothing written" [] (Sweep.stored_counts ~dir ~key:"fig9"))

(* The store directory: created when missing, fine when present (also
   when a concurrent creator got there first), an error when it cannot
   exist. *)
let test_ensure_dir () =
  with_dir (fun dir ->
      let store = Filename.concat dir "store" in
      Sweep.ensure_dir store;
      Sweep.ensure_dir store;
      Alcotest.(check bool) "created" true (Sys.is_directory store);
      Sys.rmdir store;
      let raises d =
        match Sweep.ensure_dir d with
        | () -> false
        | exception Sys_error _ -> true
      in
      Alcotest.(check bool) "missing parent raises" true
        (raises (Filename.concat (Filename.concat dir "missing") "store"));
      let file = Filename.concat dir "file" in
      Out_channel.with_open_bin file ignore;
      Alcotest.(check bool) "a file in the way raises" true (raises file))

(* ------------------------------------------------------------------ *)
(* Scenario entry point (the server's execution path)                  *)
(* ------------------------------------------------------------------ *)

let test_scenario_warm_start_text_identical () =
  with_dir (fun dir ->
      let s = Scenario.make ~seed ~instrs Scenario.Fullsys in
      let cold_text = Scenario.run_to_string s in
      let first = Checkpoint.run_scenario ~dir ~every:1_000 s in
      Alcotest.(check bool) "completed" true first.Checkpoint.completed;
      Alcotest.(check (option string))
        "matches run_to_string" (Some cold_text) first.Checkpoint.text;
      let again = Checkpoint.run_scenario ~dir ~every:1_000 s in
      Alcotest.(check (option int))
        "warm-started" (Some instrs) again.Checkpoint.resumed_from;
      Alcotest.(check (option string))
        "warm text byte-identical" (Some cold_text) again.Checkpoint.text)

let test_scenario_interrupted_then_resumed () =
  with_dir (fun dir ->
      let s = Scenario.make ~seed ~instrs Scenario.Fullsys in
      let stopped =
        Checkpoint.run_scenario ~dir ~every:1_000 ~should_stop:(stop_after 1) s
      in
      Alcotest.(check bool) "stopped" false stopped.Checkpoint.completed;
      Alcotest.(check (option string))
        "no text when stopped" None stopped.Checkpoint.text;
      let resumed = Checkpoint.run_scenario ~dir ~every:1_000 s in
      Alcotest.(check bool)
        "resumed from the interruption" true
        (resumed.Checkpoint.resumed_from = Some 1_000);
      Alcotest.(check (option string))
        "text byte-identical" (Some (Scenario.run_to_string s))
        resumed.Checkpoint.text)

let test_scenario_fig7_interrupted_then_resumed () =
  with_dir (fun dir ->
      let s = Scenario.make ~seed ~instrs:300 ~warmup:100 Scenario.Fig7 in
      let stopped =
        Checkpoint.run_scenario ~dir ~every:2 ~should_stop:(stop_after 2) s
      in
      Alcotest.(check bool) "stopped" false stopped.Checkpoint.completed;
      let resumed = Checkpoint.run_scenario ~dir ~every:2 s in
      Alcotest.(check bool)
        "resumed from the interruption" true
        (resumed.Checkpoint.resumed_from = Some 2);
      Alcotest.(check (option string))
        "text byte-identical" (Some (Scenario.run_to_string s))
        resumed.Checkpoint.text)

(* Sliceable scenarios poll [should_stop] between chunks even with no
   store attached: a dir-less serve can still abandon orphaned work. *)
let test_scenario_dirless_stop () =
  let s = Scenario.make ~seed ~instrs:800 ~mixes:1 Scenario.Multicore in
  let polls = ref 0 in
  let o =
    Checkpoint.run_scenario
      ~should_stop:(fun () -> incr polls; !polls > 1)
      s
  in
  Alcotest.(check bool) "stopped mid-scenario" false o.Checkpoint.completed;
  Alcotest.(check (option string)) "no text" None o.Checkpoint.text;
  Alcotest.(check bool) "polled more than once" true (!polls > 1)

(* Without [every], a served fullsys run polls at tenths of its budget
   but checkpoints only when stopped and at completion: one store file
   per save, where a save per poll would leave two after the prune. *)
let test_scenario_default_saves_at_end () =
  with_dir (fun dir ->
      let s = Scenario.make ~seed ~instrs:20_000 Scenario.Fullsys in
      let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
      let name n = Filename.basename (Checkpoint.path ~dir ~key:(Scenario.prefix_hash s) n) in
      let reports = ref [] in
      let progress ~done_count ~total:_ = reports := done_count :: !reports in
      let stopped = Checkpoint.run_scenario ~dir ~progress ~should_stop:(stop_after 3) s in
      Alcotest.(check bool) "stopped" false stopped.Checkpoint.completed;
      Alcotest.(check (list int)) "polled at tenths" [ 2_000; 4_000; 6_000 ] (List.rev !reports);
      Alcotest.(check (list string)) "one save, on the stop" [ name 6_000 ] (files ());
      reports := [];
      let resumed = Checkpoint.run_scenario ~dir ~progress s in
      Alcotest.(check (option int)) "resumed" (Some 6_000) resumed.Checkpoint.resumed_from;
      Alcotest.(check (list int)) "adopted depth, then tenths to the end"
        (List.init 8 (fun i -> 6_000 + (2_000 * i)))
        (List.rev !reports);
      Alcotest.(check (list string)) "one more save, at completion"
        (List.sort compare [ name 6_000; name 20_000 ])
        (files ());
      Alcotest.(check (option string))
        "text byte-identical" (Some (Scenario.run_to_string s))
        resumed.Checkpoint.text)

let test_sliceable () =
  let mk ?seeds kind = Scenario.make ?seeds ~seed kind in
  List.iter
    (fun (expected, s) ->
      Alcotest.(check bool)
        (Scenario.kind_name s.Scenario.kind)
        expected (Checkpoint.sliceable s))
    [
      (true, mk Scenario.Fullsys);
      (true, mk Scenario.Fig7);
      (true, mk Scenario.Multicore);
      (true, mk Scenario.Fig6);
      (false, mk ~seeds:3 Scenario.Fig6);
      (true, mk Scenario.Fig9);
      (false, mk ~seeds:3 Scenario.Fig9);
      (false, mk Scenario.Fig8);
    ]

let suite =
  [
    Alcotest.test_case "fullsys: chunked = uninterrupted" `Quick
      test_chunked_equals_plain;
    Alcotest.test_case "fullsys: killed + resumed = uninterrupted" `Quick
      test_killed_and_resumed_identical;
    Alcotest.test_case "fullsys: full-depth warm start" `Quick
      test_warm_start_full_depth;
    Alcotest.test_case "fullsys: adopt:false starts cold" `Quick
      test_adopt_false_starts_cold;
    Alcotest.test_case "fullsys: damaged checkpoint skipped" `Quick
      test_damaged_checkpoint_skipped;
    Alcotest.test_case "fullsys: restore rejects wrong key" `Quick
      test_restore_rejects_wrong_key;
    Alcotest.test_case "fullsys: bad disturbance refused" `Quick
      test_bad_disturbance_refused;
    Alcotest.test_case "fullsys: flip-journal store skipped" `Quick
      test_journal_store_skipped;
    Alcotest.test_case "fullsys: store bytes deterministic" `Quick
      test_store_bytes_deterministic;
    Alcotest.test_case "fullsys: store pruned to deepest" `Quick
      test_store_pruned_to_deepest;
    Alcotest.test_case "fig6: batched = plain" `Quick
      test_fig6_batched_equals_plain;
    Alcotest.test_case "fig6: rows and store invariant under -j" `Quick
      test_fig6_jobs_invariant;
    Alcotest.test_case "fig6: killed + resumed = uninterrupted" `Quick
      test_fig6_killed_and_resumed;
    Alcotest.test_case "fig6: foreign workload prefix ignored" `Quick
      test_fig6_prefix_not_adopted_for_other_workloads;
    Alcotest.test_case "fig7: killed + resumed = uninterrupted" `Quick
      test_fig7_killed_and_resumed;
    Alcotest.test_case "fig7: base-only checkpoint adopted" `Quick
      test_fig7_base_only_checkpoint_adopted;
    Alcotest.test_case "fig7: foreign sweep prefix ignored" `Quick
      test_fig7_foreign_sweep_not_adopted;
    Alcotest.test_case "fig9: killed + resumed = uninterrupted" `Quick
      test_fig9_killed_and_resumed;
    Alcotest.test_case "fig9: short part not adopted" `Quick
      test_fig9_short_part_not_adopted;
    Alcotest.test_case "multicore: killed + resumed = uninterrupted" `Quick
      test_multicore_killed_and_resumed;
    Alcotest.test_case "every kind: damaged deepest falls back" `Quick
      test_every_kind_damaged_falls_back;
    Alcotest.test_case "every kind: foreign meta kind ignored" `Quick
      test_every_kind_foreign_meta_ignored;
    Alcotest.test_case "every kind: foreign case list ignored" `Quick
      test_every_kind_foreign_cases_ignored;
    Alcotest.test_case "every kind: stop before a step writes nothing" `Quick
      test_every_kind_stop_before_step_writes_nothing;
    QCheck_alcotest.to_alcotest prop_damaged_prefix_never_raises;
    Alcotest.test_case "sweep: obs with a store rejected" `Quick
      test_obs_with_store_rejected;
    Alcotest.test_case "store: ensure_dir" `Quick test_ensure_dir;
    Alcotest.test_case "scenario: warm-start text identical" `Quick
      test_scenario_warm_start_text_identical;
    Alcotest.test_case "scenario: interrupted then resumed" `Quick
      test_scenario_interrupted_then_resumed;
    Alcotest.test_case "scenario: fig7 interrupted then resumed" `Quick
      test_scenario_fig7_interrupted_then_resumed;
    Alcotest.test_case "scenario: dir-less stop mid-scenario" `Quick
      test_scenario_dirless_stop;
    Alcotest.test_case "scenario: no every saves on stop and at end" `Quick
      test_scenario_default_saves_at_end;
    Alcotest.test_case "scenario: sliceable kinds" `Quick test_sliceable;
  ]
