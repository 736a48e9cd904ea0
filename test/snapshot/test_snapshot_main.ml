(* Checkpoint/restore tier: `dune build @snapshot` runs just this
   binary. *)

let () =
  Alcotest.run "ptg_snapshot"
    [
      ("snapshot.codec", Test_snapshot_codec.suite);
      ("snapshot.container", Test_snapshot_container.suite);
      ("snapshot.resume", Test_snapshot_resume.suite);
      ("snapshot.golden", Test_snapshot_golden.suite);
    ]
