(* Bench regression gate: one rule table for every committed
   BENCH_<section>.json.

   gate.exe BASE FRESH compares a fresh recording of a bench section
   (PTG_BENCH_ONLY=<section> PTG_BENCH_JSON=FRESH dune exec
   bench/main.exe) against the committed baseline BASE. The files'
   "benchmark" field selects the section's rows in [rules]; each row
   prints one OK or FAIL line naming the field, its value and its
   bound. Exits 1 when a row fails, or when either file is missing,
   malformed or of an unknown section; 2 on a usage error.

   Usage: dune exec bench/gate.exe -- BENCH_fig6.json fresh.json *)

module Json = Ptg_util.Json

type cmp = Ge | Le | Eq

type bound =
  | Const of float
  | Field of float * string  (** k x another field of the same file *)
  | Baseline of float  (** k x the same field of BASE *)

type check =
  | Present
  | Is of Json.t  (** equals a constant *)
  | Cmp of cmp * bound
  | Pinned of string  (** equals BASE; names the paper claim it guards *)

(* [Both] rows hold in BASE and FRESH alike; [Fresh] rows judge the new
   run only, against BASE where the check refers to it. *)
type scope = Both | Fresh

type row = { scope : scope; field : string; check : check }

let both field check = { scope = Both; field; check }
let fresh field check = { scope = Fresh; field; check }

(* Every recording is a reduced-size measurement with these fields. *)
let required fields =
  both "mode" (Is (String "reduced")) :: List.map (fun f -> both f Present) fields

(* Wall time may grow by at most 25% over the committed baseline. *)
let not_slower field = fresh field (Cmp (Le, Baseline 1.25))

let rules =
  [
    ( "fig6",
      required
        [ "jobs"; "instrs"; "warmup"; "workloads"; "wall_time_s"; "wall_time_obs_s";
          "instrs_per_sec"; "amean_slowdown_pct"; "pre_pr_wall_time_s";
          "speedup_vs_pre_pr" ]
      @ [
          both "jobs" (Is (Int 1L));
          both "obs_results_identical" (Is (Bool true));
          not_slower "wall_time_s";
          fresh "amean_slowdown_pct" (Pinned "Fig. 6 mean slowdown");
        ] );
    ( "fullsys",
      required
        [ "instrs"; "wall_time_s"; "fullsys_wall_s"; "fullsys_walks";
          "fullsys_flips_landed"; "fullsys_wrong_translations"; "mc_wall_s";
          "mc_instrs_per_core"; "mc_macs_verified"; "mc_verify_failures";
          "mc_macs_per_sec" ]
      @ [
          both "fullsys_wrong_translations" (Is (Int 0L));
          both "mc_verify_failures" (Is (Int 0L));
          not_slower "wall_time_s";
          fresh "fullsys_walks" (Pinned "Full-system page-walk count");
          fresh "fullsys_flips_landed" (Pinned "Full-system Rowhammer flips landed");
          fresh "mc_macs_verified" (Pinned "Multicore batched MAC verifications");
        ] );
    ( "snapshot",
      required
        [ "instrs"; "every"; "wall_time_s"; "cold_wall_s"; "warm_wall_s"; "speedup";
          "warm_resumed_from"; "identical"; "checkpoints"; "store_bytes" ]
      @ [
          both "identical" (Is (Bool true));
          both "warm_resumed_from" (Cmp (Eq, Field (1.0, "instrs")));
          fresh "speedup" (Cmp (Ge, Const 5.0));
          fresh "store_bytes" (Pinned "Checkpoint store bytes");
          not_slower "cold_wall_s";
        ] );
    ( "slices",
      required
        [ "instrs"; "deadline_s"; "wall_time_s"; "plain_wall_s"; "sliced_wall_s";
          "slices"; "overhead_pct"; "identical"; "resume_instrs"; "victim_stopped_at";
          "cold_wall_s"; "resume_wall_s"; "resume_adopted_from"; "resume_identical";
          "resume_speedup" ]
      @ [
          both "identical" (Is (Bool true));
          both "resume_identical" (Is (Bool true));
          fresh "slices" (Cmp (Ge, Const 1.0));
          fresh "resume_adopted_from" (Cmp (Ge, Field (1.0, "victim_stopped_at")));
          fresh "overhead_pct" (Cmp (Le, Const 10.0));
          fresh "resume_speedup" (Cmp (Ge, Const 2.0));
          not_slower "plain_wall_s";
        ] );
    ( "serve",
      required [ "cold_s"; "hot_rps"; "ratio"; "hit_codec_us" ]
      @ [
          fresh "ratio" (Cmp (Ge, Const 100.0));
          (* One cache hit's wire codec work: a codec that copies
             strings a character at a time reads 16.6-18.9 us. *)
          fresh "hit_codec_us" (Cmp (Le, Const 13.0));
        ] );
    ( "serve_sharded",
      required
        [ "distinct_scenarios"; "shard_cache_capacity"; "router_cache_capacity";
          "clients"; "requests_per_client"; "rps_1_shard"; "rps_2_shards";
          "rps_4_shards"; "speedup_2_shards"; "speedup_4_shards"; "ok_1_shard";
          "ok_2_shards"; "ok_4_shards"; "lost_1_shard"; "lost_2_shards";
          "lost_4_shards"; "cold_routed_p50_ms" ]
      @ [
          both "lost_1_shard" (Is (Int 0L));
          both "lost_2_shards" (Is (Int 0L));
          both "lost_4_shards" (Is (Int 0L));
          fresh "rps_2_shards" (Cmp (Ge, Field (1.6, "rps_1_shard")));
          (* A few ms of compute; a delayed-ACK stall on either hop adds
             about 40 ms to most runs. *)
          fresh "cold_routed_p50_ms" (Cmp (Le, Const 25.0));
        ] );
  ]

let show = function
  | Json.Int i -> Int64.to_string i
  | Float f -> Printf.sprintf "%.12g" f
  | v -> Json.to_string v

let number = function
  | Json.Int i -> Some (Int64.to_float i)
  | Float f -> Some f
  | _ -> None

let describe = function
  | Present -> "present"
  | Is c -> "= " ^ show c
  | Cmp (op, b) -> (
      let op = match op with Ge -> ">=" | Le -> "<=" | Eq -> "=" in
      match b with
      | Const k -> Printf.sprintf "%s %g" op k
      | Field (1.0, g) -> Printf.sprintf "%s %s" op g
      | Field (k, g) -> Printf.sprintf "%s %g x %s" op k g
      | Baseline k -> Printf.sprintf "%s %g x baseline" op k)
  | Pinned _ -> "= baseline"

(* [judge ~base doc row] is whether [row] holds in [doc] (BASE or FRESH)
   and the value, with its resolved bound, to print. *)
let judge ~base doc { field; check; _ } =
  match (Json.member field doc, check) with
  | None, _ -> (false, "missing")
  | Some v, Present -> (true, show v)
  | Some v, Is c -> (v = c, show v)
  | Some v, Pinned claim -> (
      match Json.member field base with
      | Some b when b = v -> (true, show v)
      | b ->
          ( false,
            Printf.sprintf "%s moved: %s → %s; re-baseline only with a stated reason"
              claim
              (Option.fold ~none:"missing" ~some:show b)
              (show v) ))
  | Some v, Cmp (op, b) -> (
      let scale k from = Option.map (fun x -> k *. x) (Option.bind from number) in
      let limit =
        match b with
        | Const k -> Some k
        | Field (k, g) -> scale k (Json.member g doc)
        | Baseline k -> scale k (Json.member field base)
      in
      match (number v, limit) with
      | None, _ -> (false, show v ^ " (not a number)")
      | Some _, None -> (false, show v ^ " (bound unavailable)")
      | Some x, Some l ->
          let holds = match op with Ge -> x >= l | Le -> x <= l | Eq -> x = l in
          let text =
            match b with Const _ -> show v | _ -> Printf.sprintf "%s (bound %.12g)" (show v) l
          in
          (holds, text))

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("gate: " ^ m);
      exit 1)
    fmt

let load role path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "cannot read %s file %s" role e
  in
  match Json.parse text with
  | Error e -> fail "%s file %s is not valid JSON: %s" role path e
  | Ok doc -> (
      match Json.member "benchmark" doc with
      | Some (String section) -> (section, doc)
      | _ -> fail "%s file %s has no \"benchmark\" string field" role path)

let () =
  let base_path, fresh_path =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ ->
        prerr_endline "usage: gate.exe BASE FRESH";
        exit 2
  in
  let section, base = load "BASE" base_path in
  let fresh_section, fresh_doc = load "FRESH" fresh_path in
  if fresh_section <> section then
    fail "BASE file %s records %S but FRESH file %s records %S" base_path section
      fresh_path fresh_section;
  let rows =
    match List.assoc_opt section rules with
    | Some rows -> rows
    | None ->
        fail "BASE file %s records unknown benchmark %S (gated: %s)" base_path section
          (String.concat " " (List.map fst rules))
  in
  let failed =
    List.filter
      (fun row ->
        let label, verdicts =
          match row.scope with
          | Fresh -> ("fresh " ^ row.field, [ judge ~base fresh_doc row ])
          | Both ->
              let side name doc =
                let holds, text = judge ~base doc row in
                (holds, Printf.sprintf "%s %s%s" name text (if holds then "" else " (fails)"))
              in
              (row.field, [ side "base" base; side "fresh" fresh_doc ])
        in
        let holds = List.for_all fst verdicts in
        Printf.printf "%-4s %s %s %s: %s\n"
          (if holds then "OK" else "FAIL")
          section label (describe row.check)
          (String.concat ", " (List.map snd verdicts));
        not holds)
      rows
  in
  match failed with
  | [] -> Printf.printf "OK: %s gate, %d rows hold\n" section (List.length rows)
  | _ ->
      Printf.printf "FAIL: %s gate, %d of %d rows failed\n" section (List.length failed)
        (List.length rows);
      exit 1
