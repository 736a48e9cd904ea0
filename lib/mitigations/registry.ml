type instance = { name : string; mutable refreshes : int }

let make_instance name = { name; refreshes = 0 }
let instance_name i = i.name
let refreshes_issued i = i.refreshes

(* ------------------------------------------------------------------ *)
(* Typed parameters                                                    *)
(* ------------------------------------------------------------------ *)

type value = Int of int | Float of float | Bool of bool

let type_name = function Int _ -> "int" | Float _ -> "float" | Bool _ -> "bool"

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | Bool b -> string_of_bool b

let value_of_string ~like s =
  match like with
  | Int _ -> (
      match int_of_string_opt s with
      | Some i -> Ok (Int i)
      | None -> Error (Printf.sprintf "%S is not an int" s))
  | Float _ -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Ok (Float f)
      | Some _ -> Error (Printf.sprintf "%S is not a finite float" s)
      | None -> Error (Printf.sprintf "%S is not a float" s))
  | Bool _ -> (
      match bool_of_string_opt s with
      | Some b -> Ok (Bool b)
      | None -> Error (Printf.sprintf "%S is not a bool (true/false)" s))

type param = { key : string; doc : string; default : value }

type ctx = {
  dram : Ptg_dram.Dram.t;
  rng : Ptg_util.Rng.t option;
  pt_row : (channel:int -> bank:int -> row:int -> bool) option;
}

let ctx ?rng ?pt_row dram = { dram; rng; pt_row }

type plugin = {
  plugin_name : string;
  plugin_doc : string;
  plugin_params : param list;
  build : (string -> value) -> ctx -> instance;
}

(* Registration order is the presentation order (built-ins first), so
   [names] is stable for docs and for the README sync gate. *)
let plugins : plugin list ref = ref []

let find name =
  List.find_opt (fun p -> p.plugin_name = name) !plugins

let register ~name ~doc ~params build =
  if find name <> None then
    invalid_arg (Printf.sprintf "Registry.register: duplicate plugin %S" name);
  let rec dup_key = function
    | [] -> None
    | p :: rest ->
        if List.exists (fun q -> q.key = p.key) rest then Some p.key
        else dup_key rest
  in
  (match dup_key params with
  | Some k ->
      invalid_arg
        (Printf.sprintf "Registry.register: %s: duplicate parameter %S" name k)
  | None -> ());
  plugins :=
    !plugins
    @ [ { plugin_name = name; plugin_doc = doc; plugin_params = params; build } ]

let names () = List.map (fun p -> p.plugin_name) !plugins

let unknown_plugin name =
  Printf.sprintf "unknown mitigation %S (registered: %s)" name
    (String.concat ", " (names ()))

let find_param plugin key =
  match List.find_opt (fun p -> p.key = key) plugin.plugin_params with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "%s: unknown parameter %S (valid: %s)" plugin.plugin_name
           key
           (String.concat ", " (List.map (fun p -> p.key) plugin.plugin_params)))

let check_overrides plugin overrides =
  List.fold_left
    (fun acc (key, v) ->
      Result.bind acc (fun () ->
          Result.bind (find_param plugin key) (fun p ->
              if type_name p.default = type_name v then Ok ()
              else
                Error
                  (Printf.sprintf "%s: parameter %s must be %s, got %s %s"
                     plugin.plugin_name key (type_name p.default) (type_name v)
                     (value_to_string v)))))
    (Ok ()) overrides

let check_params name overrides =
  match find name with
  | None -> Error (unknown_plugin name)
  | Some plugin -> check_overrides plugin overrides

let resolved_of plugin overrides =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map
       (fun p ->
         ( p.key,
           match List.assoc_opt p.key overrides with
           | Some v -> v
           | None -> p.default ))
       plugin.plugin_params)

let resolved_params name overrides =
  Option.map (fun p -> resolved_of p overrides) (find name)

let instantiate ?(params = []) name ctx =
  match find name with
  | None -> Error (unknown_plugin name)
  | Some plugin -> (
      match check_overrides plugin params with
      | Error _ as e -> e
      | Ok () ->
          let resolved = resolved_of plugin params in
          let get key =
            match List.assoc_opt key resolved with
            | Some v -> v
            | None ->
                invalid_arg
                  (Printf.sprintf "Registry: %s has no parameter %S" name key)
          in
          (* Range checks and context requirements live in the builders;
             both surface as Invalid_argument and come back as Error. *)
          (try Ok (plugin.build get ctx) with Invalid_argument msg -> Error msg))

let instantiate_exn ?params name ctx =
  match instantiate ?params name ctx with
  | Ok i -> i
  | Error msg -> invalid_arg msg

(* ------------------------------------------------------------------ *)
(* CLI spec syntax: NAME[:key=value,key=value]                         *)
(* ------------------------------------------------------------------ *)

let parse_spec spec =
  let name, args =
    match String.index_opt spec ':' with
    | None -> (spec, "")
    | Some i ->
        (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  in
  match find name with
  | None -> Error (unknown_plugin name)
  | Some plugin ->
      let bindings =
        if args = "" then [] else String.split_on_char ',' args
      in
      List.fold_left
        (fun acc binding ->
          Result.bind acc (fun parsed ->
              match String.index_opt binding '=' with
              | None ->
                  Error
                    (Printf.sprintf
                       "%s: malformed parameter %S (want key=value)" name
                       binding)
              | Some i ->
                  let key = String.sub binding 0 i in
                  let raw =
                    String.sub binding (i + 1) (String.length binding - i - 1)
                  in
                  Result.bind (find_param plugin key) (fun p ->
                      match value_of_string ~like:p.default raw with
                      | Ok v -> Ok (parsed @ [ (key, v) ])
                      | Error e ->
                          Error (Printf.sprintf "%s: parameter %s: %s" name key e))))
        (Ok []) bindings
      |> Result.map (fun parsed -> (name, parsed))

let of_spec spec ctx =
  Result.bind (parse_spec spec) (fun (name, params) -> instantiate ~params name ctx)

let spec_help () =
  String.concat "\n"
    (List.map
       (fun p ->
         Printf.sprintf "  %-9s %s%s" p.plugin_name
           (match p.plugin_params with
           | [] -> ""
           | ps ->
               "("
               ^ String.concat ", "
                   (List.map
                      (fun q ->
                        Printf.sprintf "%s:%s=%s" q.key (type_name q.default)
                          (value_to_string q.default))
                      ps)
               ^ ") ")
           p.plugin_doc)
       !plugins)

(* ------------------------------------------------------------------ *)
(* Typed getters for builders                                          *)
(* ------------------------------------------------------------------ *)

let get_int get key =
  match get key with Int i -> i | _ -> invalid_arg ("Registry: " ^ key)

let get_float get key =
  match get key with Float f -> f | _ -> invalid_arg ("Registry: " ^ key)

let require_rng ~plugin ctx =
  match ctx.rng with
  | Some rng -> rng
  | None ->
      invalid_arg
        (Printf.sprintf "%s requires a random stream (supply a seed/rng)" plugin)

let require_pt_row ~plugin ctx =
  match ctx.pt_row with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf
           "%s requires a page-table-row oracle (supply pt_row)" plugin)

(* ------------------------------------------------------------------ *)
(* Built-in defenses                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-(channel, bank) tracker state, created on a bank's first
   activation. *)
let per_bank make =
  let banks = Hashtbl.create 32 in
  fun channel bank ->
    match Hashtbl.find_opt banks (channel, bank) with
    | Some b -> b
    | None ->
        let b = make () in
        Hashtbl.replace banks (channel, bank) b;
        b

let refresh t dram ~channel ~bank row =
  Ptg_dram.Dram.refresh_row dram ~channel ~bank ~row;
  t.refreshes <- t.refreshes + 1

let refresh_neighbors t dram ~channel ~bank ~row =
  List.iter
    (refresh t dram ~channel ~bank)
    (Ptg_dram.Geometry.row_neighbors (Ptg_dram.Dram.geometry dram) row ~distance:1)

(* --- TRR ------------------------------------------------------------- *)

type trr_entry = { row : int; mutable count : int; inserted_at : int }

type trr_bank = {
  mutable entries : trr_entry list; (* newest first, length <= sampler_size *)
  mutable acts_since_ref : int;
  mutable acts_total : int;
}

let make_trr ~sampler_size ~ref_interval_acts ~sample_window dram =
  if sampler_size < 1 then invalid_arg "trr: sampler_size";
  if ref_interval_acts < 1 then invalid_arg "trr: ref_interval_acts";
  if sample_window < 0 then invalid_arg "trr: sample_window";
  let t = make_instance "TRR" in
  let bank_state =
    per_bank (fun () -> { entries = []; acts_since_ref = 0; acts_total = 0 })
  in
  Ptg_dram.Dram.on_activate dram (fun c ->
      let channel = c.Ptg_dram.Geometry.channel
      and bank = c.Ptg_dram.Geometry.bank
      and row = c.Ptg_dram.Geometry.row in
      let b = bank_state channel bank in
      b.acts_total <- b.acts_total + 1;
      if b.acts_since_ref < sample_window then begin
        (match List.find_opt (fun e -> e.row = row) b.entries with
        | Some e -> e.count <- e.count + 1
        | None ->
            let entry = { row; count = 1; inserted_at = b.acts_total } in
            if List.length b.entries < sampler_size then
              b.entries <- entry :: b.entries
            else begin
              (* Sampler full: evict the oldest entry, losing its history.
                 With more distinct aggressors than sampler entries, no row
                 ever accumulates a meaningful count. *)
              let oldest =
                List.fold_left
                  (fun acc e -> if e.inserted_at < acc.inserted_at then e else acc)
                  (List.hd b.entries) b.entries
              in
              b.entries <-
                entry :: List.filter (fun e -> e != oldest) b.entries
            end)
      end;
      b.acts_since_ref <- b.acts_since_ref + 1;
      if b.acts_since_ref >= ref_interval_acts then begin
        b.acts_since_ref <- 0;
        (* REF-time mitigation: refresh neighbours of the hottest entry. *)
        match b.entries with
        | [] -> ()
        | e :: rest ->
            let hottest =
              List.fold_left (fun acc e -> if e.count > acc.count then e else acc) e rest
            in
            b.entries <- List.filter (fun e -> e != hottest) b.entries;
            refresh_neighbors t dram ~channel ~bank ~row:hottest.row
      end);
  t

(* --- PARA ------------------------------------------------------------ *)

let make_para ~p ~rng dram =
  if p < 0.0 || p > 1.0 then invalid_arg "para: p";
  let t = make_instance "PARA" in
  let geometry = Ptg_dram.Dram.geometry dram in
  Ptg_dram.Dram.on_activate dram (fun c ->
      List.iter
        (fun r ->
          if Ptg_util.Rng.bernoulli rng p then
            refresh t dram ~channel:c.Ptg_dram.Geometry.channel
              ~bank:c.Ptg_dram.Geometry.bank r)
        (Ptg_dram.Geometry.row_neighbors geometry c.Ptg_dram.Geometry.row
           ~distance:1));
  t

(* --- Graphene -------------------------------------------------------- *)

type graphene_bank = {
  counts : (int, int) Hashtbl.t; (* Misra-Gries estimated counts *)
  mutable spillover : int;
}

let make_graphene ~counters ~threshold dram =
  if counters < 1 || threshold < 1 then
    invalid_arg "graphene: counters and threshold must be >= 1";
  let t = make_instance "Graphene" in
  let bank_state =
    per_bank (fun () -> { counts = Hashtbl.create counters; spillover = 0 })
  in
  Ptg_dram.Dram.on_activate dram (fun c ->
      let channel = c.Ptg_dram.Geometry.channel
      and bank = c.Ptg_dram.Geometry.bank
      and row = c.Ptg_dram.Geometry.row in
      let b = bank_state channel bank in
      (match Hashtbl.find_opt b.counts row with
      | Some n -> Hashtbl.replace b.counts row (n + 1)
      | None ->
          if Hashtbl.length b.counts < counters then Hashtbl.replace b.counts row 1
          else begin
            (* Misra-Gries decrement step: no entry is ever silently
               undercounted by more than the spillover. *)
            b.spillover <- b.spillover + 1;
            let doomed =
              Hashtbl.fold
                (fun r n acc -> if n <= 1 then r :: acc else acc)
                b.counts []
            in
            if doomed = [] then begin
              let all = Hashtbl.fold (fun r n acc -> (r, n) :: acc) b.counts [] in
              List.iter (fun (r, n) -> Hashtbl.replace b.counts r (n - 1)) all
            end
            else List.iter (Hashtbl.remove b.counts) doomed;
            Hashtbl.replace b.counts row 1
          end);
      match Hashtbl.find_opt b.counts row with
      | Some n when n >= threshold ->
          Hashtbl.replace b.counts row 0;
          refresh_neighbors t dram ~channel ~bank ~row
      | _ -> ());
  t

(* --- SoftTRR ---------------------------------------------------------- *)

let make_soft_trr ~threshold ~pt_row dram =
  if threshold < 1 then invalid_arg "soft-trr: threshold";
  let t = make_instance "SoftTRR" in
  let geometry = Ptg_dram.Dram.geometry dram in
  (* aggressor (channel, bank, row) -> activations seen since the guarded
     PT row was last refreshed *)
  let counts : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  Ptg_dram.Dram.on_activate dram (fun c ->
      let channel = c.Ptg_dram.Geometry.channel
      and bank = c.Ptg_dram.Geometry.bank
      and row = c.Ptg_dram.Geometry.row in
      (* Software visibility: only the attacker's activations adjacent
         to a page-table row register. *)
      let guarded_neighbors =
        List.filter
          (fun r -> pt_row ~channel ~bank ~row:r)
          (Ptg_dram.Geometry.row_neighbors geometry row ~distance:1)
      in
      if guarded_neighbors <> [] then begin
        let key = (channel, bank, row) in
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt counts key) in
        if n >= threshold then begin
          Hashtbl.remove counts key;
          (* Refresh the page-table rows this aggressor endangers (a
             kernel read of the PT page re-writes the row). *)
          List.iter (refresh t dram ~channel ~bank) guarded_neighbors
        end
        else Hashtbl.replace counts key n
      end);
  t

(* ------------------------------------------------------------------ *)
(* Registrations                                                       *)
(* ------------------------------------------------------------------ *)

let () =
  register ~name:"trr"
    ~doc:"in-DRAM TRR: bounded sampler, REF-time victim refresh"
    ~params:
      [
        { key = "sampler_size"; doc = "sampler entries per bank"; default = Int 4 };
        {
          key = "ref_interval_acts";
          doc = "activations per bank between REF-time mitigations";
          default = Int 166;
        };
        {
          key = "sample_window";
          doc = "activations observed after each REF";
          default = Int 8;
        };
      ]
    (fun get ctx ->
      make_trr
        ~sampler_size:(get_int get "sampler_size")
        ~ref_interval_acts:(get_int get "ref_interval_acts")
        ~sample_window:(get_int get "sample_window")
        ctx.dram)

let () =
  register ~name:"para"
    ~doc:"PARA: refresh each neighbour with probability p per activation"
    ~params:
      [ { key = "p"; doc = "per-neighbour refresh probability"; default = Float 0.001 } ]
    (fun get ctx ->
      make_para ~p:(get_float get "p") ~rng:(require_rng ~plugin:"para" ctx)
        ctx.dram)

let () =
  register ~name:"soft-trr"
    ~doc:"SoftTRR: OS-level counting of aggressors next to page-table rows"
    ~params:
      [ { key = "threshold"; doc = "aggressor activations before a PT-row refresh"; default = Int 2500 } ]
    (fun get ctx ->
      make_soft_trr
        ~threshold:(get_int get "threshold")
        ~pt_row:(require_pt_row ~plugin:"soft-trr" ctx)
        ctx.dram)

let () =
  register ~name:"graphene"
    ~doc:"Graphene: Misra-Gries frequent-item counters, fixed threshold"
    ~params:
      [
        { key = "counters"; doc = "Misra-Gries entries per bank"; default = Int 128 };
        {
          key = "threshold";
          doc = "estimated count that triggers a victim refresh";
          default = Int 2500;
        };
      ]
    (fun get ctx ->
      make_graphene
        ~counters:(get_int get "counters")
        ~threshold:(get_int get "threshold")
        ctx.dram)
