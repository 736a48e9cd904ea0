open Ptg_util

type event = { addr : int64; is_write : bool; cycle : int }
type t = { workload : string; events : event array }
type format = Text | Binary

let length t = Array.length t.events

let equal a b =
  a.workload = b.workload
  && Array.length a.events = Array.length b.events
  && Array.for_all2 (fun (x : event) y -> x = y) a.events b.events

let record ?(instrs = 500_000) ?(seed = 18L) (spec : Ptg_workloads.Workload.spec) =
  let rng = Rng.create seed in
  let stream = Ptg_workloads.Workload.stream rng spec in
  let acc = ref [] in
  for cycle = 0 to instrs - 1 do
    match stream () with
    | Ptg_cpu.Core.Nonmem -> ()
    | Ptg_cpu.Core.Load addr ->
        acc := { addr = Ptg_pte.Line.line_addr addr; is_write = false; cycle } :: !acc
    | Ptg_cpu.Core.Store addr ->
        acc := { addr = Ptg_pte.Line.line_addr addr; is_write = true; cycle } :: !acc
  done;
  { workload = spec.Ptg_workloads.Workload.name; events = Array.of_list (List.rev !acc) }

let record_walks ?(instrs = 500_000) ?(seed = 18L)
    (spec : Ptg_workloads.Workload.spec) =
  let rng = Rng.create seed in
  let stream = Ptg_workloads.Workload.stream rng spec in
  let core = Ptg_cpu.Core.create ~guard:Ptg_cpu.Guard_timing.unprotected () in
  let acc = ref [] in
  Ptg_cpu.Core.on_walk core (fun ~vpn:_ ~leaf_line_addr ->
      acc := leaf_line_addr :: !acc);
  ignore (Ptg_cpu.Core.run core ~instrs:(instrs / 4) ~stream);
  acc := [];
  ignore (Ptg_cpu.Core.run core ~instrs ~stream);
  {
    workload = spec.Ptg_workloads.Workload.name;
    events =
      Array.of_list (List.rev !acc)
      |> Array.mapi (fun cycle addr -> { addr; is_write = false; cycle });
  }

(* A workload name is a single non-empty header line in both formats,
   so a newline inside it would silently shear the tail of the name into
   the data section (where it parses as garbage, or worse, as a valid
   record). *)
let validate_name ~context name =
  if name = "" then invalid_arg (Printf.sprintf "%s: empty workload name" context);
  String.iter
    (fun c ->
      if c = '\n' || c = '\r' then
        invalid_arg
          (Printf.sprintf "%s: workload name %S contains a newline" context name))
    name

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

let save_text t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# %s\n" t.workload;
      Array.iter
        (fun e ->
          Printf.fprintf oc "0x%Lx %c %d\n" e.addr
            (if e.is_write then 'W' else 'R')
            e.cycle)
        t.events)

let load_text ~path ic =
  let header =
    try input_line ic
    with End_of_file ->
      invalid_arg (Printf.sprintf "Mem_trace.load: %s: empty file" path)
  in
  let workload =
    if String.length header > 2 && String.sub header 0 2 = "# " then
      String.sub header 2 (String.length header - 2)
    else
      invalid_arg
        (Printf.sprintf "Mem_trace.load: %s, line 1: missing \"# workload\" header"
           path)
  in
  let acc = ref [] in
  let lineno = ref 1 in
  (try
     while true do
       let raw = input_line ic in
       incr lineno;
       match String.trim raw with
       | "" -> ()
       | s -> (
           match String.split_on_char ' ' s |> List.filter (fun t -> t <> "") with
           | [ addr_s; op_s; cycle_s ] ->
               let addr =
                 match Int64.of_string_opt addr_s with
                 | Some a -> a
                 | None ->
                     invalid_arg
                       (Printf.sprintf
                          "Mem_trace.load: %s, line %d: not an address: %S" path
                          !lineno addr_s)
               in
               let is_write =
                 match op_s with
                 | "R" -> false
                 | "W" -> true
                 | _ ->
                     invalid_arg
                       (Printf.sprintf
                          "Mem_trace.load: %s, line %d: operation must be R or \
                           W, got %S"
                          path !lineno op_s)
               in
               let cycle =
                 match int_of_string_opt cycle_s with
                 | Some c when c >= 0 -> c
                 | Some _ ->
                     invalid_arg
                       (Printf.sprintf
                          "Mem_trace.load: %s, line %d: negative cycle %S" path
                          !lineno cycle_s)
                 | None ->
                     invalid_arg
                       (Printf.sprintf
                          "Mem_trace.load: %s, line %d: not a cycle: %S" path
                          !lineno cycle_s)
               in
               acc := { addr; is_write; cycle } :: !acc
           | _ ->
               invalid_arg
                 (Printf.sprintf
                    "Mem_trace.load: %s, line %d: want \"addr R|W cycle\", got %S"
                    path !lineno s))
     done
   with End_of_file -> ());
  { workload; events = Array.of_list (List.rev !acc) }

(* ------------------------------------------------------------------ *)
(* Binary format: magic + version + varints (see EXPERIMENTS.md)       *)
(* ------------------------------------------------------------------ *)

let magic = "PTGM"
let version = 1

let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

let unzigzag v =
  Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))

let put_varint buf v =
  (* LEB128 on the unsigned 64-bit payload. *)
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = Int64.to_int (Int64.logand !v 0x7fL) in
    v := Int64.shift_right_logical !v 7;
    if !v = 0L then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let save_binary t ~path =
  let buf = Buffer.create (64 + (Array.length t.events * 3)) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  put_varint buf (Int64.of_int (String.length t.workload));
  Buffer.add_string buf t.workload;
  put_varint buf (Int64.of_int (Array.length t.events));
  let prev_addr = ref 0L and prev_cycle = ref 0 in
  Array.iter
    (fun e ->
      put_varint buf (zigzag (Int64.sub e.addr !prev_addr));
      let cycle_delta = Int64.of_int (e.cycle - !prev_cycle) in
      put_varint buf
        (Int64.logor
           (Int64.shift_left (zigzag cycle_delta) 1)
           (if e.is_write then 1L else 0L));
      prev_addr := e.addr;
      prev_cycle := e.cycle)
    t.events;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

let load_binary ~path (s : string) =
  let pos = ref (String.length magic + 1) in
  let truncated () =
    invalid_arg
      (Printf.sprintf "Mem_trace.load: %s: truncated at byte %d" path !pos)
  in
  let byte () =
    if !pos >= String.length s then truncated ();
    let b = Char.code s.[!pos] in
    incr pos;
    b
  in
  let get_varint () =
    let v = ref 0L and shift = ref 0 and continue = ref true in
    while !continue do
      if !shift > 63 then
        invalid_arg
          (Printf.sprintf "Mem_trace.load: %s: varint overflow at byte %d" path
             !pos);
      let b = byte () in
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
      shift := !shift + 7;
      continue := b land 0x80 <> 0
    done;
    !v
  in
  let v = Char.code s.[String.length magic] in
  if v <> version then
    invalid_arg
      (Printf.sprintf "Mem_trace.load: %s: unsupported version %d (want %d)"
         path v version);
  let name_len = Int64.to_int (get_varint ()) in
  if name_len < 0 || !pos + name_len > String.length s then truncated ();
  let workload = String.sub s !pos name_len in
  pos := !pos + name_len;
  let count = Int64.to_int (get_varint ()) in
  if count < 0 then
    invalid_arg (Printf.sprintf "Mem_trace.load: %s: negative event count" path);
  let prev_addr = ref 0L and prev_cycle = ref 0 in
  let events =
    Array.init count (fun _ ->
        let addr = Int64.add !prev_addr (unzigzag (get_varint ())) in
        let packed = get_varint () in
        let is_write = Int64.logand packed 1L = 1L in
        let cycle_delta =
          Int64.to_int (unzigzag (Int64.shift_right_logical packed 1))
        in
        let cycle = !prev_cycle + cycle_delta in
        if cycle < 0 then
          invalid_arg
            (Printf.sprintf "Mem_trace.load: %s: negative cycle at byte %d" path
               !pos);
        prev_addr := addr;
        prev_cycle := cycle;
        { addr; is_write; cycle })
  in
  if !pos <> String.length s then
    invalid_arg
      (Printf.sprintf "Mem_trace.load: %s: %d trailing bytes after the last event"
         path
         (String.length s - !pos));
  { workload; events }

(* ------------------------------------------------------------------ *)
(* Save / load dispatch                                                *)
(* ------------------------------------------------------------------ *)

let save t ~format ~path =
  validate_name ~context:"Mem_trace.save" t.workload;
  match format with Text -> save_text t ~path | Binary -> save_binary t ~path

let load ~path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let is_binary =
    String.length contents >= String.length magic + 1
    && String.sub contents 0 (String.length magic) = magic
  in
  let t =
    if is_binary then load_binary ~path contents
    else
      In_channel.with_open_text path (fun ic -> load_text ~path ic)
  in
  validate_name ~context:"Mem_trace.load" t.workload;
  t

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type replay_result = {
  events : int;
  reads : int;
  writes : int;
  activations : int;
  refreshes : int;
  mitigation_refreshes : int;
}

let replay ?mitigation ?(params = []) ?pt_row ?(seed = 42L) (t : t) =
  let dram = Ptg_dram.Dram.create () in
  let mc = Ptg_memctrl.Memctrl.create dram in
  let reads = ref 0 and writes = ref 0 in
  let activations = ref 0 and refreshes = ref 0 in
  (* All counting goes through the controller's observer hook points —
     the same surface registry mitigations attach to. *)
  Ptg_memctrl.Memctrl.on_activate mc (fun _ -> incr activations);
  Ptg_memctrl.Memctrl.on_refresh mc (fun ~channel:_ ~bank:_ ~row:_ ->
      incr refreshes);
  Ptg_memctrl.Memctrl.on_line_read mc (fun ~addr:_ ~is_pte:_ -> incr reads);
  let attached =
    match mitigation with
    | None -> Ok None
    | Some name ->
        let rng = Rng.create seed in
        Result.map Option.some
          (Ptg_mitigations.Registry.instantiate ~params name
             (Ptg_mitigations.Registry.ctx ~rng ?pt_row dram))
  in
  Result.map
    (fun mit ->
      Array.iter
        (fun e ->
          if e.is_write then begin
            incr writes;
            ignore
              (Ptg_memctrl.Memctrl.write_line mc ~now:e.cycle ~addr:e.addr
                 (Ptg_dram.Dram.read_line dram e.addr)
                 ())
          end
          else
            ignore
              (Ptg_memctrl.Memctrl.read_line mc ~now:e.cycle ~addr:e.addr
                 ~is_pte:false ()))
        t.events;
      {
        events = Array.length t.events;
        reads = !reads;
        writes = !writes;
        activations = !activations;
        refreshes = !refreshes;
        mitigation_refreshes =
          (match mit with
          | Some m -> Ptg_mitigations.Registry.refreshes_issued m
          | None -> 0);
      })
    attached

let render_result ?mitigation r =
  Printf.sprintf
    "Trace replay (%s): %d events (%d reads, %d writes)\n\
     DRAM: %d row activations, %d targeted refreshes\n\
     Mitigation refreshes issued: %d\n"
    (Option.value ~default:"no mitigation" mitigation)
    r.events r.reads r.writes r.activations r.refreshes r.mitigation_refreshes
