let magic = "PTGS"
let version = 1

type section = { name : string; payload : string }

let section ~name payload = { name; payload }

(* Layout: magic(4) | version(1) | section region | FNV-1a hash(8, LE).
   Section region: varint count, then per section a length-prefixed name
   and a length-prefixed payload. The hash covers exactly the section
   region, so any bit damage between the header and the trailer is
   caught before a single section is decoded. *)
let put_region b sections =
  Codec.put_varint b (List.length sections);
  List.iter
    (fun s ->
      Codec.put_string b s.name;
      Codec.put_string b s.payload)
    sections

let header_len = String.length magic + 1

(* The whole file in one writer sized for it; the trailer is the hash
   of the region, taken where it lies. [save] writes the writer out
   without copying it. *)
let encode sections =
  let size =
    List.fold_left
      (fun n s -> n + String.length s.name + String.length s.payload + 20)
      (header_len + 18) sections
  in
  let b = Codec.writer ~size () in
  Codec.put_raw b magic;
  Codec.put_raw b (String.make 1 (Char.chr version));
  put_region b sections;
  Codec.put_i64 b (Codec.hash b ~from:header_len);
  b

let to_string sections = Codec.contents (encode sections)

let content_hash sections =
  let b = Codec.writer () in
  put_region b sections;
  Codec.hash b ~from:0

let of_string ~what s =
  let fail msg = invalid_arg (Printf.sprintf "Snapshot.load: %s: %s" what msg) in
  let len = String.length s in
  if len < header_len + 8 then fail (Printf.sprintf "truncated at byte %d" len);
  if String.sub s 0 4 <> magic then fail "bad magic (not a PTGS snapshot)";
  let v = Char.code s.[4] in
  if v <> version then
    fail (Printf.sprintf "unsupported snapshot version %d (want %d)" v version);
  let body_len = len - header_len - 8 in
  let stored = String.get_int64_le s (len - 8) in
  if not (Int64.equal stored (Codec.fnv1a64 ~pos:header_len ~len:body_len s))
  then fail "content hash mismatch (corrupt snapshot)";
  let r = Codec.reader ~what (String.sub s header_len body_len) in
  let n = Codec.get_varint r in
  if n < 0 then Codec.corrupt r "negative section count";
  let sections =
    List.init n (fun _ ->
        let name = Codec.get_string r in
        let payload = Codec.get_string r in
        { name; payload })
  in
  Codec.expect_end r;
  sections

(* Write-to-temp + rename: a crash (or a concurrent writer racing on the
   same warm-start path) can never leave a torn file behind — readers
   see the old complete snapshot or the new complete snapshot, and the
   last writer wins. The temp file lives next to the target so the
   rename stays within one filesystem. *)
let save ~path sections =
  let data = encode sections in
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ]
      ~temp_dir:(Filename.dirname path) ".ptgs-tmp" ".partial"
  in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !ok then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      (* [close_out] flushes and reports a failed write, so a short
         file is never renamed into place. *)
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Codec.output oc data;
          close_out oc);
      Sys.rename tmp path;
      ok := true)

let load ~path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string ~what:path s

(* ------------------------------------------------------------------ *)
(* Warm-start store naming: <dir>/<key>.<count>.ptgs                   *)
(* ------------------------------------------------------------------ *)

let store_file_name ~key count = Printf.sprintf "%s.%d.ptgs" key count
let store_path ~dir ~key count = Filename.concat dir (store_file_name ~key count)

let store_counts ~dir ~key =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun name ->
             match String.split_on_char '.' name with
             | [ k; n; "ptgs" ] when k = key -> int_of_string_opt n
             | _ -> None)
      |> List.sort (fun a b -> compare b a)

(* Deeper checkpoints strictly supersede shallower ones for the same
   key, so only the deepest [keep] are worth disk: the deepest is the
   warm-start candidate, the one below it the fallback should the
   deepest arrive damaged. A concurrent reader may hold a file we
   delete; removal failures are ignored (its readdir snapshot is
   stale, not torn — every surviving file is still complete). *)
let prune ?(keep = 2) ~dir ~key () =
  if keep < 1 then invalid_arg "Snapshot.prune: keep";
  let victims =
    List.filteri (fun i _ -> i >= keep) (store_counts ~dir ~key)
  in
  List.fold_left
    (fun removed n ->
      match Sys.remove (store_path ~dir ~key n) with
      | () -> removed + 1
      | exception Sys_error _ -> removed)
    0 victims

let find sections name =
  List.find_map (fun s -> if s.name = name then Some s.payload else None) sections

let get ~what sections name =
  match find sections name with
  | Some payload -> payload
  | None ->
      invalid_arg
        (Printf.sprintf "Snapshot.load: %s: missing section %S" what name)

let reader ~what sections name =
  Codec.reader ~what:(Printf.sprintf "%s[%s]" what name)
    (get ~what sections name)
