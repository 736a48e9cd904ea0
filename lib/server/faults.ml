type kind =
  | Delay_handler of float
  | Wedge_worker of float
  | Torn_frame
  | Drop_connection

let kind_name = function
  | Delay_handler _ -> "delay"
  | Wedge_worker _ -> "wedge"
  | Torn_frame -> "torn"
  | Drop_connection -> "drop"

type t = {
  mutex : Mutex.t;
  mutable armed : kind option;
  mutable remaining : int;
}

let create () = { mutex = Mutex.create (); armed = None; remaining = 0 }

let arm ?(times = 1) t kind =
  if times < 1 then invalid_arg "Faults.arm: times";
  (match kind with
  | Delay_handler d | Wedge_worker d ->
      (* Finite too: an infinite wedge can never drain at shutdown. *)
      if not (d >= 0. && Float.is_finite d) then invalid_arg "Faults.arm: delay"
  | Torn_frame | Drop_connection -> ());
  Mutex.lock t.mutex;
  t.armed <- Some kind;
  t.remaining <- times;
  Mutex.unlock t.mutex

let disarm t =
  Mutex.lock t.mutex;
  t.armed <- None;
  t.remaining <- 0;
  Mutex.unlock t.mutex

let take_matching t f =
  Mutex.lock t.mutex;
  let r =
    match t.armed with
    | Some kind when t.remaining > 0 -> (
        match f kind with
        | Some _ as hit ->
            t.remaining <- t.remaining - 1;
            if t.remaining = 0 then t.armed <- None;
            hit
        | None -> None)
    | _ -> None
  in
  Mutex.unlock t.mutex;
  r

let of_spec spec =
  let parts = String.split_on_char ':' spec in
  let arg = function
    | None | Some "*" | Some "" -> Ok None
    | Some s -> (
        match float_of_string_opt s with
        | Some f when f >= 0. && Float.is_finite f -> Ok (Some f)
        | Some f when Float.is_finite f ->
            Error
              (Printf.sprintf
                 "fault argument %S must be a non-negative number of seconds" s)
        | Some _ ->
            Error (Printf.sprintf "fault argument %S must be finite" s)
        | None -> Error (Printf.sprintf "bad fault argument %S" s))
  in
  let times = function
    | None | Some "" -> Ok 1
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | Some _ ->
            Error
              (Printf.sprintf "fault count %S must be a positive repeat count" s)
        | None -> Error (Printf.sprintf "bad fault count %S" s))
  in
  let nth i = List.nth_opt parts i in
  if List.length parts > 3 then Error (Printf.sprintf "bad fault spec %S" spec)
  else
    match (nth 0, arg (nth 1), times (nth 2)) with
    | _, Error e, _ | _, _, Error e -> Error e
    | Some "delay", Ok (Some d), Ok n -> Ok (Delay_handler d, n)
    | Some "wedge", Ok (Some d), Ok n -> Ok (Wedge_worker d, n)
    | Some ("delay" | "wedge"), Ok None, _ ->
        Error "delay/wedge need a seconds argument (e.g. wedge:2)"
    | Some "torn", Ok None, Ok n -> Ok (Torn_frame, n)
    | Some "drop", Ok None, Ok n -> Ok (Drop_connection, n)
    | Some ("torn" | "drop"), Ok (Some _), _ ->
        Error "torn/drop take no argument (use KIND or KIND:*:TIMES)"
    | _ ->
        Error
          (Printf.sprintf
             "unknown fault %S (one of: delay:SECS, wedge:SECS, torn, drop)"
             spec)
