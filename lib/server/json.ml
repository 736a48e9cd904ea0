(* {!Ptg_util.Json} under its old name, for programs that still use it. *)
include Ptg_util.Json
