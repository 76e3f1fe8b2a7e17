(* monotonic nanoseconds (CLOCK_MONOTONIC) *)
external now_ns : unit -> int = "pb_now_ns" [@@noalloc]
