(** The benchmark's host-side readings.  Every host clock and [Gc]
    read of the benchmark goes through this module, so the program
    under test ([lib/]) never reads one. *)

val now : unit -> float
(** Processor seconds used by this process so far (user + system).
    The benchmark runs the program on one domain that never blocks,
    so this is its run time minus the time other tenants of a shared
    machine held the core — steadier than wall time there. *)

val alloc_bytes : unit -> float
(** Bytes allocated by this process so far (minor + major, without
    double-counting promotions). *)

val mb : float -> float
(** Bytes to megabytes (10^6). *)

val heap_top_mb : unit -> float
(** Largest major-heap size this process has reached, in MB. *)

val live_mb : unit -> float
(** Live major-heap data now, in MB.  Walks the whole heap: cost
    proportional to heap size, so callers time it separately. *)

val collections : unit -> int * int
(** (minor, major) collections so far. *)
