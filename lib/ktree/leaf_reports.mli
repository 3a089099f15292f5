(** Reports addressed to KT leaves, grouped by leaf slot.

    LBI aggregation and the VSA rendezvous both collect per-node
    reports tagged with the {!Ktree.slot_of_vs} slot of the leaf they
    are sent to, then hand each leaf its own reports during a sweep.
    A {!buffer} records (slot, report) pairs in arrival order; {!group}
    sorts them by slot with one stable counting sort, so each slot's
    reports keep their arrival order — the order the float folds and
    the pairing depend on. *)

type 'a buffer

val buffer : unit -> 'a buffer
(** An empty, growable buffer. *)

val push : 'a buffer -> int -> 'a -> unit
(** [push b slot r] appends report [r] for leaf [slot].  Raises
    [Invalid_argument] when [slot < 0]. *)

type 'a t
(** The buffer's reports grouped by slot. *)

val group : 'a buffer -> 'a t
(** Groups the reports pushed so far; the buffer is left unchanged. *)

val size : 'a t -> int -> int
(** Reports for one slot; 0 for a slot nothing was pushed to
    (negative slots included). *)

val iter : 'a t -> int -> ('a -> unit) -> unit
(** Visits one slot's reports in arrival order. *)

val fold_newest_first : 'a t -> int -> init:'b -> f:('b -> 'a -> 'b) -> 'b
(** Folds one slot's reports from the last pushed to the first. *)
