(** The optimistic queue of §3.2 (Figures 1 and 2), one ring for all
    four producer/consumer cases.

    Head and tail are unbounded tickets and every slot carries a
    sequence number (Figure 2's valid flag with a generation), so ring
    wrap-around is safe whichever ends race.  The case table of the
    quaject interfacer (§5.2) decides only how each end claims a
    ticket: an end with one participant owns a plain mutable counter
    (an unfenced store), an end shared by several claims with
    compare-and-swap ({!Fault.cas}). *)

type 'a t

(** [create ?producers ?consumers n] makes a ring holding exactly [n]
    items ([n >= 2]) for the given number of producer and consumer
    domains.  An omitted count means any number, so [create n] is safe
    for every case.  An end created with a count of 1 must be used by
    one domain at a time. *)
val create : ?producers:int -> ?consumers:int -> int -> 'a t

(** [try_put q v] is [false] when the queue is full. *)
val try_put : 'a t -> 'a -> bool

(** [try_put_many q item n] atomically claims [n] contiguous tickets
    and inserts [item 0 .. item (n-1)] there (Figure 2); [false], with
    nothing inserted, if fewer than [n] slots are free.  Raises
    [Invalid_argument] unless [0 < n <= capacity]. *)
val try_put_many : 'a t -> (int -> 'a) -> int -> bool

(** [try_get q] is [None] when the queue is empty. *)
val try_get : 'a t -> 'a option

(** Spinning variants of [try_put]/[try_get]. *)
val put : 'a t -> 'a -> unit

val get : 'a t -> 'a

val is_empty : 'a t -> bool

(** Number of claimed items (racy under concurrency: a stale guess
    read from another domain, never negative). *)
val length : 'a t -> int

val capacity : 'a t -> int
