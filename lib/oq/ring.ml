(* The optimistic queue of §3.2 (Figures 1 and 2), one ring for every
   producer/consumer case.

   Head and tail are unbounded tickets (slot = ticket mod size) and
   every slot carries a sequence number: the valid flag of Figure 2
   with a generation attached.  A producer may fill ticket [h] once
   its slot shows [h] (drained last lap) and publishes it by storing
   [h + 1]; a consumer may drain ticket [t] once its slot shows
   [t + 1] and frees it for the next lap by storing [t + size].
   Tickets never repeat, so an end that stalls for a whole lap between
   reading a slot and claiming its ticket simply loses the claim —
   ring wrap-around cannot fool it.

   The four cases differ only in how an end keeps its ticket counter,
   which is what the quaject interfacer decides per connection (§5.2):
   an end with one participant owns a plain mutable counter that no
   one else writes, so claiming costs an unfenced store (Code
   Isolation, Figure 1); an end shared by several keeps an atomic
   counter and claims with compare-and-swap, retrying on a lost race
   (Figure 2).  The slots' sequence stores, which publish and free
   items, are fenced in every case.  Nothing else depends on the
   case.

   [create n] holds exactly [n] items. *)

(* An end's ticket counter. *)
type ticket =
  | Owned of { mutable next : int } (* one participant *)
  | Shared of int Atomic.t (* several: claim by CAS *)

let next = function Owned o -> o.next | Shared a -> Atomic.get a

(* Move an end's counter from [old] to [nw]; an owned counter has no
   other writer, so its claim cannot lose. *)
let claim ticket old nw =
  match ticket with
  | Owned o ->
    o.next <- nw;
    true
  | Shared a -> Fault.cas a old nw

type 'a t = {
  buf : 'a option array;
  seq : int Atomic.t array;
  size : int;
  head : ticket; (* producers' *)
  tail : ticket; (* consumers' *)
}

(* Without a count, assume the end is shared: that is always safe. *)
let make_ticket = function
  | Some 1 -> Owned { next = 0 }
  | _ -> Shared (Atomic.make 0)

(* One slot is too few: "holds ticket [t]" and "free for ticket
   [t + 1]" would both read [t + 1]. *)
let create ?producers ?consumers size =
  if size < 2 then invalid_arg "Ring.create: size must be >= 2";
  {
    buf = Array.make size None;
    seq = Array.init size (fun i -> Atomic.make i);
    size;
    head = make_ticket producers;
    tail = make_ticket consumers;
  }

type slots = Free | Full | Stale

(* Are the slots of tickets [h + i .. h + n - 1] drained, ready for
   this lap? *)
let rec slots t h n i =
  if i = n then Free
  else
    let s = Atomic.get t.seq.((h + i) mod t.size) in
    if s = h + i then slots t h n (i + 1)
    else if s < h + i then Full (* previous lap not drained *)
    else Stale (* another producer advanced head; reread *)

(* Claim [n] contiguous tickets; the first one, or -1 when fewer than
   [n] slots are free. *)
let rec reserve t n =
  let h = next t.head in
  match slots t h n 0 with
  | Full -> -1
  | Stale -> reserve t n
  | Free -> if claim t.head h (h + n) then h else reserve t n

(* Fill a claimed ticket's slot, then hand it to the consumers. *)
let publish t ticket v =
  let slot = ticket mod t.size in
  t.buf.(slot) <- Some v;
  Atomic.set t.seq.(slot) (ticket + 1)

(* Figure 1's single-item insert, the mirror of [try_get]. *)
let rec try_put t v =
  let h = next t.head in
  let slot = h mod t.size in
  let s = Atomic.get t.seq.(slot) in
  if s = h then
    if claim t.head h (h + 1) then begin
      t.buf.(slot) <- Some v;
      Atomic.set t.seq.(slot) (h + 1);
      true
    end
    else try_put t v
  else if s < h then false (* previous lap not drained: full *)
  else try_put t v (* another producer advanced head; reread *)

(* Figure 2's atomic multi-item insert: all [n] items on contiguous
   tickets, or none. *)
let try_put_many t items n =
  if n <= 0 || n > t.size then invalid_arg "Ring.try_put_many";
  let h = reserve t n in
  h >= 0
  && begin
    for i = 0 to n - 1 do
      publish t (h + i) (items i)
    done;
    true
  end

let rec try_get t =
  let tl = next t.tail in
  let slot = tl mod t.size in
  let s = Atomic.get t.seq.(slot) in
  if s = tl + 1 then
    if claim t.tail tl (tl + 1) then begin
      (* Ticket claimed: we are the slot's only reader this lap. *)
      let v = t.buf.(slot) in
      t.buf.(slot) <- None;
      Atomic.set t.seq.(slot) (tl + t.size);
      v
    end
    else try_get t
  else if s <= tl then None (* not yet published: empty *)
  else try_get t (* another consumer took this ticket; reread *)

let rec put t v =
  if not (try_put t v) then begin
    Domain.cpu_relax ();
    put t v
  end

let rec get t =
  match try_get t with
  | Some v -> v
  | None ->
    Domain.cpu_relax ();
    get t

(* Read [tail] before [head]: both only grow and a ticket is claimed
   by a consumer only after a producer claimed it.  An owned counter
   read from another domain may be stale, hence the clamp. *)
let length t =
  let tl = next t.tail in
  max 0 (next t.head - tl)

let is_empty t = length t = 0
let capacity t = t.size
