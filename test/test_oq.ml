(* Host-level optimistic queue tests: sequential semantics, property
   tests, and real multi-domain stress (no lost or duplicated items). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sequential FIFO semantics: one ring, the four §5.2 cases *)

let spsc = ("spsc", 1, 1)
and mpsc = ("mpsc", 3, 1)
and spmc = ("spmc", 1, 3)
and mpmc = ("mpmc", 3, 3)

let cases = [ spsc; mpsc; spmc; mpmc ]

let ring (_, producers, consumers) n = Oq.Ring.create ~producers ~consumers n
let get_exn q = match Oq.Ring.try_get q with Some v -> v | None -> -1

(* [create 8] holds exactly 8 items in every case. *)
let test_fifo case () =
  let q = ring case 8 in
  check_bool "initially empty" true (Oq.Ring.is_empty q);
  for i = 1 to 8 do
    check_bool "put" true (Oq.Ring.try_put q i)
  done;
  check_bool "full rejects" false (Oq.Ring.try_put q 99);
  check_int "length" 8 (Oq.Ring.length q);
  for i = 1 to 8 do
    check_int "fifo order" i (get_exn q)
  done;
  check_bool "drained" true (Oq.Ring.try_get q = None)

let test_multi_insert () =
  (* Figure 2: atomic insert of several items. *)
  let q = ring mpsc 16 in
  let items = [| 10; 20; 30; 40; 50 |] in
  check_bool "burst accepted" true (Oq.Ring.try_put_many q (fun i -> items.(i)) 5);
  check_bool "too-large burst rejected" false
    (Oq.Ring.try_put_many q (fun i -> i) 12);
  (* 16 capacity - 5 used = 11 free; an 11-item burst fits *)
  check_bool "exact-fit burst" true (Oq.Ring.try_put_many q (fun i -> 100 + i) 11);
  check_bool "now full" false (Oq.Ring.try_put q 1);
  Array.iter (fun expect -> check_int "burst order" expect (get_exn q)) items

let test_wrap () =
  (* push/pop repeatedly across the wrap boundary, in every case *)
  List.iter
    (fun case ->
      let q = ring case 4 in
      for round = 0 to 20 do
        check_bool "put a" true (Oq.Ring.try_put q (round * 2));
        check_bool "put b" true (Oq.Ring.try_put q ((round * 2) + 1));
        check_bool "burst" true (Oq.Ring.try_put_many q (fun i -> i) 2);
        check_int "get a" (round * 2) (get_exn q);
        check_int "get b" ((round * 2) + 1) (get_exn q);
        check_int "burst 0" 0 (get_exn q);
        check_int "burst 1" 1 (get_exn q)
      done)
    cases

(* ------------------------------------------------------------------ *)
(* Property: any interleaving of puts, bursts and gets behaves like a
   bounded FIFO of exactly the ring's capacity *)

let capacity = 16

let fifo_model_agreement case ops =
  let q = ring case capacity in
  let model = Queue.create () in
  List.for_all
    (fun op ->
      match op with
      | `Put v ->
        let fits = Queue.length model < capacity in
        let accepted = Oq.Ring.try_put q v in
        if accepted then Queue.push v model;
        accepted = fits
      | `Put_many (v, n) ->
        let fits = Queue.length model + n <= capacity in
        let accepted = Oq.Ring.try_put_many q (fun i -> v + i) n in
        if accepted then
          for i = 0 to n - 1 do
            Queue.push (v + i) model
          done;
        accepted = fits
      | `Get -> (
        match (Oq.Ring.try_get q, Queue.is_empty model) with
        | None, true -> true
        | Some v, false -> v = Queue.pop model
        | Some _, true -> false
        | None, false -> false))
    ops

let ops_gen =
  QCheck.Gen.(
    list_size (int_bound 200)
      (frequency
         [
           (3, map (fun v -> `Put v) (int_bound 1000));
           (1, map2 (fun v n -> `Put_many (v, n)) (int_bound 1000) (int_range 1 4));
           (3, return `Get);
         ]))

let arb_ops =
  QCheck.make ops_gen ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | `Put v -> Printf.sprintf "put %d" v
             | `Put_many (v, n) -> Printf.sprintf "put_many %d x%d" v n
             | `Get -> "get")
           ops))

let prop_fifo ((name, _, _) as case) =
  QCheck.Test.make ~name:(name ^ " behaves like a FIFO") ~count:300 arb_ops
    (fun ops -> fifo_model_agreement case ops)

(* ------------------------------------------------------------------ *)
(* Multi-domain stress: no losses, no duplicates, per-producer order *)

let sum_to n = n * (n + 1) / 2

let test_spsc_domains () =
  let q = ring spsc 64 in
  let n = 50_000 in
  let producer = Domain.spawn (fun () -> for i = 1 to n do Oq.Ring.put q i done) in
  let total = ref 0 and last = ref 0 and ok = ref true in
  for _ = 1 to n do
    let v = Oq.Ring.get q in
    if v <= !last then ok := false;
    last := v;
    total := !total + v
  done;
  Domain.join producer;
  check_bool "strictly increasing" true !ok;
  check_int "no items lost" (sum_to n) !total

let test_mpsc_domains () =
  let producers = 4 and per = 20_000 in
  let q = Oq.Ring.create ~producers ~consumers:1 64 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Oq.Ring.put q ((p * per) + i)
            done))
  in
  let seen = Hashtbl.create 1024 in
  let total = producers * per in
  for _ = 1 to total do
    let v = Oq.Ring.get q in
    if Hashtbl.mem seen v then Alcotest.failf "duplicate %d" v;
    Hashtbl.replace seen v ()
  done;
  List.iter Domain.join doms;
  check_int "all items arrived exactly once" total (Hashtbl.length seen);
  check_bool "queue drained" true (Oq.Ring.try_get q = None)

let test_mpsc_multi_insert_domains () =
  (* Concurrent burst inserts stay contiguous (atomic insert). *)
  let producers = 4 and bursts = 3_000 and burst_len = 5 in
  let q = Oq.Ring.create ~producers ~consumers:1 128 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for b = 0 to bursts - 1 do
              let base = (((p * bursts) + b) * burst_len) + 1 in
              let rec try_again () =
                if not (Oq.Ring.try_put_many q (fun i -> base + i) burst_len) then begin
                  Domain.cpu_relax ();
                  try_again ()
                end
              in
              try_again ()
            done))
  in
  let total = producers * bursts * burst_len in
  let got = Array.make total 0 in
  for i = 0 to total - 1 do
    got.(i) <- Oq.Ring.get q
  done;
  List.iter Domain.join doms;
  (* every burst of 5 must appear contiguously *)
  let i = ref 0 and contiguous = ref true in
  while !i < total do
    let v = got.(!i) in
    if (v - 1) mod burst_len <> 0 then contiguous := false;
    for j = 1 to burst_len - 1 do
      if got.(!i + j) <> v + j then contiguous := false
    done;
    i := !i + burst_len
  done;
  check_bool "bursts are atomic (contiguous)" true !contiguous

(* [consumers] domains drain until [total] items were taken; returns
   the sum each consumer saw. *)
let drain q ~consumers ~total =
  let consumed = Atomic.make 0 in
  let sums = Array.make consumers 0 in
  let doms =
    List.init consumers (fun c ->
        Domain.spawn (fun () ->
            let continue = ref true in
            while !continue do
              match Oq.Ring.try_get q with
              | Some v ->
                sums.(c) <- sums.(c) + v;
                ignore (Atomic.fetch_and_add consumed 1)
              | None ->
                if Atomic.get consumed >= total then continue := false
                else Domain.cpu_relax ()
            done))
  in
  fun () ->
    List.iter Domain.join doms;
    Array.fold_left ( + ) 0 sums

let test_spmc_domains () =
  let consumers = 3 and total = 60_000 in
  let q = Oq.Ring.create ~producers:1 ~consumers 64 in
  let join = drain q ~consumers ~total in
  for i = 1 to total do
    Oq.Ring.put q i
  done;
  check_int "sum preserved across consumers" (sum_to total) (join ())

let test_mpmc_domains () =
  let producers = 3 and consumers = 3 and per = 20_000 in
  (* No counts given: both ends shared, the safe default. *)
  let q = Oq.Ring.create 64 in
  let prod_doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Oq.Ring.put q ((p * per) + i)
            done))
  in
  let join = drain q ~consumers ~total:(producers * per) in
  List.iter Domain.join prod_doms;
  let expect = (producers * sum_to per) + (per * per * (0 + 1 + 2)) in
  check_int "sum preserved across domains" expect (join ())

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "oq"
    [
      ( "sequential",
        let fifo ((name, _, _) as case) =
          Alcotest.test_case (name ^ " fifo") `Quick (test_fifo case)
        in
        [
          fifo spsc;
          fifo mpsc;
          Alcotest.test_case "mpsc multi-insert" `Quick test_multi_insert;
          fifo spmc;
          fifo mpmc;
          Alcotest.test_case "every case wraps" `Quick test_wrap;
        ] );
      ("properties", qcheck (List.map prop_fifo cases));
      ( "domains",
        [
          Alcotest.test_case "spsc cross-domain" `Slow test_spsc_domains;
          Alcotest.test_case "mpsc 4 producers" `Slow test_mpsc_domains;
          Alcotest.test_case "mpsc atomic bursts" `Slow test_mpsc_multi_insert_domains;
          Alcotest.test_case "spmc 3 consumers" `Slow test_spmc_domains;
          Alcotest.test_case "mpmc 3x3" `Slow test_mpmc_domains;
        ] );
    ]
