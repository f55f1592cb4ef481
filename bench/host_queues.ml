(* Host-level queue benchmarks: the optimistic ring of §3.2 running
   on real OCaml 5 domains — the multiprocessor the paper was designed
   for.  Single-threaded costs via Bechamel (one Test.make per
   producer/consumer case of the ring, plus the mutex baseline), and a
   multi-domain throughput comparison of optimistic vs locked
   synchronization. *)

open Bechamel
open Toolkit

let test_queue_roundtrip name put get =
  Test.make ~name (Staged.stage (fun () -> put 42; ignore (get ())))

let ring_case (name, producers, consumers) =
  let q = Oq.Ring.create ~producers ~consumers 64 in
  test_queue_roundtrip name
    (fun v -> ignore (Oq.Ring.try_put q v))
    (fun () -> Oq.Ring.try_get q)

let tests () =
  let locked = Oq.Locked.create 64 in
  Test.make_grouped ~name:"queue put+get" ~fmt:"%s %s"
    (List.map ring_case
       [ ("spsc", 1, 1); ("mpsc", 2, 1); ("spmc", 1, 2); ("mpmc", 2, 2) ]
    @ [
        test_queue_roundtrip "locked (mutex baseline)"
          (fun v -> ignore (Oq.Locked.try_put locked v))
          (fun () -> Oq.Locked.try_get locked);
      ])

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] (tests ()) in
  let results = Analyze.all ols instance raw in
  Fmt.pr "%-36s %14s@." "benchmark" "ns/op";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Fmt.pr "%-36s %14.1f@." name est
      | _ -> Fmt.pr "%-36s %14s@." name "n/a")
    results

(* Multi-domain throughput: N producers + 1 consumer, the N-producer
   ring vs the mutex-protected queue. *)
let throughput ~producers ~per_producer ~put ~get =
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init producers (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_producer do
              put i
            done))
  in
  let total = producers * per_producer in
  for _ = 1 to total do
    ignore (get ())
  done;
  List.iter Domain.join doms;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int total /. dt /. 1.0e6

let run_domains () =
  Repro_harness.Harness.header "Multi-domain throughput (Mops/s), optimistic vs locked";
  Fmt.pr "%-12s %12s %12s@." "producers" "ring" "locked";
  List.iter
    (fun producers ->
      let per = 200_000 in
      let ring = Oq.Ring.create ~producers ~consumers:1 1024 in
      let r =
        throughput ~producers ~per_producer:per
          ~put:(fun v -> Oq.Ring.put ring v)
          ~get:(fun () -> Oq.Ring.get ring)
      in
      let locked = Oq.Locked.create 1024 in
      let l =
        throughput ~producers ~per_producer:per
          ~put:(fun v -> Oq.Locked.put locked v)
          ~get:(fun () -> Oq.Locked.get locked)
      in
      Fmt.pr "%-12d %12.2f %12.2f@." producers r l)
    [ 1; 2; 3 ]

let run () =
  Repro_harness.Harness.header "Host-level queues (Bechamel, single domain)";
  run_bechamel ();
  run_domains ()
