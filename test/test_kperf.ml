(* kperf: the Quamachine PMU (counter windows, interrupt counting,
   pc-sample weights), profiler owner attribution, and the PMU's
   zero-simulated-cost guarantee. *)

open Quamachine
open Synthesis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* PMU counter windows *)

let run_pipeline_with b =
  let pl = Repro_harness.Harness.Pipeline.build ~total:1024 b in
  Repro_harness.Harness.Pipeline.run pl

let test_pmu_window_counts () =
  let b = Boot.boot () in
  let m = b.Boot.kernel.Kernel.machine in
  let pmu = Pmu.create m in
  check_bool "not running before start" false (Pmu.running pmu);
  let cy0 = Machine.cycles m and in0 = Machine.insns_executed m in
  Pmu.start pmu;
  run_pipeline_with b;
  Pmu.stop pmu;
  (* the window covers exactly the machine deltas *)
  check_int "cycles counter" (Machine.cycles m - cy0) (Pmu.read pmu Pmu.Cycles);
  check_int "instruction counter"
    (Machine.insns_executed m - in0)
    (Pmu.read pmu Pmu.Instructions);
  check_bool "memory references counted" true (Pmu.read pmu Pmu.Mem_refs > 0);
  (* the pipeline runs on quantum timers: interrupts were taken and
     the machine-level count flows through the PMU *)
  check_bool "interrupts taken" true (Machine.irqs_taken m > 0);
  check_int "interrupt counter" (Machine.irqs_taken m)
    (Pmu.read pmu Pmu.Interrupts)

let test_pmu_stop_freezes () =
  let b = Boot.boot () in
  let m = b.Boot.kernel.Kernel.machine in
  let entry, _ =
    Asm.assemble m
      [ Insn.Move (Insn.Imm 7, Insn.Reg Insn.r0); Insn.Halt ]
  in
  let go () =
    Machine.set_supervisor m true;
    Machine.set_reg m Insn.sp Layout.boot_stack_top;
    Machine.set_pc m entry;
    ignore (Machine.run ~max_insns:100 m)
  in
  let pmu = Pmu.create m in
  Pmu.start pmu;
  go ();
  Pmu.stop pmu;
  let frozen = Pmu.read_all pmu in
  check_bool "window saw work" true (Pmu.read pmu Pmu.Instructions > 0);
  (* cycles spent outside a window are invisible to the counters *)
  go ();
  List.iter
    (fun (c, v) ->
      check_int
        (Fmt.str "%s frozen across stop" (Pmu.counter_name c))
        v (Pmu.read pmu c))
    frozen;
  (* a second window accumulates on top of the first *)
  let first_cy = Pmu.read pmu Pmu.Cycles in
  let cy_mid = Machine.cycles m in
  Pmu.start pmu;
  go ();
  Pmu.stop pmu;
  check_int "windows accumulate"
    (first_cy + (Machine.cycles m - cy_mid))
    (Pmu.read pmu Pmu.Cycles);
  (* reset zeroes everything *)
  Pmu.reset pmu;
  List.iter (fun (c, _) -> check_int "reset" 0 (Pmu.read pmu c)) frozen

let test_pmu_samples_tile_window () =
  let b = Boot.boot () in
  let m = b.Boot.kernel.Kernel.machine in
  let pmu = Pmu.create m in
  Pmu.enable_sampling pmu ~period:251;
  check_int "period readable" 251 (Pmu.sampling_period pmu);
  Pmu.start pmu;
  run_pipeline_with b;
  Pmu.stop pmu;
  check_bool "samples taken" true (Pmu.sample_count pmu > 0);
  (* each sample's weight is the cycles since the previous one, so the
     weights tile the sampled span: their sum never exceeds the window
     and the histogram is only a re-grouping of the same weights *)
  check_bool "sampled cycles within window" true
    (Pmu.sampled_cycles pmu <= Pmu.read pmu Pmu.Cycles);
  let hist_sum =
    List.fold_left (fun a (_, w) -> a + w) 0 (Pmu.sample_histogram pmu)
  in
  check_int "histogram re-buckets the sample weights"
    (Pmu.sampled_cycles pmu) hist_sum;
  List.iter
    (fun (_, w) -> check_bool "weights positive" true (w > 0))
    (Pmu.samples pmu);
  (* disabling sampling drops the hook; counters keep working *)
  Pmu.disable_sampling pmu;
  check_int "period 0 when off" 0 (Pmu.sampling_period pmu)

(* The exact sample stream of the pipeline workload at period 251,
   pinned from the sampler as it ran inside the machine's step loop:
   the countdown now lives in [Pmu] and must not move a sample. *)
let test_pmu_sample_stream_pinned () =
  let b = Boot.boot () in
  let pmu = Pmu.create b.Boot.kernel.Kernel.machine in
  Pmu.enable_sampling pmu ~period:251;
  Pmu.start pmu;
  run_pipeline_with b;
  Pmu.stop pmu;
  check_int "sample count" 601 (Pmu.sample_count pmu);
  check_int "sampled cycles" 163_933 (Pmu.sampled_cycles pmu);
  let stream =
    String.concat ";"
      (List.map (fun (pc, w) -> Fmt.str "%d:%d" pc w) (Pmu.samples pmu))
  in
  Alcotest.(check string)
    "(pc, weight) digest" "7fe60d283b570068f931ab792d555b5e"
    (Digest.to_hex (Digest.string stream))

(* ------------------------------------------------------------------ *)
(* Profiler attribution *)

let test_profile_balances () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let tr = Ktrace.create m in
  Kernel.attach_tracing k tr;
  let pmu = Pmu.create m in
  Pmu.enable_sampling pmu ~period:251;
  Pmu.start pmu;
  run_pipeline_with b;
  Pmu.stop pmu;
  let p = Profile.collect k pmu in
  (* the acceptance claim: per-owner cycles partition the machine's
     cycle total exactly *)
  check_int "owner lines sum to machine total" p.Profile.p_total
    (Profile.owners_total p);
  check_bool "balanced" true (Profile.balanced p);
  check_int "total is the machine's" (Machine.cycles m) p.Profile.p_total;
  let shares =
    List.fold_left (fun a l -> a +. l.Profile.l_share) 0.0 p.Profile.p_owners
  in
  Alcotest.(check (float 1e-6)) "shares sum to 100%" 100.0 shares;
  (* the flat view names synthesized fragments, not just addresses *)
  check_bool "flat view nonempty" true (p.Profile.p_flat <> []);
  check_bool "a synthesized routine is named" true
    (List.exists (fun (_, name, _) -> name <> "(user/unowned)") p.Profile.p_flat)

(* ------------------------------------------------------------------ *)
(* Zero simulated cost *)

let test_pmu_is_free () =
  let run ~sample () =
    let b = Boot.boot () in
    let m = b.Boot.kernel.Kernel.machine in
    if sample then begin
      let pmu = Pmu.create m in
      Pmu.enable_sampling pmu ~period:97;
      Pmu.start pmu
    end;
    run_pipeline_with b;
    (Machine.cycles m, Machine.insns_executed m)
  in
  let pcy, pin = run ~sample:false () in
  let scy, sin = run ~sample:true () in
  check_int "identical cycle counts" pcy scy;
  check_int "identical instruction counts" pin sin

let () =
  Alcotest.run "kperf"
    [
      ( "pmu",
        [
          Alcotest.test_case "window counts" `Quick test_pmu_window_counts;
          Alcotest.test_case "stop freezes" `Quick test_pmu_stop_freezes;
          Alcotest.test_case "samples tile the window" `Quick
            test_pmu_samples_tile_window;
          Alcotest.test_case "sample stream pinned" `Quick
            test_pmu_sample_stream_pinned;
          Alcotest.test_case "sampling costs zero cycles" `Quick
            test_pmu_is_free;
        ] );
      ( "profile",
        [ Alcotest.test_case "attribution balances" `Quick test_profile_balances ] );
    ]
