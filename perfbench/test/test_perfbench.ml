(* Unit tests for the benchmark's own logic: the tail-percentile rule,
   failure accounting, and op-stream determinism. *)

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let take w ~seed ~conn n = List.of_seq (Seq.take n (Gen.stream w ~seed ~conn))

let () =
  (* The tail is the highest of p99/p90 with at least ten samples
     beyond its rank. *)
  check "1000 samples -> p99" (Stats.tail_percentile 1000 = Some 990);
  check "999 samples -> p90" (Stats.tail_percentile 999 = Some 900);
  check "100 samples -> p90" (Stats.tail_percentile 100 = Some 900);
  check "99 samples -> none" (Stats.tail_percentile 99 = None);
  check "0 samples -> none" (Stats.tail_percentile 0 = None);
  let a = Array.init 1000 (fun i -> float (999 - i)) in
  let s = Stats.summarize a in
  check "p50 of 0..999" (s.Stats.p50 = 499.);
  check "p99 of 0..999 leaves ten beyond" (s.Stats.tail = Some (990, 989.));
  check "median of one" (Stats.median [| 3. |] = 3.);
  check "summary counts samples" (s.Stats.samples = 1000);
  (* Windows: equal op counts, at least 100 ops each so that each has a
     p90, medians across. *)
  let windowed n =
    let finished = List.init n (fun i -> float (i + 1)) in
    Stats.windowed ~t0:0. ~finished ~latencies:(List.map (fun _ -> 0.5) finished)
  in
  let wd = windowed 1000 in
  check "1000 ops -> 10 windows" (wd.Stats.nwindows = 10);
  check "one op per second" (wd.Stats.rate = 1.);
  check "window p50" (wd.Stats.wp50 = 0.5);
  check "100-op windows report p90" (wd.Stats.tail_pm = 900);
  check "512 ops -> 5 windows" ((windowed 512).Stats.nwindows = 5);
  let small = windowed 99 in
  check "below 100 ops: one window, tail falls back to p50" (small.Stats.nwindows = 1 && small.Stats.tail_pm = 500);
  (* Failures count as attempted, carry no latency, and merge. *)
  let t1 = Stats.tally () and t2 = Stats.tally () in
  Stats.record t1 (Ok (1., 1.5));
  Stats.record t1 (Error "refused");
  Stats.record t2 (Ok (2., 2.25));
  Stats.record t2 (Error "bad proof");
  Stats.record t2 (Ok (3., 3.75));
  let m = Stats.merge [ t1; t2 ] in
  check "attempted" (m.Stats.attempted = 5);
  check "failed" (m.Stats.failed = 2);
  check "succeeded" (Stats.succeeded m = 3);
  check "latencies of successes only" (List.sort compare m.Stats.latencies = [ 0.25; 0.5; 0.75 ]);
  check "errors kept" (List.length m.Stats.errors = 2);
  (* The same seed gives a byte-identical stream, another seed a
     different one, on every workload whose ops take parameters. *)
  List.iter
    (fun w ->
      List.iter
        (fun conn ->
          let name = Printf.sprintf "%s conn %d" (Gen.name w) conn in
          let a = Gen.encode (take w ~seed:7 ~conn 500) in
          check (name ^ ": same seed, same bytes") (a = Gen.encode (take w ~seed:7 ~conn 500));
          check (name ^ ": other seed, other bytes") (a <> Gen.encode (take w ~seed:8 ~conn 500)))
        (List.init (Gen.connections w) Fun.id))
    [ Gen.Ingest; Gen.Prove_read; Gen.Mixed ];
  check "connections draw different streams"
    (Gen.encode (take Gen.Ingest ~seed:7 ~conn:0 100) <> Gen.encode (take Gen.Ingest ~seed:7 ~conn:1 100));
  check "audit repeats one full verify" (List.for_all (( = ) Gen.Full_verify) (take Gen.Audit ~seed:7 ~conn:0 10));
  (* prove_read: about 90% of reads hit the fixed hot set. *)
  let hot = Lazy.force Gen.hot_cells in
  let hits =
    List.length
      (List.filter
         (function Gen.Read { row; col; _ } -> Array.mem (row, col) hot | _ -> false)
         (take Gen.Prove_read ~seed:3 ~conn:0 2000))
  in
  check "hot-set share near 90%" (hits > 1740 && hits < 1860);
  check "hot set has 128 distinct cells"
    (List.length (List.sort_uniq compare (Array.to_list hot)) = Gen.hot_set_size);
  check "preload is seed-free and sized" (List.length (Gen.preload Gen.Prove_read) = 1024);
  if !failures > 0 then exit 1;
  print_endline "perfbench: all tests passed"
