(* provbench — end-to-end and per-layer benchmark of provdbd.

     provbench.exe --provdb EXE --provdbd EXE
       --workload ingest|prove_read|mixed|audit --seed N --seconds S --trace 0|1

   Untraced (--trace 0): set up the workload's store three times from
   an empty directory (init, participants, daemon start, preload over
   the wire, drain, restart, Ping ready) and report the median set-up
   time; run the timed phase against the last daemon; drain it and
   check the results.  Traced (--trace 1): one untraced phase and one
   traced phase, each on a fresh store, then in-process measurements
   of each layer; reports per-layer metrics and the tracing overhead.

   The last line of standard output is the result object. *)

module Client = Tep_client.Client
module Message = Tep_wire.Message

let ( // ) = Filename.concat
let now = Unix.gettimeofday

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Daemons started and not yet stopped; killed on any error exit. *)
let live : Daemon.t list ref = ref []

let start exes ~dir =
  let d = Daemon.start exes ~log:"provdbd.log" ~dir in
  live := d :: !live;
  d

let forget d = live := List.filter (fun x -> x.Daemon.pid <> d.Daemon.pid) !live

let drain d =
  forget d;
  Daemon.drain d

let discard d =
  forget d;
  Daemon.kill d

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type setup = {
  dir : string;
  daemon : Daemon.t;
  setup_s : float;
  restart_s : float; (* drain of the preloading daemon to the restarted one ready *)
  stages : (string * float) list; (* set-up time by stage *)
  preload_counters : Load.counters; (* server counters over the preload *)
  ctx : Load.ctx;
  participants : Tep_core.Participant.t list;
}

let setup exes w ~seed ~tag =
  let dir = "ws-" ^ tag in
  rm_rf dir;
  let t0 = now () in
  Daemon.init_workspace exes ~log:"provdb.log" ~dir (Gen.tables w);
  let t_init = now () in
  let d = start exes ~dir in
  let directory, ps = Daemon.load_identity dir in
  let participants = List.map snd ps in
  let alice = List.hd participants in
  let c = Load.connect ~sock:(Daemon.socket d) ~drbg_seed:(Printf.sprintf "perfbench/preload/%s/%d" tag seed) alice in
  Load.preload c (Gen.preload w);
  let preload_counters = Load.counters c in
  Client.close c;
  (* Let the daemon finish handling the close, so SIGTERM always finds
     it idle.  An idle provdbd runs the signal handler only when its
     reactor's 1 s poll returns, so the drain below includes that wait,
     as it does for an operator stopping an idle daemon. *)
  Unix.sleepf 0.02;
  let t_drain = now () in
  drain d;
  let t_drained = now () in
  let d = start exes ~dir in
  let c = Load.connect ~sock:(Daemon.socket d) ~drbg_seed:(Printf.sprintf "perfbench/ready/%s/%d" tag seed) alice in
  let h = Load.ok_or "ping" (Client.ping c) in
  Client.close c;
  if not h.Client.ready then failwith "restarted daemon not ready";
  let t1 = now () in
  {
    dir;
    daemon = d;
    setup_s = t1 -. t0;
    restart_s = t1 -. t_drain;
    stages = [ ("init", t_init -. t0); ("preload", t_drain -. t_init); ("drain", t_drained -. t_drain); ("ready", t1 -. t_drained) ];
    preload_counters;
    ctx = { Load.algo = Tep_crypto.Digest_algo.SHA1; directory };
    participants;
  }

(* ------------------------------------------------------------------ *)
(* One measured phase with its checks                                  *)
(* ------------------------------------------------------------------ *)

type measured = {
  s : setup;
  phase : Load.phase;
  tally : Stats.tally;
  before : Load.counters;
  after : Load.counters;
  wal_bytes : int; (* wal.log growth over the timed phase *)
  rss_mb : float;
  disk_bytes : int;
  live_rows : int;
  rpc_s : float; (* traced runs: Ping round trip at depth 1, after the timed phase *)
  checks : (string * bool) list;
}

let ops_ok m = Stats.succeeded m.tally

(* The latency samples of the connections the metrics cover. *)
let windowed w m =
  let t = Stats.merge (List.filteri (fun i _ -> List.mem i (Gen.latency_conns w)) (List.map (fun r -> r.Load.tally) m.phase.Load.conns)) in
  Stats.windowed ~t0:m.phase.Load.t_start ~finished:t.Stats.finished ~latencies:t.Stats.latencies

(* e2e metrics by name, in BENCHMARK.json order.  Throughput counts
   every connection's ops; the latencies, the connections of
   [Gen.latency_conns]. *)
let throughput m =
  let all = Stats.merge (List.map (fun r -> r.Load.tally) m.phase.Load.conns) in
  (Stats.windowed ~t0:m.phase.Load.t_start ~finished:all.Stats.finished ~latencies:all.Stats.latencies).Stats.rate

let e2e w m ~setup_s =
  let lat = windowed w m in
  [
    ("ops_per_s", "1/s", throughput m);
    ("latency_p50_ms", "ms", lat.Stats.wp50 *. 1000.);
    ("latency_tail_ms", "ms", lat.Stats.wtail *. 1000.);
    ("setup_s", "s", setup_s);
    ("server_rss_mb", "MB", m.rss_mb);
    ("disk_bytes_per_row", "B", float m.disk_bytes /. float m.live_rows);
  ]

let exit_code exes argv = Daemon.run_cmd ~log:"provdb.log" (Array.append [| exes.Daemon.provdb |] argv)

let measure exes w ~seed ~seconds ~trace ~setups ~tag =
  let ss =
    List.init setups (fun k ->
        let s = setup exes w ~seed ~tag:(Printf.sprintf "%s-%d" tag k) in
        if k < setups - 1 then begin
          discard s.daemon;
          rm_rf s.dir
        end;
        s)
  in
  let s = List.nth ss (setups - 1) in
  let sock = Daemon.socket s.daemon in
  let alice = List.hd s.participants in
  let probe tag' = Load.connect ~sock ~drbg_seed:(Printf.sprintf "perfbench/probe/%s/%s/%d" tag tag' seed) alice in
  let c = probe "before" in
  let before = Load.counters c in
  Client.close c;
  let wal0 = Daemon.file_size (s.dir // "wal.log") in
  let phase =
    Load.timed_phase s.ctx w ~sock ~participants:s.participants ~seed ~seconds ~trace ~tag
  in
  let c = probe "after" in
  let after = Load.counters c in
  let rpc_s = if trace then Load.ping_rtt c 200 else 0. in
  Client.close c;
  let wal_bytes = Daemon.file_size (s.dir // "wal.log") - wal0 in
  let rss_mb = Daemon.peak_rss_mb s.daemon in
  drain s.daemon;
  let tally = Stats.merge (List.map (fun r -> r.Load.tally) phase.Load.conns) in
  let inserts = List.fold_left (fun n r -> n + r.Load.inserts) 0 phase.Load.conns in
  let live_rows = Daemon.live_rows s.dir in
  let disk_bytes = Daemon.disk_bytes s.dir in
  let verify_clean = exit_code exes [| "verify"; s.dir |] = 0 in
  let canary =
    exit_code exes [| "tamper"; s.dir; "--attack"; "provenance" |] = 0
    && exit_code exes [| "verify"; s.dir |] = 3
  in
  let checks =
    [
      ("no failed ops", tally.Stats.failed = 0);
      ("live rows = preload + acknowledged inserts", live_rows = Gen.preload_rows w + inserts);
      ("drained workspace verifies", verify_clean);
      ("tamper canary detected (exit 3)", canary);
      ("no dedup hits", after.Load.pong.Client.dedup_hits = 0);
      ("nothing shed", after.Load.pong.Client.shed = 0);
    ]
  in
  ( { s; phase; tally; before; after; wal_bytes; rss_mb; disk_bytes; live_rows; rpc_s; checks }, ss )

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let median l = Stats.median (Array.of_list l)

(* A fingerprint of the program's sources, standing in for a git
   revision when the checkout is not a repository. *)
let source_rev () =
  match Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" with
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev -> rev
      | _ ->
          let ctx = Tep_crypto.Sha256.init () in
          let rec walk dir =
            Array.iter
              (fun f ->
                let p = dir // f in
                if Sys.is_directory p then walk p
                else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then begin
                  Tep_crypto.Sha256.update ctx p;
                  Tep_crypto.Sha256.update ctx (Daemon.read_file p)
                end)
              (let a = Sys.readdir dir in
               Array.sort compare a;
               a)
          in
          List.iter walk [ "lib"; "bin" ];
          "src-" ^ String.sub (Tep_crypto.Sha256.hex (Tep_crypto.Sha256.final ctx)) 0 12)

let rev = lazy (source_rev ())

let host_block ~calib =
  json_obj
    [
      ( "host",
        json_obj
          ([
             ("cores", string_of_int (Domain.recommended_domain_count ()));
             ("ocaml", json_string Sys.ocaml_version);
             ("rev", json_string (Lazy.force rev));
             ("provdbd_io_threads", json_string "4 (provdbd default)");
             ("pool_domains", string_of_int (Tep_parallel.Pool.default_domains ()));
             ("flush_policy", json_string "WAL flushed to the OS per group commit, not fsynced");
             ("rsa_bits", "1024");
           ]
          @ List.map (fun (k, _, v) -> (k, json_num v)) calib) );
    ]

let result ~correct ~attempted ~failed metrics =
  json_obj
    [
      ("correct", if correct then "true" else "false");
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_obj (List.map (fun (k, u, v) -> (k, json_obj [ ("value", json_num v); ("unit", json_string u) ])) metrics) );
    ]

let report_checks ?(label = "") m =
  List.iter (fun (name, ok) -> Printf.printf "check%s %-45s %s\n" label name (if ok then "ok" else "FAILED")) m.checks;
  List.iter (fun e -> Printf.printf "error: %s\n" e) m.tally.Stats.errors

let passed m = List.for_all snd m.checks

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let main ~exes ~w ~seed ~seconds ~trace =
  let seconds = float seconds in
  if not trace then begin
    let m, ss = measure exes w ~seed ~seconds ~trace:false ~setups:3 ~tag:"u" in
    let setup_times = List.map (fun s -> s.setup_s) ss in
    let calib = Layers.calibrate (List.hd m.s.participants) in
    let metrics = e2e w m ~setup_s:(median setup_times) in
    let lat = windowed w m in
    print_endline (host_block ~calib);
    let total f = List.fold_left (fun n r -> n + f r) 0 m.phase.Load.conns in
    Printf.printf
      "workload %s seed %d: %d ops (%d writes, %d reads, %d re-pins) in %.3f s; latency over %d samples in %d windows, tail = p%g\n"
      (Gen.name w) seed (ops_ok m)
      (total (fun r -> r.Load.writes))
      (total (fun r -> r.Load.reads))
      (total (fun r -> r.Load.repins))
      m.phase.Load.wall_s lat.Stats.samples lat.Stats.nwindows
      (float lat.Stats.tail_pm /. 10.);
    List.iter
      (fun s ->
        Printf.printf "setup %.3f s:%s\n" s.setup_s
          (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s %.3f" k v) s.stages)))
      ss;
    report_checks m;
    print_endline
      (result ~correct:(passed m) ~attempted:m.tally.Stats.attempted ~failed:m.tally.Stats.failed metrics)
  end
  else begin
    let u, u_setup = measure exes w ~seed ~seconds ~trace:false ~setups:1 ~tag:"u" in
    let t, t_setup = measure exes w ~seed ~seconds ~trace:true ~setups:1 ~tag:"t" in
    let calib = Layers.calibrate (List.hd t.s.participants) in
    let setup_s ss = median (List.map (fun s -> s.setup_s) ss) in
    let eu = e2e w u ~setup_s:(setup_s u_setup) and et = e2e w t ~setup_s:(setup_s t_setup) in
    (* overhead as a cost: the share by which tracing made each metric worse *)
    let overhead =
      List.map2
        (fun (k, _, vu) (_, _, vt) ->
          let worse = if k = "ops_per_s" then vu -. vt else vt -. vu in
          ("trace.overhead." ^ k, "ratio", worse /. vu))
        eu et
    in
    let layers =
      Layers.measure w ~seed ~calib
        {
          Layers.phase = t.phase;
          before = t.before;
          after = t.after;
          preload = t.s.preload_counters;
          wal_bytes = t.wal_bytes;
          restart_s = t.s.restart_s;
          directory = t.s.ctx.Load.directory;
          participant = List.hd t.s.participants;
          p50_s = (windowed w t).Stats.wp50;
          rate = throughput t;
          rpc_s = t.rpc_s;
        }
    in
    print_endline (host_block ~calib);
    report_checks ~label:" (untraced)" u;
    report_checks ~label:" (traced)" t;
    let attempted = u.tally.Stats.attempted + t.tally.Stats.attempted in
    let failed = u.tally.Stats.failed + t.tally.Stats.failed in
    print_endline (result ~correct:(passed u && passed t) ~attempted ~failed (layers @ overhead))
  end

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let provdb = ref "" and provdbd = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  ingest | prove_read | mixed | audit");
      ("--seed", Arg.Set_int seed, "N  op-stream seed");
      ("--seconds", Arg.Set_int seconds, "S  nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--provdb", Arg.Set_string provdb, "EXE  the provdb CLI");
      ("--provdbd", Arg.Set_string provdbd, "EXE  the provdbd daemon");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "provbench --provdb EXE --provdbd EXE --workload NAME --seed N --seconds S --trace 0|1";
  match Gen.of_name !workload with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some w -> (
      let exes = { Daemon.provdb = !provdb; provdbd = !provdbd } in
      let work = Printf.sprintf "perfbench/.work/%s" (Gen.name w) in
      (try rm_rf work with Unix.Unix_error _ -> ());
      (try Unix.mkdir "perfbench/.work" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Unix.mkdir work 0o755;
      ignore (Lazy.force rev);
      Sys.chdir work;
      (* A stalled daemon must not outlive the run's time limit. *)
      ignore
        (Thread.create
           (fun () ->
             Unix.sleepf 170.;
             List.iter Daemon.kill !live;
             prerr_endline "provbench: time limit reached";
             Stdlib.exit 1)
           ());
      try main ~exes ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      with e ->
        List.iter Daemon.kill !live;
        Printf.eprintf "provbench: %s\n" (Printexc.to_string e);
        exit 1)
