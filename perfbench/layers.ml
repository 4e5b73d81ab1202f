(* Per-layer measurements for the traced run.

   Every number here comes from timing a call into a layer's public
   functions from the benchmark's own code; nothing is instrumented
   inside the program.  Three sources:

   - calibration: the crypto and bignum primitives on their own;
   - replay: the workload's write stream fed to an in-process Engine
     built from the same schema and participant key, for the engine
     commit stages, proofs and verification;
   - the traced phase: spans around each client call, the server's
     Ping/Stats/Shard_stats counters before and after it, Ping round
     trips sent one at a time after it, and the request and response
     values it actually exchanged.

   Write-side metrics of a read-only workload (prove_read, audit) are
   taken over the preload that built its store, which is the only
   write stream it has. *)

module Client = Tep_client.Client
module Message = Tep_wire.Message
module Session = Tep_wire.Session
module Engine = Tep_core.Engine
module Verifier = Tep_core.Verifier
module Provstore = Tep_core.Provstore
module Participant = Tep_core.Participant
module Proof = Tep_tree.Proof
module Pool = Tep_parallel.Pool
module Value = Tep_store.Value
module Drbg = Tep_crypto.Drbg

let now = Unix.gettimeofday

(* Median over [batches] of the mean per-call time of [reps] calls. *)
let per_call ?(batches = 5) ~reps f =
  let one () =
    let t0 = now () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (now () -. t0) /. float reps
  in
  ignore (one ());
  Stats.median (Array.init batches (fun _ -> one ()))

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

let calibrate p =
  let payload = Tep_crypto.Sha256.digest "perfbench calibration payload" in
  let signature = Participant.sign p payload in
  let pk = Participant.public_key p in
  if not (Tep_crypto.Rsa.verify ~algo:Tep_crypto.Digest_algo.SHA256 pk ~msg:payload ~signature) then
    failwith "calibration: signature does not verify";
  let b256 = String.make 256 'x' and mib = String.make (1 lsl 20) 'y' in
  let n = pk.Tep_crypto.Rsa.n in
  let d = Drbg.create ~seed:"perfbench/modpow" in
  let base = Tep_bignum.Nat.rem (Tep_bignum.Nat.of_bytes_be (Drbg.generate d 128)) n in
  let exp = Tep_bignum.Nat.rem (Tep_bignum.Nat.of_bytes_be (Drbg.generate d 128)) n in
  [
    ("crypto.rsa_sign_us", "us", 1e6 *. per_call ~reps:20 (fun () -> Participant.sign p payload));
    ( "crypto.rsa_verify_us",
      "us",
      1e6
      *. per_call ~reps:100 (fun () ->
             Tep_crypto.Rsa.verify ~algo:Tep_crypto.Digest_algo.SHA256 pk ~msg:payload ~signature) );
    ("crypto.sha256_256b_ns", "ns", 1e9 *. per_call ~reps:5000 (fun () -> Tep_crypto.Sha256.digest b256));
    ("crypto.sha1_mib_s", "MiB/s", 1. /. per_call ~reps:4 (fun () -> Tep_crypto.Sha1.digest mib));
    ("bignum.modpow_1024_us", "us", 1e6 *. per_call ~reps:5 (fun () -> Tep_bignum.Zmod.modpow base exp n));
  ]

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay_ops = 256

let apply e p = function
  | Message.Op_insert { table; cells } -> Result.map ignore (Engine.insert_row e p ~table cells)
  | Message.Op_update { table; row; col; value } -> Engine.update_cell e p ~table ~row ~col value
  | _ -> Error "replay: unexpected op"

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* The first [replay_ops] writes of the timed phase, in the order the
   connections' streams interleave. *)
let write_prefix w ~seed =
  let streams = List.init (Gen.connections w) (fun conn -> Gen.stream w ~seed ~conn) in
  let writes s = Seq.filter_map (function Gen.Write op -> Some op | _ -> None) s in
  match w with
  | Gen.Ingest ->
      let per = replay_ops / List.length streams in
      let prefixes = List.map (fun s -> Array.of_seq (Seq.take per (writes s))) streams in
      List.concat (List.init per (fun k -> List.map (fun a -> a.(k)) prefixes))
  | Gen.Mixed -> List.of_seq (Seq.take replay_ops (writes (List.hd streams)))
  | Gen.Prove_read | Gen.Audit -> []

type replay = {
  engine : Engine.t;
  per_op : Engine.metrics; (* summed over [n_ops] *)
  n_ops : int;
}

let replay w ~seed ~directory p =
  let db = Tep_store.Database.create ~name:"replay" in
  let col name = { Tep_store.Schema.name; ty = Value.TInt; nullable = true } in
  List.iter
    (fun (t, _) -> ignore (ok "replay table" (Tep_store.Database.create_table db ~name:t (Tep_store.Schema.make [ col "a"; col "b" ]))))
    (Gen.tables w);
  (try Sys.remove "replay.wal" with Sys_error _ -> ());
  let wal = Tep_store.Wal.open_file "replay.wal" in
  let e = Engine.create ~wal ~pool:(Pool.default ()) ~directory db in
  (* the preload, in group commits as large as the wire preload's *)
  let rec chunks l =
    match l with
    | [] -> []
    | _ ->
        let rec split k acc l =
          if k = 0 then (List.rev acc, l)
          else match l with [] -> (List.rev acc, []) | x :: r -> split (k - 1) (x :: acc) r
        in
        let c, rest = split 64 [] l in
        c :: chunks rest
  in
  List.iter
    (fun chunk ->
      ignore
        (ok "replay preload"
           (Engine.complex_op e p (fun () ->
                List.fold_left (fun acc op -> match acc with Error _ -> acc | Ok () -> apply e p op) (Ok ()) chunk))))
    (chunks (Gen.preload w));
  let m0 = Engine.total_metrics e in
  let ops = write_prefix w ~seed in
  List.iter (fun op -> ok "replay op" (apply e p op)) ops;
  let m1 = Engine.total_metrics e in
  let diff =
    {
      Engine.hash_s = m1.Engine.hash_s -. m0.Engine.hash_s;
      sign_s = m1.Engine.sign_s -. m0.Engine.sign_s;
      sign_cpu_s = m1.Engine.sign_cpu_s -. m0.Engine.sign_cpu_s;
      store_s = m1.Engine.store_s -. m0.Engine.store_s;
      records_emitted = m1.Engine.records_emitted - m0.Engine.records_emitted;
      nodes_hashed = m1.Engine.nodes_hashed - m0.Engine.nodes_hashed;
      checksum_bytes = m1.Engine.checksum_bytes - m0.Engine.checksum_bytes;
    }
  in
  if ops = [] then { engine = e; per_op = m0; n_ops = Gen.preload_rows w }
  else { engine = e; per_op = diff; n_ops = List.length ops }

(* ------------------------------------------------------------------ *)
(* The traced phase                                                    *)
(* ------------------------------------------------------------------ *)

let spans_named (ph : Load.phase) name =
  List.concat_map
    (fun r -> List.filter_map (fun s -> if s.Load.name = name then Some (s.Load.t1 -. s.Load.t0) else None) r.Load.spans)
    ph.Load.conns
  |> Array.of_list

let write_spans (ph : Load.phase) path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun r ->
          List.iter
            (fun s ->
              Printf.fprintf oc "{\"id\": %d, \"parent\": %d, \"conn\": %d, \"name\": %S, \"t0\": %.6f, \"t1\": %.6f}\n" s.Load.id
                s.Load.parent s.Load.conn s.Load.name s.Load.t0 s.Load.t1)
            (List.rev r.Load.spans))
        ph.Load.conns)

let ratio a b = if b = 0 then 0. else float a /. float b

(* What each per-layer metric should move: (metric, e2e metric, workloads). *)
let links =
  [
    ("crypto.rsa_sign_us", "ops_per_s on ingest");
    ("crypto.rsa_verify_us", "latency_p50_ms on audit, prove_read");
    ("crypto.sha256_256b_ns", "calibration constant");
    ("crypto.sha1_mib_s", "core.hash_ms_per_op");
    ("bignum.modpow_1024_us", "crypto.rsa_sign_us, hence ingest");
    ("core.sign_ms_per_op", "latency_p50_ms on ingest");
    ("core.hash_ms_per_op", "ops_per_s on mixed (wide node), not ingest");
    ("core.store_ms_per_op", "latency_p50_ms on ingest");
    ("core.records_per_op", "core.sign_ms_per_op");
    ("core.nodes_hashed_per_op", "core.hash_ms_per_op");
    ("core.checksum_bytes_per_op", "disk_bytes_per_row");
    ("core.verify_ms", "latency_p50_ms on audit");
    ("tree.prove_us", "latency_p50_ms on prove_read");
    ("tree.proof_bytes", "latency_p50_ms on prove_read");
    ("tree.proof_verify_us", "latency_p50_ms on prove_read");
    ("store.wal_bytes_per_op", "latency_p50_ms on ingest");
    ("store.restart_s", "setup_s");
    ("server.ops_per_batch", "ops_per_s on ingest");
    ("server.sign_ms_per_op", "ops_per_s on ingest");
    ("server.sign_concurrency", "ops_per_s on ingest");
    ("server.proof_cache_hit_rate", "latency_p50_ms on prove_read (high), mixed (~0)");
    ("server.root_cache_hit_rate", "latency_p50_ms on mixed");
    ("server.proof_bytes_per_proof", "latency_p50_ms on prove_read");
    ("server.rpc_overhead_ms", "latency_p50_ms on ingest, prove_read (fixed per-RPC cost)");
    ("wire.codec_us", "latency_p50_ms on prove_read");
    ("wire.mac_us", "latency_p50_ms on prove_read");
    ("wire.response_bytes", "latency_p50_ms on prove_read");
    ("client.check_proofs_ms", "latency_p50_ms on prove_read, mixed");
    ("client.repins_per_read", "latency_tail_ms on mixed");
    ("parallel.verify_speedup", "latency_p50_ms on audit");
  ]


type traced = {
  phase : Load.phase;
  before : Load.counters;
  after : Load.counters;
  preload : Load.counters; (* counters of the daemon that ran the preload *)
  wal_bytes : int;
  restart_s : float;
  directory : Participant.Directory.t;
  participant : Participant.t;
  p50_s : float; (* traced latency median *)
  rate : float; (* traced ops_per_s *)
  rpc_s : float; (* median round trip of a Ping issued one at a time *)
}

let sum f (ph : Load.phase) = List.fold_left (fun n r -> n + f r) 0 ph.Load.conns

(* A sample of cells to prove: the reads of the workload's stream, or
   uniform cells of its store when it issues none. *)
let sample_cells w ~seed n =
  let reads =
    List.concat_map
      (fun conn ->
        List.of_seq
          (Seq.filter_map
             (function Gen.Read { table; row; col } -> Some (table, row, col) | _ -> None)
             (Seq.take n (Gen.stream w ~seed ~conn))))
      (Gen.latency_conns w)
  in
  if reads <> [] then List.filteri (fun i _ -> i < n) reads
  else
    let d = Drbg.create ~seed:(Printf.sprintf "perfbench/cells/%d" seed) in
    let ts = Array.of_list (Gen.tables w) in
    List.init n (fun _ ->
        let table, rows = ts.(Drbg.uniform_int d (Array.length ts)) in
        (table, Drbg.uniform_int d rows, Drbg.uniform_int d Gen.ncols))

let measure w ~seed ~calib (t : traced) =
  let algo = Tep_crypto.Digest_algo.SHA1 in
  let directory = t.directory in
  let ph = t.phase in
  let writes = sum (fun r -> r.Load.writes) ph and reads = sum (fun r -> r.Load.reads) ph in
  (* core: replay *)
  let r = replay w ~seed ~directory t.participant in
  let e = r.engine in
  let n = float r.n_ops in
  let m = r.per_op in
  let records = Provstore.all (Engine.provstore e) in
  let timed f =
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  in
  let verify pool =
    let rep, s = timed (fun () -> Verifier.verify_records ~pool ~algo ~directory records) in
    if not (Verifier.ok rep) then failwith "replay store does not verify";
    s
  in
  let seq_s = verify Pool.sequential in
  let pool_s = verify (Pool.default ()) in
  (* tree *)
  let root = Engine.root_hash e in
  let oids =
    List.map
      (fun (table, row, col) ->
        match Tep_tree.Tree_view.cell_oid (Engine.mapping e) table row col with
        | Some o -> o
        | None -> failwith "replay: missing cell")
      (sample_cells w ~seed 64)
  in
  let proofs = List.map (fun o -> ok "replay prove" (Engine.prove e o)) oids in
  let each l f = per_call ~reps:1 (fun () -> List.iter (fun x -> ignore (Sys.opaque_identity (f x))) l) /. float (List.length l) in
  let prove_s = each oids (fun o -> Engine.prove e o) in
  let proof_bytes = List.fold_left (fun n p -> n + Proof.size_bytes p) 0 proofs / List.length proofs in
  let pverify_s = each proofs (fun p -> ok "replay proof" (Proof.verify algo ~root_hash:root p)) in
  (* client *)
  let check_spans = spans_named ph "client.check_proofs" in
  let check_s =
    if Array.length check_spans > 0 then Stats.median check_spans
    else
      let items =
        List.map2
          (fun o p ->
            {
              Client.pf_shard = 0;
              pf_shard_roots = [ root ];
              pf_items =
                [ { Client.pf_proof = p; pf_encoded = Proof.to_string p; pf_records = Provstore.provenance_object (Engine.provstore e) o } ];
            })
          oids proofs
      in
      each items (fun p -> ok "replay check" (Client.check_proofs ~algo ~directory ~trusted_root:root p))
  in
  (* wire: the workload's own request and response values *)
  let exs = List.map (fun r -> r.Load.ex) ph.Load.conns in
  let pick f = match List.find_map f exs with Some v -> v | None -> failwith "no response of the workload's kind" in
  let response =
    match w with
    | Gen.Ingest -> pick (fun x -> x.Load.ex_submitted)
    | Gen.Prove_read | Gen.Mixed -> pick (fun x -> x.Load.ex_proof)
    | Gen.Audit -> pick (fun x -> x.Load.ex_verified)
  in
  let request =
    match Gen.request (Seq.find_map Option.some (Gen.stream w ~seed ~conn:(List.hd (Gen.latency_conns w))) |> Option.get) with
    | Message.Submit op ->
        (* the client sends every write under a 24-hex-digit request id *)
        Message.Submit_idem { rid = "0f1e2d3c4b5a69788796a5b4"; op }
    | r -> r
  in
  let req_msg = Message.with_cid 1 (Message.request_to_string request) in
  let resp_msg = Message.with_cid 1 (Message.response_to_string response) in
  let codec_s =
    per_call ~reps:20 (fun () ->
        let q = Message.with_cid 1 (Message.request_to_string request) in
        let _, off = Option.get (Message.read_cid q) in
        ignore (Sys.opaque_identity (Message.decode_request q off));
        let p = Message.with_cid 1 (Message.response_to_string response) in
        let _, off = Option.get (Message.read_cid p) in
        Message.decode_response p off)
  in
  let keyed = Session.keyed ~key:(String.make 32 'k') in
  let mac_s =
    per_call ~reps:20 (fun () ->
        let sq = Session.seal_keyed keyed ~dir:Session.To_server ~seq:0 req_msg in
        ignore (ok "open" (Session.open_keyed keyed ~dir:Session.To_server ~seq:0 sq));
        let sp = Session.seal_keyed keyed ~dir:Session.To_client ~seq:0 resp_msg in
        ok "open" (Session.open_keyed keyed ~dir:Session.To_client ~seq:0 sp))
  in
  (* server *)
  let d0, d1 = if writes > 0 then (Some t.before, t.after) else (None, t.preload) in
  let delta f = f d1 - match d0 with Some c -> f c | None -> 0 in
  let st f = delta (fun c -> f c.Load.stats) in
  let ph_sh f = f t.after.Load.shard - f t.before.Load.shard in
  let batches = st (fun s -> s.Client.batches) and sops = st (fun s -> s.Client.ops) in
  let sign_wall = st (fun s -> s.Client.sign_wall_us) and sign_cpu = st (fun s -> s.Client.sign_cpu_us) in
  let pc_hits = ph_sh (fun s -> s.Message.ss_proof_cache_hits) and pc_miss = ph_sh (fun s -> s.Message.ss_proof_cache_misses) in
  let rc_hits = ph_sh (fun s -> s.Message.ss_root_hits) and rc_miss = ph_sh (fun s -> s.Message.ss_root_recomputes) in
  let served = ph_sh (fun s -> s.Message.ss_proofs_served) and pbytes = ph_sh (fun s -> s.Message.ss_proof_bytes) in
  let inproc_verify_s =
    if w <> Gen.Audit then 0.
    else
      snd
        (timed (fun () ->
             ignore (ok "verify root" (Engine.verify_object e (Engine.root_oid e)));
             Verifier.verify_records ~pool:(Pool.default ()) ~algo ~directory records))
  in
  let proof_hit_rate = ratio pc_hits (pc_hits + pc_miss) in
  (* Composition of the traced p50 from the layers that block one op:
     - core: the in-process engine work of the op; on mixed, of the
       writer's commits, which hold the lock the reader waits behind
       (writes per read of them);
     - tree: proof construction, paid only on a proof-LRU miss (a hit
       replays the cached encoded proof);
     - wire: codec and MAC of the op's request and response;
     - client: the client-side proof check;
     - rpc: the fixed reactor, dispatch and IPC cost of each RPC;
     - queue: with several writes in flight, the ops ahead of this one,
       each taking 1/ops_per_s of the server (Little's law).
     A read makes two RPCs (pin, prove) per attempt, and a re-pin is one
     more attempt; a failed check is cheap and not counted again. *)
  let commit_s = (m.Engine.sign_s +. m.Engine.hash_s +. m.Engine.store_s) /. n in
  let core_s, tree_s, client_s =
    match w with
    | Gen.Ingest -> (commit_s, 0., 0.)
    | Gen.Prove_read -> (0., (1. -. proof_hit_rate) *. prove_s, check_s)
    | Gen.Mixed -> (ratio writes reads *. commit_s, (1. -. proof_hit_rate) *. prove_s, check_s)
    | Gen.Audit -> (inproc_verify_s, 0., 0.)
  in
  let attempts = 1. +. ratio (sum (fun r -> r.Load.repins) ph) reads in
  let rpcs = match w with Gen.Prove_read | Gen.Mixed -> 2. | Gen.Ingest | Gen.Audit -> 1. in
  let tree_s = attempts *. tree_s in
  let wire_s = attempts *. (codec_s +. mac_s) in
  let rpc_s = attempts *. rpcs *. t.rpc_s in
  let ahead = if Gen.depth w > 1 then (Gen.connections w * Gen.depth w) - 1 else 0 in
  let queue_s = float ahead /. t.rate in
  let rest = t.p50_s -. core_s -. tree_s -. wire_s -. client_s -. rpc_s -. queue_s in
  Printf.printf
    "composition %s: p50 %.3f ms = core %.3f + tree %.3f + wire %.3f + client %.3f + rpc %.3f + queue %.3f (%d ahead) + unexplained %.3f ms (%.0f%%); %.2f attempts per op\n"
    (Gen.name w) (t.p50_s *. 1e3) (core_s *. 1e3) (tree_s *. 1e3) (wire_s *. 1e3) (client_s *. 1e3) (rpc_s *. 1e3)
    (queue_s *. 1e3) ahead (rest *. 1e3)
    (100. *. rest /. t.p50_s) attempts;
  let metrics =
    calib
    @ [
        ("core.sign_ms_per_op", "ms", 1e3 *. m.Engine.sign_s /. n);
        ("core.hash_ms_per_op", "ms", 1e3 *. m.Engine.hash_s /. n);
        ("core.store_ms_per_op", "ms", 1e3 *. m.Engine.store_s /. n);
        ("core.records_per_op", "count", float m.Engine.records_emitted /. n);
        ("core.nodes_hashed_per_op", "count", float m.Engine.nodes_hashed /. n);
        ("core.checksum_bytes_per_op", "B", float m.Engine.checksum_bytes /. n);
        ("core.verify_ms", "ms", 1e3 *. seq_s);
        ("tree.prove_us", "us", 1e6 *. prove_s);
        ("tree.proof_bytes", "B", float proof_bytes);
        ("tree.proof_verify_us", "us", 1e6 *. pverify_s);
        ("store.wal_bytes_per_op", "B", ratio t.wal_bytes writes);
        ("store.restart_s", "s", t.restart_s);
        ("server.ops_per_batch", "ratio", ratio sops batches);
        ("server.sign_ms_per_op", "ms", ratio sign_wall sops /. 1e3);
        ("server.sign_concurrency", "ratio", ratio sign_cpu sign_wall);
        ("server.proof_cache_hit_rate", "ratio", proof_hit_rate);
        ("server.root_cache_hit_rate", "ratio", ratio rc_hits (rc_hits + rc_miss));
        ("server.proof_bytes_per_proof", "B", ratio pbytes served);
        ("server.rpc_overhead_ms", "ms", 1e3 *. t.rpc_s);
        ("wire.codec_us", "us", 1e6 *. codec_s);
        ("wire.mac_us", "us", 1e6 *. mac_s);
        ("wire.response_bytes", "B", float (String.length resp_msg));
        ("client.check_proofs_ms", "ms", 1e3 *. check_s);
        ("client.repins_per_read", "ratio", attempts -. 1.);
        ("parallel.verify_speedup", "ratio", seq_s /. pool_s);
        ("trace.unexplained_share", "ratio", rest /. t.p50_s);
      ]
  in
  List.iter
    (fun (k, u, v) ->
      Printf.printf "layer %-30s %14.4f %-6s -> %s\n" k v u
        (Option.value (List.assoc_opt k links) ~default:"composition remainder, not gated"))
    metrics;
  write_spans ph "spans.jsonl";
  metrics
