(* Driving the real programs: `provdb` for workspace set-up and
   offline checks, `provdbd` as the server under test.  All paths are
   relative to the benchmark's working directory, which keeps socket
   paths short however deep the checkout sits. *)

type exes = { provdb : string; provdbd : string }

let ( // ) = Filename.concat

(* Run a command to completion, output to [log]; returns its exit code. *)
let run_cmd ~log argv =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin fd fd)
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s

let must ~log argv =
  let c = run_cmd ~log argv in
  if c <> 0 then
    failwith
      (Printf.sprintf "`%s` exited %d (see %s)" (String.concat " " (Array.to_list argv)) c log)

(* Fixed identity seeds: RSA key generation time depends on the seed,
   so the CA and participant keys are the same on every run and only
   the op stream varies with the workload seed. *)
let participants = [ "alice"; "bob" ]

let init_workspace exes ~log ~dir tables =
  let specs =
    List.concat_map (fun (t, _) -> [ "--table"; Printf.sprintf "%s:%s" t Gen.columns ]) tables
  in
  must ~log (Array.of_list ([ exes.provdb; "init"; dir ] @ specs @ [ "--seed"; "perfbench-ca" ]));
  List.iter
    (fun p -> must ~log [| exes.provdb; "participant"; dir; p; "--seed"; "perfbench-" ^ p |])
    participants

type t = { pid : int; out : in_channel; dir : string }

let socket d = d.dir // "provdbd.sock"

(* Start provdbd with its default flags and block until it prints its
   `listening` line. *)
let start exes ~log ~dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process exes.provdbd [| exes.provdbd; dir |] Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  let out = Unix.in_channel_of_descr r in
  let rec wait () =
    match input_line out with
    | line when String.starts_with ~prefix:"provdbd: listening" line -> ()
    | _ -> wait ()
    | exception End_of_file ->
        ignore (Unix.waitpid [] pid);
        failwith ("provdbd exited before listening (see " ^ log ^ ")")
  in
  wait ();
  { pid; out; dir }

(* Graceful drain: SIGTERM, then the daemon commits what is in flight,
   checkpoints and exits 0. *)
let drain d =
  Unix.kill d.pid Sys.sigterm;
  (try
     while true do
       ignore (input_line d.out)
     done
   with End_of_file -> ());
  close_in d.out;
  match snd (Unix.waitpid [] d.pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> failwith (Printf.sprintf "provdbd drain exited %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> failwith (Printf.sprintf "provdbd died on signal %d" s)

(* Only for error paths: stop without waiting for a drain. *)
let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  try close_in d.out with Sys_error _ -> ()

let status_kb pid field =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:(field ^ ":") line ->
            Scanf.sscanf (String.sub line (String.length field + 1) (String.length line - String.length field - 1)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> failwith (field ^ " not in /proc status")
      in
      go ())

(* Peak resident set of the daemon so far, in MB. *)
let peak_rss_mb d = float (status_kb d.pid "VmHWM") /. 1024.

let rec disk_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | Unix.S_DIR ->
      Array.fold_left (fun n f -> n + disk_bytes (path // f)) 0 (Sys.readdir path)
  | _ -> 0

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let live_rows dir =
  match Tep_store.Snapshot.load (dir // "backend.snap") with
  | Ok db -> Tep_store.Database.total_rows db
  | Error e -> failwith ("backend snapshot: " ^ e)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* What a data recipient holds: the CA key and the participant
   certificates, read from the workspace. *)
let load_identity dir =
  match Tep_crypto.Pki.ca_of_string (read_file (dir // "ca")) with
  | None -> failwith "unreadable CA"
  | Some ca ->
      let directory = Tep_core.Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
      let ps =
        List.map
          (fun name ->
            match Tep_core.Participant.of_string (read_file (dir // "participants" // name)) with
            | Some p ->
                Tep_core.Participant.Directory.register directory p;
                (name, p)
            | None -> failwith ("unreadable participant " ^ name))
          participants
      in
      (directory, ps)
