(* The resident compile service: wire-protocol unit tests, an
   end-to-end stdio session (mixed valid / malformed / oversized /
   deadline-exceeding requests, one structured response line per
   request, byte-identical replay across --jobs), deterministic
   cancellation, and the seeded chaos harness (every injected fault
   yields exactly the structured response its kind demands, and the
   service stays live through all of them). *)

module Proto = Vliw_service.Proto
module Faults = Vliw_service.Faults
module Serve = Vliw_service.Serve

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

(* --------------------------------------------------------------- proto *)

let test_json_roundtrip () =
  let cases =
    [
      ({|null|}, Proto.Null);
      ({|true|}, Proto.Bool true);
      ({|-42|}, Proto.Int (-42));
      ({|"a\"b\\c\nd"|}, Proto.String "a\"b\\c\nd");
      ({|[1,[2,3],{}]|},
       Proto.List [ Proto.Int 1; Proto.List [ Proto.Int 2; Proto.Int 3 ];
                    Proto.Obj [] ]);
      ({|{"k":"v","n":7}|},
       Proto.Obj [ ("k", Proto.String "v"); ("n", Proto.Int 7) ]);
    ]
  in
  List.iter
    (fun (text, v) ->
      (match Proto.parse text with
      | Ok got -> check cb ("parse " ^ text) true (got = v)
      | Error e -> Alcotest.fail (text ^ ": " ^ e));
      match Proto.parse (Proto.to_string v) with
      | Ok got -> check cb ("reparse " ^ text) true (got = v)
      | Error e -> Alcotest.fail ("reparse " ^ text ^ ": " ^ e))
    cases;
  (* \uXXXX escapes decode to UTF-8 *)
  match Proto.parse {|"éA"|} with
  | Ok (Proto.String s) -> check cs "unicode escape" "\xc3\xa9A" s
  | _ -> Alcotest.fail "unicode escape"

let test_json_rejects_malformed () =
  let bad =
    [
      ""; "{"; "[1,"; {|{"a":}|}; {|"unterminated|}; {|{"a":1}garbage|};
      "tru"; "01a"; {|{"a" 1}|}; "\xff{}"; "\"\x01\"";
      (* numbers that overflow to an infinity *)
      "1e999"; "-1e999"; "[1e400]";
      (* nesting past the depth bound *)
      String.concat "" (List.init 40 (fun _ -> "[")) ^ "1"
      ^ String.concat "" (List.init 40 (fun _ -> "]"));
    ]
  in
  List.iter
    (fun text ->
      match Proto.parse text with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" text)
      | Error _ -> ())
    bad;
  check cs "overflow message carries the byte position"
    "number out of range at byte 1"
    (match Proto.parse "[1e400]" with Ok _ -> "accepted" | Error e -> e)

let decode_err line =
  match Proto.decode line with
  | Ok _ -> Alcotest.fail (Printf.sprintf "decoded %S" line)
  | Error e -> e.Proto.kind

let test_decode_strictness () =
  check cs "unknown request" "unknown_request"
    (decode_err {|{"req":"frobnicate"}|});
  check cs "missing req" "missing_field" (decode_err {|{"bench":"gsmdec"}|});
  check cs "missing bench" "missing_field" (decode_err {|{"req":"compile"}|});
  check cs "ill-typed bench" "bad_field"
    (decode_err {|{"req":"compile","bench":42}|});
  check cs "unknown field rejected, not ignored" "unknown_field"
    (decode_err {|{"req":"health","extra":true}|});
  check cs "bad heuristic" "bad_field"
    (decode_err {|{"req":"compile","bench":"g","heuristic":"magic"}|});
  check cs "bad arch" "bad_field"
    (decode_err {|{"req":"simulate","bench":"g","arch":"tpu"}|});
  check cs "non-positive deadline" "bad_field"
    (decode_err {|{"req":"health","deadline":0}|});
  check cs "non-object" "not_object" (decode_err {|[1,2]|});
  match Proto.decode {|{"req":"compile","bench":"gsmdec","id":"x","deadline":9}|} with
  | Ok { Proto.id = Some "x"; deadline = Some 9; req = Proto.Compile _ } -> ()
  | _ -> Alcotest.fail "well-formed compile envelope"

let test_fault_plan_deterministic () =
  let p1 = Faults.create ~seed:42 and p2 = Faults.create ~seed:42 in
  let p3 = Faults.create ~seed:43 in
  let kinds p = List.init 500 (Faults.for_request p) in
  check cb "same seed, same plan" true (kinds p1 = kinds p2);
  check cb "different seed, different plan" true (kinds p1 <> kinds p3);
  let faulted = List.filter Option.is_some (kinds p1) in
  check cb "a meaningful fraction is faulted" true
    (List.length faulted > 100 && List.length faulted < 250);
  (* corruption is guaranteed un-parseable *)
  List.iter
    (fun seq ->
      let line = {|{"req":"health"}|} in
      match Proto.parse (Faults.corrupt p1 seq line) with
      | Ok _ -> Alcotest.fail "corrupted line still parsed"
      | Error _ -> ())
    [ 0; 1; 2; 3; 17; 255 ]

(* --------------------------------------------------- session harness *)

(* Run one stdio session in-process: write the request lines into a
   temp file, serve it until EOF/drain, read the response lines back
   from another.  A file rather than a pipe, so a session may exceed
   the pipe's capacity (the oversized-line case does). *)
let run_session ?(jobs = 1) ?chaos ?default_deadline lines =
  let in_path = Filename.temp_file "vliw_serve_test" ".in" in
  let oc = open_out_bin in_path in
  output_string oc (String.concat "\n" lines ^ "\n");
  close_out oc;
  let r = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let path = Filename.temp_file "vliw_serve_test" ".out" in
  let out = open_out path in
  let outcome =
    Serve.run ~jobs ?chaos ?default_deadline ~input:r ~output:out ()
  in
  Unix.close r;
  Sys.remove in_path;
  close_out out;
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = read [] in
  close_in ic;
  Sys.remove path;
  (outcome, responses)

let status_of line =
  match Proto.parse line with
  | Error e -> Alcotest.fail (Printf.sprintf "unstructured response %S: %s" line e)
  | Ok (Proto.Obj fields) -> (
      (match List.assoc_opt "schema_version" fields with
      | Some (Proto.Int _) -> ()
      | _ -> Alcotest.fail ("response without schema_version: " ^ line));
      (match List.assoc_opt "seq" fields with
      | Some (Proto.Int _) -> ()
      | _ -> Alcotest.fail ("response without seq: " ^ line));
      match List.assoc_opt "status" fields with
      | Some (Proto.String s) -> s
      | _ -> Alcotest.fail ("response without status: " ^ line))
  | Ok _ -> Alcotest.fail ("non-object response: " ^ line)

(* Mixed session: valid, malformed, oversized, unknown, ill-typed and
   deadline-exceeding requests.  The deadline-bearing request uses a
   memo key (gsmdec x IBC) nothing else in the session touches, so its
   timeout cannot race a single-flight waiter at jobs > 1. *)
let mixed_session =
  [
    {|{"req":"health"}|};
    {|{"req":"compile","bench":"gsmdec","id":"c1"}|};
    {|{"req":"compile","bench":"gsmdec","heuristic":"ibc","deadline":2,"id":"slow"}|};
    "this is not json";
    {|{"req":"frobnicate"}|};
    {|{"req":"compile","bench":42}|};
    "{\"req\":\"health\",\"pad\":\"" ^ String.make 70_000 'x' ^ "\"}";
    {|{"req":"compile","bench":"no-such-bench"}|};
    {|{"req":"simulate","bench":"gsmdec","arch":"interleaved+ab","trip_cap":64}|};
    {|{"req":"compile","bench":"gsmdec"}|};
    {|{"req":"health","id":"h2"}|};
    {|{"req":"drain","id":"bye"}|};
  ]

let test_e2e_one_response_per_request () =
  let outcome, responses = run_session mixed_session in
  check ci "one response line per request line"
    (List.length mixed_session) (List.length responses);
  check cs "drained by request" "request" outcome.Serve.reason;
  let statuses = List.map status_of responses in
  let count s = List.length (List.filter (String.equal s) statuses) in
  check ci "three ok (two health + simulate... )" 5 (count "ok");
  check ci "one deterministic timeout" 1 (count "timeout");
  check ci "five structured errors" 5 (count "error");
  check ci "one drained line" 1 (count "drained");
  check ci "no internal errors in a chaos-free session" 0
    (count "internal_error");
  (* the timeout response carries its partial attribution *)
  let timeout_line =
    List.find (fun l -> status_of l = "timeout") responses
  in
  check cb "timeout names its stage" true
    (match Proto.parse timeout_line with
    | Ok (Proto.Obj f) -> (
        (match List.assoc_opt "stage" f with
        | Some (Proto.String s) ->
            String.length s > 0
            && (match List.assoc_opt "work" f with
               | Some (Proto.Int w) -> w > 2
               | _ -> false)
        | _ -> false))
    | _ -> false)

let test_e2e_replay_byte_identical_across_jobs () =
  let _, r1 = run_session ~jobs:1 mixed_session in
  let _, r3 = run_session ~jobs:3 mixed_session in
  check ci "same response count" (List.length r1) (List.length r3);
  List.iteri
    (fun i (a, b) ->
      check cs (Printf.sprintf "response %d byte-identical" i) a b)
    (List.combine r1 r3)

(* ----------------------------------------------------------- chaos *)

let chaos_seed = 42

let chaos_session =
  List.concat
    (List.init 6 (fun i ->
         [
           Printf.sprintf {|{"req":"health","id":"h%d"}|} i;
           {|{"req":"compile","bench":"gsmdec"}|};
           {|{"req":"simulate","bench":"gsmdec","trip_cap":32}|};
           {|{"req":"compile","bench":"rasta"}|};
           "garbage line";
         ]))
  @ [ {|{"req":"drain"}|} ]

let test_chaos_all_responses_structured () =
  let outcome, responses =
    run_session ~jobs:2 ~chaos:chaos_seed chaos_session
  in
  (* If the plan corrupts the trailing drain request, its line becomes
     a structured parse error and the session drains at EOF instead —
     one extra "drained" line.  Deterministic either way. *)
  let plan = Faults.create ~seed:chaos_seed in
  let drain_seq = List.length chaos_session - 1 in
  let drain_corrupted =
    Faults.for_request plan drain_seq = Some Faults.Decode_corruption
  in
  check ci "one structured response per request, chaos included"
    (List.length chaos_session + if drain_corrupted then 1 else 0)
    (List.length responses);
  check cs "service drained cleanly through every fault"
    (if drain_corrupted then "eof" else "request")
    outcome.Serve.reason;
  let statuses = Array.of_list (List.map status_of responses) in
  Array.iter
    (fun s ->
      check cb ("known status " ^ s) true
        (List.mem s
           [ "ok"; "error"; "timeout"; "overloaded"; "internal_error";
             "drained" ]))
    statuses;
  (* Cross-check every injected fault against the status it must
     produce.  Decode corruption always yields a parse error; the other
     kinds only apply to dispatched (non-control) requests. *)
  List.iteri
    (fun seq line ->
      (* Worker-level faults only reach requests that decode into
         dispatched work; control requests and undecodable lines answer
         before the fault site. *)
      let dispatched =
        match Proto.decode line with
        | Ok { Proto.req = Proto.Health | Proto.Drain; _ } -> false
        | Ok _ -> true
        | Error _ -> false
      in
      match Faults.for_request plan seq with
      | Some Faults.Decode_corruption ->
          check cs
            (Printf.sprintf "seq %d: corruption => structured error" seq)
            "error" statuses.(seq)
      | Some Faults.Worker_exception when dispatched ->
          check cs
            (Printf.sprintf "seq %d: injected crash => internal_error" seq)
            "internal_error" statuses.(seq)
      | Some Faults.Budget_exhaustion when dispatched ->
          check cs
            (Printf.sprintf "seq %d: injected exhaustion => timeout" seq)
            "timeout" statuses.(seq)
      | Some Faults.Queue_full when dispatched ->
          check cs
            (Printf.sprintf "seq %d: injected queue-full => overloaded" seq)
            "overloaded" statuses.(seq)
      | _ -> ())
    chaos_session;
  (* The service survived: the post-chaos drain still reports counters
     adding up to the accepted total. *)
  let c = outcome.Serve.counters in
  check ci "counters account for every request" c.Serve.accepted
    (c.Serve.ok + c.Serve.errors + c.Serve.timeouts + c.Serve.internal_errors
    + c.Serve.shed
    + if drain_corrupted then 0 else 1 (* the drain request itself *))

let test_chaos_replay_byte_identical () =
  let _, r1 = run_session ~jobs:1 ~chaos:chaos_seed chaos_session in
  let _, r2 = run_session ~jobs:2 ~chaos:chaos_seed chaos_session in
  check cb "chaos session replays byte-identically" true (r1 = r2)

(* ------------------------------------------------- deadline semantics *)

let test_timeout_deterministic_and_memo_safe () =
  (* Same starved request twice in one session: both time out with the
     SAME work/stage attribution (the cancelled flight released its
     single-flight slot, so the second attempt recomputes from zero
     rather than inheriting state), and a third uncapped attempt
     succeeds on the untouched key. *)
  let session =
    [
      {|{"req":"compile","bench":"rasta","heuristic":"ibc","deadline":3}|};
      {|{"req":"compile","bench":"rasta","heuristic":"ibc","deadline":3}|};
      {|{"req":"compile","bench":"rasta","heuristic":"ibc"}|};
      {|{"req":"drain"}|};
    ]
  in
  let _, responses = run_session session in
  match responses with
  | [ t1; t2; ok; _drained ] ->
      check cs "first attempt times out" "timeout" (status_of t1);
      check cb "second timeout is byte-identical modulo seq" true
        (let strip l =
           match (Proto.parse l : (Proto.json, string) result) with
           | Ok (Proto.Obj f) -> List.remove_assoc "seq" f
           | _ -> []
         in
         strip t1 = strip t2 && strip t1 <> []);
      check cs "uncapped retry succeeds on the freed key" "ok"
        (status_of ok)
  | _ -> Alcotest.fail "expected exactly four responses"

(* ---------------------------------------------- malformed geometry *)

let error_kind line =
  match Proto.parse line with
  | Ok (Proto.Obj f) -> (
      match List.assoc_opt "error" f with
      | Some (Proto.Obj e) -> (
          match List.assoc_opt "kind" e with
          | Some (Proto.String k) -> k
          | _ -> "")
      | _ -> "")
  | _ -> ""

(* Cache geometries the models cannot build are the client's error:
   an AB capacity that is not a whole number of sets (simulate), and
   associativities that do not divide a cluster's module (sweep-cell),
   answer bad_config — not ok with a silently rounded cache, and not
   internal_error. *)
let test_bad_geometry_rejected () =
  let bad =
    [
      {|{"req":"simulate","bench":"gsmdec","ab_entries":3}|};
      {|{"req":"sweep-cell","bench":"gsmdec","associativity":3}|};
      {|{"req":"sweep-cell","bench":"gsmdec","associativity":1024}|};
      {|{"req":"sweep-cell","bench":"gsmdec","cache_size":4096,"associativity":256}|};
    ]
  in
  let _, responses = run_session (bad @ [ {|{"req":"drain"}|} ]) in
  check ci "one response per request" (List.length bad + 1)
    (List.length responses);
  List.iteri
    (fun i line ->
      if i < List.length bad then begin
        check cs (Printf.sprintf "request %d status" i) "error" (status_of line);
        check cs (Printf.sprintf "request %d kind" i) "bad_config"
          (error_kind line)
      end)
    responses

let suite =
  [
    ("proto: JSON round-trips", `Quick, test_json_roundtrip);
    ("proto: malformed JSON rejected", `Quick, test_json_rejects_malformed);
    ("proto: strict envelope decoding", `Quick, test_decode_strictness);
    ("faults: plan is a pure function of seed", `Quick,
     test_fault_plan_deterministic);
    ("serve: one structured response per request", `Slow,
     test_e2e_one_response_per_request);
    ("serve: replay byte-identical at jobs=1 vs jobs=3", `Slow,
     test_e2e_replay_byte_identical_across_jobs);
    ("serve: chaos session is 100% structured", `Slow,
     test_chaos_all_responses_structured);
    ("serve: chaos replay byte-identical across jobs", `Slow,
     test_chaos_replay_byte_identical);
    ("serve: timeouts deterministic, memo slot released", `Slow,
     test_timeout_deterministic_and_memo_safe);
    ("serve: unbuildable cache geometry is bad_config", `Quick,
     test_bad_geometry_rejected);
  ]
