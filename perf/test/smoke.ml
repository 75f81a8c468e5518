(* Smoke test of the benchmark executable: every workload at 1% scale,
   untraced and traced, checked against the metric names BENCHMARK.json
   declares and against the legs the committed digest files name; plus
   the named-error exit on bad input.

   Usage: smoke.exe MAIN_EXE BENCHMARK_JSON EXPECTED_DIR *)

let exe = Sys.argv.(1)
let benchmark_json = Sys.argv.(2)
let expected_dir = Sys.argv.(3)

(* --- A minimal JSON reader (objects, arrays, strings, numbers,
   literals), enough for BENCHMARK.json and the result line. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Lit of string

let parse s =
  let n = String.length s and i = ref 0 in
  let ws () =
    while !i < n && String.contains " \t\r\n" s.[!i] do
      incr i
    done
  in
  let eat c =
    ws ();
    if !i >= n || s.[!i] <> c then failwith (Printf.sprintf "json: expected %c at %d" c !i);
    incr i
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    while s.[!i] <> '"' do
      if s.[!i] = '\\' then incr i;
      Buffer.add_char b s.[!i];
      incr i
    done;
    incr i;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match s.[!i] with
    | '{' ->
        incr i;
        Obj (seq '}' (fun () ->
                 let k = str () in
                 eat ':';
                 (k, value ())))
    | '[' ->
        incr i;
        Arr (seq ']' value)
    | '"' -> Str (str ())
    | _ ->
        let j = !i in
        while !i < n && not (String.contains ",]} \t\r\n" s.[!i]) do
          incr i
        done;
        let tok = String.sub s j (!i - j) in
        (match float_of_string_opt tok with Some f -> Num f | None -> Lit tok)
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if s.[!i] = close then (incr i; [])
    else
      let x = item () in
      ws ();
      if s.[!i] = ',' then (incr i; x :: seq close item) else (eat close; [ x ])
  in
  value ()

let field k = function
  | Obj kv -> (try List.assoc k kv with Not_found -> failwith ("json: no field " ^ k))
  | _ -> failwith ("json: not an object looking up " ^ k)

let names j =
  match j with
  | Arr xs -> List.map (fun x -> match field "name" x with Str s -> s | _ -> "?") xs
  | _ -> failwith "json: expected an array"

let spec = parse (In_channel.with_open_text benchmark_json In_channel.input_all)

(* --- Running the benchmark *)

let run args =
  let out = Filename.temp_file ~temp_dir:"." "perf" ".out"
  and err = Filename.temp_file ~temp_dir:"." "perf" ".err" in
  let code = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err) in
  let read f = In_channel.with_open_text f In_channel.input_all in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, String.split_on_char '\n' (String.trim o), e)

let small w ~trace =
  run [ "--workload"; w; "--seed"; "1"; "--scale"; "0.01"; "--seconds"; "0"; "--trace"; trace ]

let result lines = parse (List.nth lines (List.length lines - 1))

let check_result ~expected_names (code, lines, err) =
  Alcotest.(check int) ("exit code; stderr: " ^ err) 0 code;
  let r = result lines in
  Alcotest.(check bool) "correct" true (field "correct" r = Lit "true");
  Alcotest.(check bool) "no failed operations" true (field "failed" r = Num 0.0);
  let got = match field "metrics" r with Obj kv -> List.map fst kv | _ -> [] in
  Alcotest.(check (list string)) "metric names" expected_names got;
  List.iter
    (fun n -> Alcotest.(check bool) ("printed " ^ n) true (List.exists (String.starts_with ~prefix:("metric " ^ n ^ " ")) lines))
    expected_names

let digests lines = List.filter (String.starts_with ~prefix:"digest ") lines
let leg_of line = List.nth (String.split_on_char ' ' line) 1

(* The committed digest files of [w]: [w.txt], or [w-seed<N>.txt]. *)
let expected_files w =
  Sys.readdir expected_dir |> Array.to_list
  |> List.filter (fun f ->
         f = w ^ ".txt"
         || (String.starts_with ~prefix:(w ^ "-seed") f && Filename.check_suffix f ".txt"))
  |> List.sort compare

(* The legs do not depend on the scale or the seed, so a small run must
   produce exactly the legs each committed file names. *)
let committed_legs w lines =
  let ran = List.sort compare (List.map leg_of (digests lines)) in
  let files = expected_files w in
  Alcotest.(check bool) ("committed digests for " ^ w) true (files <> []);
  List.iter
    (fun f ->
      let legs =
        In_channel.with_open_text (Filename.concat expected_dir f) In_channel.input_lines
        |> List.filter (( <> ) "")
        |> List.map (fun l -> List.hd (String.split_on_char ' ' l))
        |> List.sort compare
      in
      Alcotest.(check (list string)) (f ^ ": legs") legs ran)
    files

let untraced w () =
  let a = small w ~trace:"0" in
  check_result ~expected_names:(names (field "end_to_end" spec)) a;
  let b = small w ~trace:"0" in
  let _, la, _ = a and _, lb, _ = b in
  Alcotest.(check bool) "digests printed" true (digests la <> []);
  Alcotest.(check (list string)) "same seed, same digests" (digests la) (digests lb);
  committed_legs w la

let traced w () =
  let ((_, lines, _) as r) = small w ~trace:"1" in
  check_result ~expected_names:(names (field "per_layer" spec)) r;
  match List.find_opt (String.starts_with ~prefix:"spans ") lines with
  | Some l ->
      let path = String.sub l 6 (String.length l - 6) in
      Alcotest.(check bool) "spans file written" true (Sys.file_exists path)
  | None -> Alcotest.fail "no spans file reported"

let bad_input () =
  List.iter
    (fun (args, needle) ->
      let code, lines, err = run args in
      Alcotest.(check int) (String.concat " " args ^ ": exit code") 2 code;
      Alcotest.(check bool) (String.concat " " args ^ ": no result") true
        (List.for_all (fun l -> not (String.starts_with ~prefix:"{" l)) lines);
      Alcotest.(check bool)
        (Printf.sprintf "%s: error names %S (got %S)" (String.concat " " args) needle err)
        true
        (let n = String.length needle in
         let rec has i = i + n <= String.length err && (String.sub err i n = needle || has (i + 1)) in
         has 0))
    [
      ([ "--workload"; "bogus"; "--seed"; "1" ], "unknown workload");
      ([ "--workload"; "compute"; "--seed"; "x" ], "--seed");
      ([ "--workload"; "compute"; "--seed"; "1"; "--frobnicate" ], "unknown argument");
      ([ "--workload"; "compute"; "--seed"; "1"; "--trace"; "2" ], "--trace");
    ]

let () =
  let workloads = names (field "workloads" spec) in
  Alcotest.run ~argv:[| "smoke" |] "perf"
    [
      ("untraced", List.map (fun w -> Alcotest.test_case w `Quick (untraced w)) workloads);
      ("traced", List.map (fun w -> Alcotest.test_case w `Quick (traced w)) workloads);
      ("input", [ Alcotest.test_case "bad input exits 2 with a named error" `Quick bad_input ]);
    ]
