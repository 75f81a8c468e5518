(** The [compute] workload's program generator and its host-side
    reference evaluator.

    Every seed yields a program of the same shape — [nfun] functions of
    [nblk] load/mix/store blocks each, called once per outer iteration
    in a seed-chosen order, plus one [getpid] per outer iteration — so
    the simulated instruction count, code size and data footprint do
    not depend on the seed; only the constants, shift amounts and call
    order do.  The code spans more than 16 pages and the blocks address
    a 256 KiB data array, so neither [Mem]'s nor [Icache]'s one-entry
    page memo can hold the working set.  Control flow never depends on
    data, which keeps the cost of a run independent of the seed. *)

type blk = {
  load_shift : int;
  mul : int;  (** odd, below 2^30 *)
  add : int;
  store_shift : int;
  mask : int;
}

type t = {
  iters : int;  (** outer iterations *)
  acc0 : int;
  order : int array;  (** call order of the functions in the outer loop *)
  blks : blk array array;  (** [blks.(f)] is function [f]'s body *)
}

let nfun = 32
let nblk = 14
let data_words = 32768 (* 256 KiB *)

(** Fisher-Yates, in place. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let make ~seed ~iters =
  let st = Random.State.make [| 0x636f6d70; seed |] in
  let bits n = Random.State.bits st land ((1 lsl n) - 1) in
  let blk () =
    {
      load_shift = 1 + Random.State.int st 40;
      mul = (bits 29 lsl 1) lor 1;
      add = bits 30;
      store_shift = 1 + Random.State.int st 40;
      mask = bits 30;
    }
  in
  let order = Array.init nfun Fun.id in
  shuffle st order;
  {
    iters;
    acc0 = bits 30;
    order;
    blks = Array.init nfun (fun _ -> Array.init nblk (fun _ -> blk ()));
  }

let idx shift = Printf.sprintf "data + ((x >> %d) & %d) * 8" shift (data_words - 1)

let source p =
  let b = Buffer.create 65536 in
  Printf.bprintf b "char data[%d];\n" (data_words * 8);
  Array.iteri
    (fun f blks ->
      Printf.bprintf b "long f%d(x) {\n  long a = 0;\n" f;
      Array.iter
        (fun k ->
          Printf.bprintf b "  a = peek64(%s);\n" (idx k.load_shift);
          Printf.bprintf b "  x = (x ^ a) * %d + %d;\n" k.mul k.add;
          Printf.bprintf b "  poke64(%s, x ^ %d);\n" (idx k.store_shift) k.mask)
        blks;
      Buffer.add_string b "  return x;\n}\n")
    p.blks;
  Printf.bprintf b
    "long main() {\n  char out[8];\n  long acc = %d;\n  long i = 0;\n  while (i < %d) {\n"
    p.acc0 p.iters;
  Array.iteri
    (fun j f ->
      if j = 0 then Printf.bprintf b "    acc = f%d(acc + i);\n" f
      else Printf.bprintf b "    acc = f%d(acc);\n" f)
    p.order;
  Buffer.add_string b
    "    syscall(39);\n\
    \    i = i + 1;\n\
    \  }\n\
    \  poke64(out, acc);\n\
    \  syscall(1, 1, out, 8);\n\
    \  return 0;\n\
     }\n";
  Buffer.contents b

(** The checksum the program writes, computed on the host with the
    guest's 64-bit wrapping arithmetic and logical right shifts. *)
let checksum p =
  let data = Array.make data_words 0L in
  let slot x shift =
    Int64.to_int
      (Int64.logand (Int64.shift_right_logical x shift)
         (Int64.of_int (data_words - 1)))
  in
  let call f x =
    Array.fold_left
      (fun x k ->
        let a = data.(slot x k.load_shift) in
        let x =
          Int64.add (Int64.mul (Int64.logxor x a) (Int64.of_int k.mul))
            (Int64.of_int k.add)
        in
        data.(slot x k.store_shift) <- Int64.logxor x (Int64.of_int k.mask);
        x)
      x p.blks.(f)
  in
  let acc = ref (Int64.of_int p.acc0) in
  for i = 0 to p.iters - 1 do
    Array.iteri
      (fun j f ->
        acc := call f (if j = 0 then Int64.add !acc (Int64.of_int i) else !acc))
      p.order
  done;
  !acc
