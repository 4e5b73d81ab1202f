(* Modular arithmetic: gcd, modinv, modpow (Montgomery and naive). *)
open Tep_bignum

let nat = Alcotest.testable (Fmt.of_to_string Nat.to_decimal) Nat.equal

let n = Nat.of_int

let gen_nat bits =
  QCheck2.Gen.(
    let* s = string_size ~gen:char (return ((bits + 7) / 8)) in
    return (Nat.of_bytes_be s))

let test_gcd () =
  Alcotest.check nat "gcd(12,18)" (n 6) (Zmod.gcd (n 12) (n 18));
  Alcotest.check nat "gcd(17,31)" (n 1) (Zmod.gcd (n 17) (n 31));
  Alcotest.check nat "gcd(0,5)" (n 5) (Zmod.gcd (n 0) (n 5));
  Alcotest.check nat "gcd(5,0)" (n 5) (Zmod.gcd (n 5) (n 0))

let test_modinv_known () =
  (match Zmod.modinv (n 3) (n 7) with
  | Some x -> Alcotest.check nat "3^-1 mod 7" (n 5) x
  | None -> Alcotest.fail "expected inverse");
  (match Zmod.modinv (n 6) (n 9) with
  | Some _ -> Alcotest.fail "6 has no inverse mod 9"
  | None -> ());
  Alcotest.check_raises "modulus 1" (Invalid_argument "Zmod.modinv: modulus <= 1")
    (fun () -> ignore (Zmod.modinv (n 3) (n 1)))

let test_modpow_known () =
  Alcotest.check nat "2^10 mod 1000" (n 24) (Zmod.modpow (n 2) (n 10) (n 1000));
  Alcotest.check nat "5^0 mod 7" (n 1) (Zmod.modpow (n 5) (n 0) (n 7));
  Alcotest.check nat "0^5 mod 7" (n 0) (Zmod.modpow (n 0) (n 5) (n 7));
  (* Fermat: a^(p-1) = 1 mod p *)
  let p = Nat.of_decimal "170141183460469231731687303715884105727" in
  Alcotest.check nat "fermat" Nat.one
    (Zmod.modpow (n 123456789) (Nat.sub p Nat.one) p);
  (* even modulus falls back to the naive path *)
  Alcotest.check nat "even modulus" (n 6) (Zmod.modpow (n 6) (n 3) (n 10));
  Alcotest.check_raises "zero modulus"
    (Invalid_argument "Zmod.modpow: zero modulus") (fun () ->
      ignore (Zmod.modpow (n 2) (n 2) Nat.zero))

let test_montgomery_vs_naive () =
  let seed = ref 99 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed
  in
  for _ = 1 to 50 do
    let b = n (next ()) and e = n (next () land 0xFFFF) in
    let m = n ((next () lor 1) + 2) in
    (* odd, > 2 *)
    let mont = Zmod.Montgomery.create m in
    Alcotest.check nat "mont = mod_mul chain"
      (Zmod.modpow b e m)
      (Zmod.Montgomery.pow mont b e)
  done

(* The windowed ladder must agree with the division-based oracle on
   the edge cases the dispatcher and window extraction handle
   specially: zero base, zero exponent, modulus 1, even moduli. *)
let test_modpow_edges () =
  let check name want b e m =
    Alcotest.check nat name want (Zmod.modpow b e m);
    Alcotest.check nat (name ^ " (naive)") want (Zmod.modpow_naive b e m)
  in
  check "m=1" Nat.zero (n 7) (n 3) Nat.one;
  check "e=0, m=1" Nat.zero (n 7) Nat.zero Nat.one;
  check "b=0" Nat.zero Nat.zero (n 9) (n 11);
  check "b=0, e=0" Nat.one Nat.zero Nat.zero (n 11);
  check "even m" (n 6) (n 6) (n 3) (n 10);
  check "b multiple of m" Nat.zero (n 22) (n 5) (n 11)

(* Exercise every window size (k = 1, 3, 4, 5): exponent widths on
   both sides of each window_bits threshold, against the binary
   ladder. *)
let test_window_sizes () =
  let seed = ref 1234 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed
  in
  let rand_nat bits =
    let limbs = (bits + 29) / 30 in
    let x = ref Nat.zero in
    for _ = 1 to limbs do
      x := Nat.add (Nat.shift_left !x 30) (Nat.of_int (next ()))
    done;
    Nat.rem !x (Nat.shift_left Nat.one bits)
  in
  let m = Nat.add (Nat.shift_left Nat.one 511) (rand_nat 511) in
  let m = if Nat.is_even m then Nat.add m Nat.one else m in
  let ctx = Zmod.Montgomery.create m in
  let b = rand_nat 512 in
  List.iter
    (fun ebits ->
      let e = Nat.add (Nat.shift_left Nat.one (ebits - 1)) (rand_nat (ebits - 1)) in
      Alcotest.check nat
        (Printf.sprintf "windowed = binary at %d-bit exponent" ebits)
        (Zmod.Montgomery.pow_binary ctx b e)
        (Zmod.Montgomery.pow ctx b e))
    [ 2; 23; 24; 79; 80; 239; 240; 768; 769; 2048 ]

(* Kernel edge cases, each checked three ways against the
   division-based oracle: the sliding-window ladder, the binary ladder
   and the [modpow] dispatcher. *)
let check_kernel name m b e =
  let want = Zmod.modpow_naive b e m in
  let ctx = Zmod.Montgomery.create m in
  Alcotest.check nat (name ^ ": pow") want (Zmod.Montgomery.pow ctx b e);
  Alcotest.check nat (name ^ ": pow_binary") want
    (Zmod.Montgomery.pow_binary ctx b e);
  Alcotest.check nat (name ^ ": modpow") want (Zmod.modpow b e m)

let pow2 k = Nat.shift_left Nat.one k
let minus_one x = Nat.sub x Nat.one

(* Moduli that fit one 32-bit word, including the largest one. *)
let test_single_word_moduli () =
  List.iter
    (fun m ->
      let name = "m=" ^ Nat.to_decimal m in
      List.iter
        (fun b ->
          List.iter
            (fun e ->
              check_kernel
                (Printf.sprintf "%s b=%s e=%s" name (Nat.to_decimal b)
                   (Nat.to_decimal e))
                m b e)
            [ Nat.zero; Nat.one; n 2; n 65537; pow2 32; minus_one (pow2 64) ])
        [ Nat.zero; Nat.one; n 2; minus_one m; m; Nat.add m (n 5); pow2 100 ])
    [ n 3; minus_one (pow2 31); minus_one (pow2 32) ]

(* Moduli whose top word is all ones leave the least headroom above
   the running sum: the final conditional subtraction and the carry
   into the extra word are exercised hardest here. *)
let test_all_ones_top_word () =
  List.iter
    (fun (name, m) ->
      let bits = Nat.num_bits m in
      List.iter
        (fun (bname, b) ->
          List.iter
            (fun (ename, e) ->
              check_kernel (Printf.sprintf "%s %s %s" name bname ename) m b e)
            [
              ("e=1", Nat.one);
              ("e=2", n 2);
              ("e=65537", n 65537);
              ("e=m-2", Nat.sub m (n 2));
            ])
        [
          ("b=m-1", minus_one m);
          ("b=m-2", Nat.sub m (n 2));
          ("b=2^(bits-1)", pow2 (bits - 1));
          ("b=m", m);
          ("b=2^(bits+40)+3", Nat.add (pow2 (bits + 40)) (n 3));
        ])
    [
      ("2^64-59", Nat.sub (pow2 64) (n 59));
      ("2^512-569", Nat.sub (pow2 512) (n 569));
      ("2^1024-1", minus_one (pow2 1024));
    ]

(* Exponent shapes for the sliding window: a single set bit, set bits
   at both ends of a long zero run, and a window-sized all-ones
   prefix. *)
let test_exponent_shapes () =
  let m = Nat.sub (pow2 512) (n 569) in
  let b = Nat.of_hex "123456789abcdef0fedcba9876543210deadbeef" in
  List.iter
    (fun (name, e) -> check_kernel name m b e)
    ([
       ("e=1", Nat.one);
       ("e=2^511+1", Nat.add (pow2 511) Nat.one);
       ("e=2^511+2^255+1", Nat.add (pow2 511) (Nat.add (pow2 255) Nat.one));
       ("e=2^512-1", minus_one (pow2 512));
       ("e=2^600-2^590", Nat.sub (pow2 600) (pow2 590));
     ]
    @ List.map
        (fun k -> (Printf.sprintf "e=2^%d" k, pow2 k))
        [ 1; 2; 4; 5; 6; 31; 32; 33; 64; 240; 511 ])

(* Full-width exponents at RSA-CRT sizes against the naive oracle
   (pow and pow_binary share one multiply, so only this oracle is
   independent of it).  Moduli are odd with the top bit set; bases run
   up to 64 bits wider than the modulus. *)
let prop_rsa_sizes_vs_naive bits count =
  QCheck2.Test.make
    ~name:(Printf.sprintf "Montgomery.pow = naive oracle (%d-bit)" bits)
    ~count
    QCheck2.Gen.(triple (gen_nat (bits + 64)) (gen_nat bits) (gen_nat bits))
    (fun (b, e, m) ->
      let m = Nat.add (pow2 (bits - 1)) (Nat.rem m (pow2 (bits - 1))) in
      let m = if Nat.is_even m then Nat.add m Nat.one else m in
      let ctx = Zmod.Montgomery.create m in
      Nat.equal (Zmod.Montgomery.pow ctx b e) (Zmod.modpow_naive b e m))

let prop_modpow_vs_naive =
  QCheck2.Test.make ~name:"windowed modpow = naive oracle (any modulus)"
    ~count:150
    QCheck2.Gen.(triple (gen_nat 96) (gen_nat 64) (gen_nat 96))
    (fun (b, e, m) ->
      QCheck2.assume (not (Nat.is_zero m));
      Nat.equal (Zmod.modpow b e m) (Zmod.modpow_naive b e m))

let prop_window_vs_binary =
  QCheck2.Test.make ~name:"Montgomery.pow = pow_binary (odd moduli)"
    ~count:60
    QCheck2.Gen.(triple (gen_nat 256) (gen_nat 200) (gen_nat 256))
    (fun (b, e, m) ->
      let m = if Nat.is_even m then Nat.add m Nat.one else m in
      QCheck2.assume (Nat.compare m Nat.two > 0);
      let ctx = Zmod.Montgomery.create m in
      Nat.equal
        (Zmod.Montgomery.pow ctx b e)
        (Zmod.Montgomery.pow_binary ctx b e))

let prop_modinv =
  QCheck2.Test.make ~name:"modinv correct when gcd=1" ~count:200
    QCheck2.Gen.(pair (gen_nat 128) (gen_nat 160))
    (fun (a, m) ->
      QCheck2.assume (Nat.compare m Nat.two > 0);
      match Zmod.modinv a m with
      | Some x -> Nat.is_one (Nat.rem (Nat.mul (Nat.rem a m) x) m)
      | None -> not (Nat.is_one (Zmod.gcd a m)))

let prop_modpow_mul =
  QCheck2.Test.make ~name:"b^(e1+e2) = b^e1 * b^e2 (mod m)" ~count:100
    QCheck2.Gen.(quad (gen_nat 64) (gen_nat 16) (gen_nat 16) (gen_nat 80))
    (fun (b, e1, e2, m) ->
      QCheck2.assume (Nat.compare m Nat.two > 0);
      let lhs = Zmod.modpow b (Nat.add e1 e2) m in
      let rhs = Zmod.mod_mul (Zmod.modpow b e1 m) (Zmod.modpow b e2 m) m in
      Nat.equal lhs rhs)

let prop_gcd_divides =
  QCheck2.Test.make ~name:"gcd divides both" ~count:300
    QCheck2.Gen.(pair (gen_nat 100) (gen_nat 100))
    (fun (a, b) ->
      let g = Zmod.gcd a b in
      if Nat.is_zero g then Nat.is_zero a && Nat.is_zero b
      else Nat.is_zero (Nat.rem a g) && Nat.is_zero (Nat.rem b g))

let () =
  Alcotest.run "zmod"
    [
      ( "unit",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "modinv" `Quick test_modinv_known;
          Alcotest.test_case "modpow" `Quick test_modpow_known;
          Alcotest.test_case "montgomery vs naive" `Quick
            test_montgomery_vs_naive;
          Alcotest.test_case "modpow edge cases" `Quick test_modpow_edges;
          Alcotest.test_case "window sizes" `Quick test_window_sizes;
          Alcotest.test_case "single-word moduli" `Quick
            test_single_word_moduli;
          Alcotest.test_case "all-ones top word" `Quick test_all_ones_top_word;
          Alcotest.test_case "exponent shapes" `Quick test_exponent_shapes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_modpow_vs_naive;
            prop_window_vs_binary;
            prop_rsa_sizes_vs_naive 512 40;
            prop_rsa_sizes_vs_naive 1024 12;
            prop_modinv;
            prop_modpow_mul;
            prop_gcd_divides;
          ] );
    ]
