let limb_bits = Nat.limb_bits
let limb_mask = (1 lsl limb_bits) - 1

let rec gcd a b = if Nat.is_zero b then a else gcd b (Nat.rem a b)

(* Extended Euclid, tracking only the coefficient of [a] and carrying
   its sign separately (Nat has no negatives). *)
let modinv a m =
  if Nat.compare m Nat.one <= 0 then invalid_arg "Zmod.modinv: modulus <= 1";
  let a = Nat.rem a m in
  (* Invariants: r_i = s_i * a (mod m), with sign_i the sign of s_i. *)
  let rec go r0 s0 sign0 r1 s1 sign1 =
    if Nat.is_zero r1 then
      if Nat.is_one r0 then
        Some (if sign0 >= 0 then Nat.rem s0 m else Nat.sub m (Nat.rem s0 m))
      else None
    else begin
      let q, r2 = Nat.divmod r0 r1 in
      (* s2 = s0 - q*s1, with signs. *)
      let qs1 = Nat.mul q s1 in
      let s2, sign2 =
        if sign0 = sign1 || Nat.is_zero qs1 then
          if Nat.compare s0 qs1 >= 0 then (Nat.sub s0 qs1, sign0)
          else (Nat.sub qs1 s0, -sign0)
        else (Nat.add s0 qs1, sign0)
      in
      go r1 s1 sign1 r2 s2 sign2
    end
  in
  if Nat.is_zero a then None
  else go m Nat.zero 1 a Nat.one 1

let mod_mul a b m = Nat.rem (Nat.mul a b) m

module Montgomery = struct
  (* Numbers mod m are [n] little-endian 32-bit words, each held in a
     64-bit slot of a [Bytes] and read and written unboxed as [int64]:
     the product of two words needs all 64 bits, which a tagged 63-bit
     [int] does not have.  R = 2^(32n). *)
  type ctx = {
    m : Nat.t;
    n : int; (* word count of m *)
    mw : Bytes.t; (* m as words *)
    m' : int64; (* -m^{-1} mod 2^32 *)
    r2 : Bytes.t; (* R^2 mod m, as words *)
  }

  external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  let word_bits = 32
  let word_mask = 0xFFFF_FFFF
  let mask = 0xFFFF_FFFFL
  let hi x = Int64.shift_right_logical x word_bits
  let lo x = Int64.logand x mask

  (* Word [i] of a buffer (byte offset 8i). *)
  let word w i = Int64.to_int (get w (i lsl 3))

  let modulus ctx = ctx.m

  (* [x < 2^(32n)] as [n] words: word i is bits [32i, 32i+32) of x,
     which straddle at most two of Nat's 31-bit limbs. *)
  let words_of_nat n x =
    let w = Bytes.create (n lsl 3) in
    for i = 0 to n - 1 do
      let l = i * word_bits / limb_bits and o = i * word_bits mod limb_bits in
      let v =
        (Nat.get_limb x l lsr o)
        lor (Nat.get_limb x (l + 1) lsl (limb_bits - o))
      in
      set w (i lsl 3) (Int64.of_int (v land word_mask))
    done;
    w

  let nat_of_words n w =
    let nlimbs = ((n * word_bits) + limb_bits - 1) / limb_bits in
    Nat.of_limbs
      (Array.init nlimbs (fun k ->
           let i = k * limb_bits / word_bits
           and o = k * limb_bits mod word_bits in
           let v = word w i lsr o in
           let v =
             if o > word_bits - limb_bits && i + 1 < n then
               v lor (word w (i + 1) lsl (word_bits - o))
             else v
           in
           v land limb_mask))

  let create m =
    if Nat.is_even m || Nat.compare m Nat.one <= 0 then
      invalid_arg "Montgomery.create: modulus must be odd and > 1";
    let n = (Nat.num_bits m + word_bits - 1) / word_bits in
    let mw = words_of_nat n m in
    (* m0^{-1} mod 2^32 by Newton iteration: y <- y(2 - m0 y) doubles
       the correct low bits; the seed y = m0 is right to 3 bits
       (odd squares are 1 mod 8), so 4 steps reach 48 >= 32.  Native
       ints wrap mod 2^63, which 2^32 divides. *)
    let m0 = word mw 0 in
    let y = ref m0 in
    for _ = 1 to 4 do
      y := !y * (2 - (m0 * !y)) land word_mask
    done;
    let r2 = Nat.rem (Nat.shift_left Nat.one (2 * n * word_bits)) m in
    {
      m;
      n;
      mw;
      m' = Int64.of_int (-(!y) land word_mask);
      r2 = words_of_nat n r2;
    }

  (* Words 0..i of [x] >= those of [y], as numbers. *)
  let rec geq x y i =
    i < 0
    || (let xi = get x (i lsl 3) and yi = get y (i lsl 3) in
        if xi <> yi then xi > yi else geq x y (i - 1))

  (* The one Montgomery multiply: dst <- a*b*R^{-1} mod m, for a, b < m
     in words.  [t] is scratch of n+1 words (contents ignored).  [dst]
     may alias [a] or [b]: both are only read until the final store.

     Fused CIOS.  Iteration i adds a_i*b and u*m to t in the same pass
     over j, u chosen so the low word cancels, and stores word j at
     j-1, so the division by 2^32 costs nothing.  The two products
     carry separately, [c1] for a_i*b and [c2] for u*m.  Every step
     stays in an unsigned 64-bit word:

       t_j + a_i*b_j + c1           <= (2^32-1) + (2^32-1)^2 + (2^32-1)
       lo(that) + u*m_j + c2        <= (2^32-1) + (2^32-1)^2 + (2^32-1)

     and (2^32-1)^2 + 2*(2^32-1) = 2^64-1 exactly, so each carry is
     again < 2^32.  t stays below 2m < 2^(32n+1), so its extra word
     t_n is 0 or 1 between iterations, and the result before the
     final subtraction is < 2m.

     Every unsafe access is at a word index below n+1, and every
     buffer passed in has n words (t: n+1). *)
  let mul ctx t dst a b =
    let n = ctx.n and mw = ctx.mw and m' = ctx.m' in
    let top = n lsl 3 in
    Bytes.fill t 0 (top + 8) '\000';
    for i = 0 to n - 1 do
      let ai = get a (i lsl 3) in
      let p = Int64.add (get t 0) (Int64.mul ai (get b 0)) in
      let u = lo (Int64.mul (lo p) m') in
      let q = Int64.add (lo p) (Int64.mul u (get mw 0)) in
      let c1 = ref (hi p) and c2 = ref (hi q) in
      for j = 1 to n - 1 do
        let o = j lsl 3 in
        let p = Int64.add (Int64.add (get t o) (Int64.mul ai (get b o))) !c1 in
        let q = Int64.add (Int64.add (lo p) (Int64.mul u (get mw o))) !c2 in
        set t (o - 8) (lo q);
        c1 := hi p;
        c2 := hi q
      done;
      let s = Int64.add (Int64.add (get t top) !c1) !c2 in
      set t (top - 8) (lo s);
      set t top (hi s)
    done;
    (* t < 2m: subtract m once if t >= m. *)
    if get t top <> 0L || geq t mw (n - 1) then begin
      let borrow = ref 0L in
      for i = 0 to n - 1 do
        let o = i lsl 3 in
        let d = Int64.sub (Int64.sub (get t o) (get mw o)) !borrow in
        set dst o (lo d);
        borrow := Int64.shift_right_logical d 63
      done
    end
    else Bytes.blit t 0 dst 0 top

  (* Entry into Montgomery form (x*R mod m, fresh words) and exit
     (a multiply by 1), shared by both ladders. *)
  let enter ctx t x =
    let w = words_of_nat ctx.n (Nat.rem x ctx.m) in
    mul ctx t w w ctx.r2;
    w

  let leave ctx t acc =
    let one = Bytes.make (ctx.n lsl 3) '\000' in
    set one 0 1L;
    mul ctx t acc acc one;
    nat_of_words ctx.n acc

  let scratch ctx = Bytes.create ((ctx.n + 1) lsl 3)

  (* Reference left-to-right binary ladder, kept as the oracle the
     sliding-window ladder is property-tested (and benchmarked)
     against. *)
  let pow_binary ctx b e =
    if Nat.is_zero e then Nat.rem Nat.one ctx.m
    else begin
      let t = scratch ctx in
      let bm = enter ctx t b and acc = enter ctx t Nat.one in
      for i = Nat.num_bits e - 1 downto 0 do
        mul ctx t acc acc acc;
        if Nat.testbit e i then mul ctx t acc acc bm
      done;
      leave ctx t acc
    end

  (* Window width for an exponent of [ebits] bits: the 2^(k-1) table
     multiplies have to pay for themselves against the roughly
     ebits/(k+1) window multiplies the ladder then does. *)
  let window_bits ebits =
    if ebits <= 23 then 1
    else if ebits <= 79 then 3
    else if ebits <= 239 then 4
    else 5

  (* Left-to-right sliding window over odd powers.  The table holds
     b^1, b^3, ..., b^(2^k - 1) in Montgomery form.  A zero bit costs a
     squaring; a one bit opens a window of at most k bits that ends in
     a one, costing one squaring per bit and one table multiply.  The
     top bit is set, so the first window starts there and its table
     entry is the accumulator's starting value. *)
  let pow ctx b e =
    if Nat.is_zero e then Nat.rem Nat.one ctx.m
    else begin
      let n = ctx.n in
      let k = window_bits (Nat.num_bits e) in
      let t = scratch ctx in
      let table = Array.make (1 lsl (k - 1)) (enter ctx t b) in
      if k > 1 then begin
        let b2 = Bytes.create (n lsl 3) in
        mul ctx t b2 table.(0) table.(0);
        for i = 1 to Array.length table - 1 do
          let x = Bytes.create (n lsl 3) in
          mul ctx t x table.(i - 1) b2;
          table.(i) <- x
        done
      end;
      (* the window opened at set bit i: its low end l (a set bit) and
         the table entry for bits i..l *)
      let window i =
        let l = ref (max 0 (i - k + 1)) in
        while not (Nat.testbit e !l) do
          incr l
        done;
        let w = ref 0 in
        for bit = i downto !l do
          w := (!w lsl 1) lor Bool.to_int (Nat.testbit e bit)
        done;
        (!l, table.(!w lsr 1))
      in
      let l, g = window (Nat.num_bits e - 1) in
      let acc = Bytes.copy g in
      let i = ref (l - 1) in
      while !i >= 0 do
        if not (Nat.testbit e !i) then begin
          mul ctx t acc acc acc;
          decr i
        end
        else begin
          let l, g = window !i in
          for _ = l to !i do
            mul ctx t acc acc acc
          done;
          mul ctx t acc acc g;
          i := l - 1
        end
      done;
      leave ctx t acc
    end
end

(* Division-based square-and-multiply, for even moduli. *)
let modpow_naive b e m =
  let b = ref (Nat.rem b m) in
  let acc = ref (Nat.rem Nat.one m) in
  for i = 0 to Nat.num_bits e - 1 do
    if Nat.testbit e i then acc := mod_mul !acc !b m;
    b := mod_mul !b !b m
  done;
  !acc

let modpow b e m =
  if Nat.is_zero m then invalid_arg "Zmod.modpow: zero modulus";
  if Nat.is_one m then Nat.zero
  else if Nat.is_even m then modpow_naive b e m
  else Montgomery.pow (Montgomery.create m) b e
