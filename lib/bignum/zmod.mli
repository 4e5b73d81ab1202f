(** Modular arithmetic over {!Nat.t}.

    Provides the number-theoretic operations RSA needs: GCD, modular
    inverse, and modular exponentiation.  Exponentiation over odd
    moduli uses Montgomery multiplication (fused CIOS over 32-bit
    words); even moduli fall back to division-based reduction. *)

val gcd : Nat.t -> Nat.t -> Nat.t
(** Greatest common divisor; [gcd 0 b = b]. *)

val modinv : Nat.t -> Nat.t -> Nat.t option
(** [modinv a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1], and [None] otherwise.
    @raise Invalid_argument if [m <= 1]. *)

val modpow : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [modpow b e m] is [b^e mod m].  Odd moduli use the windowed
    Montgomery ladder ({!Montgomery.pow}); even moduli fall back to
    {!modpow_naive}.
    @raise Invalid_argument if [m] is zero. *)

val modpow_naive : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** Division-based right-to-left square-and-multiply.  Works for any
    modulus (including even); slow — kept as the property-test oracle
    for the Montgomery ladders and as the even-modulus fallback.
    [modpow_naive b e 0] loops on [Nat.rem _ 0]; callers guard [m]. *)

val mod_mul : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [mod_mul a b m = (a*b) mod m]. *)

(** Reusable Montgomery context for repeated exponentiation modulo the
    same odd modulus (used by RSA-CRT signing on hot paths). *)
module Montgomery : sig
  type ctx

  val create : Nat.t -> ctx
  (** @raise Invalid_argument if the modulus is even or [<= 1]. *)

  val modulus : ctx -> Nat.t

  val pow : ctx -> Nat.t -> Nat.t -> Nat.t
  (** [pow ctx b e = b^e mod (modulus ctx)] via a left-to-right
      sliding-window ladder over odd powers (window width k picked
      from [e]'s bit length, up to 5: [2^(k-1)] precomputed odd
      powers, then one squaring per exponent bit and one multiply per
      window, each window ending in a set bit). *)

  val pow_binary : ctx -> Nat.t -> Nat.t -> Nat.t
  (** Reference left-to-right binary square-and-multiply on the same
      Montgomery multiply.  Same results as {!pow}; kept as the ladder
      oracle and benchmark baseline ({!modpow_naive} is the oracle
      independent of the multiply). *)
end
