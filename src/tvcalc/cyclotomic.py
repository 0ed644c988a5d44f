"""Exact arithmetic in the cyclotomic field Q(zeta_{2r}).

Elements are represented in the power basis of Q[x]/Phi_{2r}(x), with
integer coefficient vectors over a common positive denominator, always in
lowest terms.  The root of unity zeta used by the invariants is x^q, so a
single field serves every exponent convention; complex conjugation is the
substitution x -> x^{2r-1}.  Equality of invariants is always decided on
these exact representations; floating point only ever appears in the
display helper ``numeric_eval``.

Quantum integers and their inverses are weighted sums of powers of zeta,
read off the table of reduced powers of x with no division.  A product
folds x^r = -1 before it reduces by Phi_{2r}, which divides x^r + 1; the
schoolbook loop folds while it accumulates, into r slots.  A product or
sum of operands with denominator 1 is integral, so already in lowest
terms, and skips the gcd pass.  At
degree ``KRONECKER_DEGREE`` and above, when both operands have at least
``KRONECKER_NONZERO`` nonzero coefficients, the product is one big-integer
multiply (Kronecker substitution): each coefficient vector is packed into
an int at a slot width w of bits(max|a|) + bits(max|b|) + bits(deg) + 1
bits rounded up to whole bytes, and the fold is a split of the product at
r w bits.  When the right operand is a bracket factorial or an inverse
one from the context's tables, the context keeps it packed, once per slot
width, so the product packs only its left operand; no other value is
kept packed.  The extended Euclidean algorithm in ``Cyc.invert`` runs
only for division or negative powers by field elements.
"""
from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add

import mpmath

__all__ = [
    "cyclotomic_polynomial",
    "FieldContext",
    "field_init",
    "Cyc",
    "quantum_integer",
    "bracket_factorial",
    "numeric_eval",
]


def _poly_divmod_exact(num: list, den: list) -> list:
    """Quotient of integer polynomials known to divide exactly."""
    num = num.copy()
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("division is not exact")
        q = c // den[-1]
        quot[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    if any(num):
        raise ArithmeticError("division is not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Computed by exact division of x^n - 1 by the cyclotomic polynomials of
    the proper divisors of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class FieldContext:
    """The field Q(zeta_{2r}) with zeta realised as x^q.

    Requires gcd(r, q) = 1 and 0 < q < 2r, so zeta^2 is a primitive r-th
    root of unity.  Instances cache the reduced powers of x, quantum
    integers, their inverses and bracket factorials they hand out, the
    slot constants of Kronecker products, and the factorials packed for
    them; get one via ``field_init``.
    """

    def __init__(self, r: int, q: int):
        if r < 3:
            raise ValueError(f"r must be at least 3, got {r}")
        if not (0 < q < 2 * r):
            raise ValueError(f"q must lie strictly between 0 and 2r, got {q}")
        if math.gcd(r, q) != 1:
            raise ValueError(f"r and q must be coprime, got ({r}, {q})")
        self.r = r
        self.q = q
        self.order = 2 * r
        self.modulus = cyclotomic_polynomial(2 * r)
        self.degree = len(self.modulus) - 1

        # x^j mod Phi for j = 0..2r-1, as integer coefficient tuples
        self._xpow = [None] * (2 * r)
        vec = [0] * self.degree
        vec[0] = 1
        self._xpow[0] = tuple(vec)
        current = vec
        for j in range(1, 2 * r):
            current = self._reduce_shift(current)
            self._xpow[j] = tuple(current)

        self.zero = Cyc(self, (0,) * self.degree, 1)
        self.one = Cyc(self, self._xpow[0], 1)
        self.zeta = Cyc(self, self._xpow[q % (2 * r)], 1)

        self._kron_slots: dict[int, tuple] = {}
        self._qint: dict[int, Cyc] = {}
        self._inv_qint: dict[int, Cyc] = {}
        self._fact: list = [self.one]
        self._inv_fact: list = [self.one]
        # id of each factorial-table entry -> (inverse, i); the entries
        # live as long as the context, so no other object shares an id
        self._factorial_ids: dict[int, tuple] = {id(self.one): (False, 0)}
        # slot bytes -> {(inverse, i): that entry packed at this width}
        self._packed: dict[int, dict] = {}

    def _reduce_shift(self, coeffs: list) -> list:
        """Multiply by x and reduce modulo the (monic) minimal polynomial."""
        out = [0] + coeffs[:-1]
        top = coeffs[-1]
        if top:
            for i in range(self.degree):
                out[i] -= top * self.modulus[i]
        return out

    def __repr__(self) -> str:
        return f"FieldContext(r={self.r}, q={self.q})"

    def _kronecker_slots(self, wb: int) -> tuple:
        """For slots of wb bytes: half a slot, that half in each of the
        degree slots of an operand and in each of the r slots of a
        product, and the struct that splits r slots apart."""
        got = self._kron_slots.get(wb)
        if got is None:
            slot_half = b"\0" * (wb - 1) + b"\x80"
            got = (1 << (8 * wb - 1),
                   int.from_bytes(slot_half * self.degree, "little"),
                   int.from_bytes(slot_half * self.r, "little"),
                   struct.Struct("<" + f"{wb}s" * self.r))
            self._kron_slots[wb] = got
        return got

    # -- constructors ------------------------------------------------------

    def from_rational(self, value) -> "Cyc":
        frac = Fraction(value)
        vec = [0] * self.degree
        vec[0] = frac.numerator
        return Cyc(self, tuple(vec), frac.denominator)

    def from_fractions(self, fracs) -> "Cyc":
        fracs = [Fraction(f) for f in fracs]
        if len(fracs) != self.degree:
            raise ValueError(
                f"expected {self.degree} coefficients, got {len(fracs)}")
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        return Cyc(self, tuple(f.numerator * (den // f.denominator)
                               for f in fracs), den)

    def zeta_power(self, k: int) -> "Cyc":
        """zeta^k for any integer k, via the cached power table."""
        return Cyc(self, self._xpow[(self.q * k) % self.order], 1)

    def _zeta_power_sum(self, start: int, step: int, weights) -> list:
        """sum_j weights[j] * zeta^(start + step*j) as integer
        coefficients, no division."""
        acc = [0] * self.degree
        for j, weight in enumerate(weights):
            if weight:
                row = self._xpow[(self.q * (start + step * j)) % self.order]
                for i, c in enumerate(row):
                    if c:
                        acc[i] += weight * c
        return acc

    # -- quantum integers and bracket factorials ---------------------------

    def quantum_integer(self, i: int) -> "Cyc":
        """[i] = (zeta^i - zeta^-i) / (zeta - zeta^-1) for i > 0; [0] is 1
        by convention so factorials stay nonzero below [r], and [r] = 0.

        Computed as the geometric sum zeta^(1-i) * sum_{j<i} zeta^(2j).
        """
        if i < 0:
            raise ValueError("quantum integers need i >= 0")
        if i == 0:
            return self.one
        got = self._qint.get(i)
        if got is None:
            got = Cyc(self, tuple(self._zeta_power_sum(1 - i, 2, [1] * i)),
                      1, _normalised=True)
            self._qint[i] = got
        return got

    def inverse_quantum_integer(self, k: int) -> "Cyc":
        """1 / [k], defined for 0 < k < r.

        With m = r / gcd(k, r), omega = zeta^2k is a primitive m-th root
        of unity, so sum_{j<m} j omega^j = m / (omega - 1) and
        1/[k] = (zeta^(k+1) - zeta^(k-1)) (1/m) sum_{j<m} j zeta^(2kj).
        """
        if not (0 < k < self.r):
            raise ValueError(f"1/[k] needs 0 < k < r, got k = {k}")
        got = self._inv_qint.get(k)
        if got is None:
            m = self.r // math.gcd(k, self.r)
            up = self._zeta_power_sum(k + 1, 2 * k, range(m))
            down = self._zeta_power_sum(k - 1, 2 * k, range(m))
            got = Cyc(self, tuple(u - d for u, d in zip(up, down)), m)
            self._inv_qint[k] = got
        return got

    def bracket_factorial(self, i: int) -> "Cyc":
        """[i]! = [i][i-1]...[1], with [0]! = 1; zero whenever i >= r."""
        if i < 0:
            raise ValueError("bracket factorials need i >= 0")
        while len(self._fact) <= i:
            k = len(self._fact)
            entry = self._fact[-1] * self.quantum_integer(k)
            self._factorial_ids[id(entry)] = (False, k)
            self._fact.append(entry)
        return self._fact[i]

    def inverse_bracket_factorial(self, i: int) -> "Cyc":
        """1 / [i]!, defined for 0 <= i < r."""
        if not (0 <= i < self.r):
            raise ValueError(f"[{i}]! is zero or undefined, cannot invert")
        while len(self._inv_fact) <= i:
            k = len(self._inv_fact)
            entry = self._inv_fact[-1] * self.inverse_quantum_integer(k)
            self._factorial_ids[id(entry)] = (True, k)
            self._inv_fact.append(entry)
        return self._inv_fact[i]


@lru_cache(maxsize=None)
def field_init(r: int, q: int) -> FieldContext:
    return FieldContext(r, q)


# Products at this degree and above, of operands with at least this many
# nonzero coefficients each, go through one big-integer multiply
# (Kronecker substitution); otherwise the schoolbook loop, which skips
# zero coefficients, is faster.  The crossover was measured on products
# of bracket factorials and their inverses: at prime r the two are about
# even at degrees 10 and 12 and Kronecker is faster from 16; at even r,
# where half the coefficients are zero, the schoolbook loop wins below
# about 10 nonzero coefficients per operand (README, Library).
KRONECKER_DEGREE = 16
KRONECKER_NONZERO = 10


def _kronecker_folded(ctx: FieldContext, a: tuple, b: tuple, b_key=None):
    """The product of the nonzero coefficient vectors a and b modulo
    x^r + 1, as r integers.  ``b_key`` is b's (inverse, i) when b is a
    factorial-table entry: its packed form is then kept on the context.

    Each vector is packed into one int with coefficient i at bit w*i, so a
    single multiply gives the convolution.  A coefficient of the product
    modulo x^r + 1 sums at most deg products a_i b_j (i + j = k or k + r,
    at most one j per i as deg <= r), so it lies below
    2^(bits(max|a|) + bits(max|b|) + bits(deg)) = 2^(w - 1) for w one bit
    wider, rounded up to whole bytes: every slot holds a signed value
    exactly, before and after folding.
    """
    ma = max(max(a), -min(a))
    mb = max(max(b), -min(b))
    r = ctx.r
    bits = ma.bit_length() + mb.bit_length() + ctx.degree.bit_length()
    wb = (bits + 8) >> 3
    w = wb << 3
    half, pack_off, unpack_off, slots = ctx._kronecker_slots(wb)

    def pack(vec):
        return int.from_bytes(b"".join([(c + half).to_bytes(wb, "little")
                                        for c in vec]), "little") - pack_off

    if b_key is None:
        packed_b = pack(b)
    else:
        store = ctx._packed.setdefault(wb, {})
        packed_b = store.get(b_key)
        if packed_b is None:
            packed_b = store[b_key] = pack(b)
    prod = pack(a) * packed_b
    # x^r = -1: the low r slots, taken balanced, minus the slots above
    # them.  Their signed sum is below 2^(rw - 1) in absolute value, so
    # the balanced residue modulo 2^(rw) is exactly the low part.
    shift = r * w
    low = prod & ((1 << shift) - 1)
    if low >> (shift - 1):
        low -= 1 << shift
    data = (low - ((prod - low) >> shift) + unpack_off).to_bytes(
        r * wb, "little")
    return [c - half for c in map(int.from_bytes, slots.unpack(data),
                                  repeat("little", r))]


class Cyc:
    """An element of Q(zeta_{2r}): integer coefficients over a denominator.

    Normalised so the denominator is positive and coprime to the content
    of the coefficient vector; zero is all-zero coefficients over 1.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldContext, num, den: int = 1,
                 _normalised: bool = False):
        self.ctx = ctx
        if _normalised:
            self.num = num
            self.den = den
            return
        if den == 0:
            raise ZeroDivisionError("denominator is zero")
        if den < 0:
            den = -den
            num = tuple(-c for c in num)
        g = math.gcd(den, *num) if num else den
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        if not any(num):
            den = 1
        self.num = tuple(num)
        self.den = den

    # -- helpers -----------------------------------------------------------

    def _check(self, other: "Cyc") -> None:
        if self.ctx is not other.ctx:
            raise ValueError("elements belong to different field contexts")

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def coefficients(self):
        """Coefficients as Fractions in the power basis."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Cyc and isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        self._check(other)
        a, b = self, other
        if a.den == 1 and b.den == 1:
            # integral operands give an integral sum, already normalised
            return Cyc(self.ctx, tuple(map(add, a.num, b.num)), 1,
                       _normalised=True)
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return Cyc(self.ctx, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.ctx, tuple(-c for c in self.num), self.den,
                   _normalised=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Cyc:
            if isinstance(other, int):
                return Cyc(self.ctx, tuple(c * other for c in self.num),
                           self.den)
            if isinstance(other, Fraction):
                return Cyc(self.ctx,
                           tuple(c * other.numerator for c in self.num),
                           self.den * other.denominator)
        self._check(other)
        ctx = self.ctx
        deg = ctx.degree
        r = ctx.r
        a, b = self.num, other.num
        if (deg >= KRONECKER_DEGREE
                and deg - a.count(0) >= KRONECKER_NONZERO
                and deg - b.count(0) >= KRONECKER_NONZERO):
            conv = _kronecker_folded(ctx, a, b,
                                     ctx._factorial_ids.get(id(other)))
        else:
            # x^r = -1 because Phi_2r divides x^r + 1: fold while
            # accumulating, into r slots
            conv = [0] * r
            terms_b = [(j, y) for j, y in enumerate(b) if y]
            for i, x in enumerate(a):
                if x:
                    for j, y in terms_b:
                        k = i + j
                        if k < r:
                            conv[k] += x * y
                        else:
                            conv[k - r] -= x * y
        # reduce the rest by Phi_2r (nothing at r = 2^k, one step at
        # prime r)
        mod = ctx.modulus
        for k in range(r - 1, deg - 1, -1):
            c = conv[k]
            if c:
                base = k - deg
                for i in range(deg):
                    conv[base + i] -= c * mod[i]
        # an integral product is already normalised
        den = self.den * other.den
        return Cyc(ctx, tuple(conv[:deg]), den, _normalised=den == 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.invert()

    def __pow__(self, k: int):
        if k < 0:
            return self.invert() ** (-k)
        result = self.ctx.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def invert(self) -> "Cyc":
        """Multiplicative inverse by the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        mod = [Fraction(c) for c in self.ctx.modulus]
        a = [Fraction(c, self.den) for c in self.num]
        # extended gcd of a and the minimal polynomial over Q
        r0, r1 = mod, a + [Fraction(0)] * (len(mod) - len(a))
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def degree(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        while degree(r1) > 0:
            d0, d1 = degree(r0), degree(r1)
            if d0 < d1:
                r0, r1 = r1, r0
                s0, s1 = s1, s0
                continue
            factor = r0[d0] / r1[d1]
            shift = d0 - d1
            r0 = [c - factor * (r1[i - shift] if 0 <= i - shift else 0)
                  for i, c in enumerate(r0)]
            s1_shifted = [Fraction(0)] * shift + s1
            s0 = s0 + [Fraction(0)] * (len(s1_shifted) - len(s0))
            s0 = [c - factor * (s1_shifted[i] if i < len(s1_shifted) else 0)
                  for i, c in enumerate(s0)]
        if degree(r1) != 0:
            raise ZeroDivisionError("element is a zero divisor")
        unit = r1[0]
        inv = [c / unit for c in s1]
        inv = inv[:self.ctx.degree]
        inv += [Fraction(0)] * (self.ctx.degree - len(inv))
        return self.ctx.from_fractions(inv)

    def conjugate(self) -> "Cyc":
        """Complex conjugation: substitute x -> x^{2r-1}."""
        ctx = self.ctx
        acc = [0] * ctx.degree
        for k, c in enumerate(self.num):
            if c:
                power = ctx._xpow[(-k) % ctx.order]
                for i, p in enumerate(power):
                    acc[i] += c * p
        return Cyc(ctx, tuple(acc), self.den)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return (self.ctx is other.ctx and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((id(self.ctx), self.num, self.den))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.num):
            if c:
                frac = Fraction(c, self.den)
                terms.append(f"{frac}*x^{k}" if k else f"{frac}")
        return " + ".join(terms) if terms else "0"

    # -- serialisation -----------------------------------------------------

    def to_strings(self):
        """Power-basis coefficients as 'numerator/denominator' strings."""
        return [f"{f.numerator}/{f.denominator}" for f in self.coefficients()]

    @classmethod
    def from_strings(cls, ctx: FieldContext, strings) -> "Cyc":
        return ctx.from_fractions([Fraction(s) for s in strings])


def quantum_integer(ctx: FieldContext, i: int) -> Cyc:
    return ctx.quantum_integer(i)


def bracket_factorial(ctx: FieldContext, i: int) -> Cyc:
    return ctx.bracket_factorial(i)


def numeric_eval(a: Cyc, digits: int = 15):
    """Evaluate at the principal root exp(i pi / r) as an mpmath complex.

    Display helper only; equality of invariants is decided exactly.
    """
    if digits < 1:
        raise ValueError("digits must be at least 1")
    with mpmath.workdps(digits + 10):
        root = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi / a.ctx.r)
        total = mpmath.mpc(0)
        power = mpmath.mpc(1)
        for c in a.num:
            if c:
                total += c * power
            power *= root
        return total / a.den
