"""Exact arithmetic in the cyclotomic field Q(zeta_{2r}).

Elements are represented in the power basis of Q[x]/Phi_{2r}(x), with
integer coefficient vectors over a common positive denominator, always in
lowest terms.  The root of unity zeta used by the invariants is x^q, so a
single field serves every exponent convention; complex conjugation is the
substitution x -> x^{2r-1}.  More generally ``Cyc.galois`` applies the
automorphism x -> x^s for s coprime to 2r, a permutation of power-table
rows, and can land in the context of another q at the same level: the
invariant at q is the image of the invariant at a base q.  Equality of
invariants is always decided on these exact representations; floating
point only ever appears in the display helper ``numeric_eval``.

Quantum integers and their inverses are weighted sums of powers of zeta,
read off the table of reduced powers of x with no division.  A product
folds x^r = -1 before it reduces by Phi_{2r}, which divides x^r + 1.
``Cyc.__mul__`` is the schoolbook loop: it folds while it accumulates,
into r slots, over the nonzero coefficients of both operands, and the
reduction runs over the modulus's nonzero coefficients only, adding or
subtracting where they are -1 or 1.  A product or sum of operands with
denominator 1 is integral, so already in lowest terms, and skips the
gcd pass.

A chain of products is one packed evaluation,
``FieldContext.packed_sum``: a signed sum of products of coefficient
vectors in Z/(2^(rw) + 1), the image of Z[x]/(x^r + 1) at x = 2^w,
folded after every multiply (``negacyclic_fold``), read back
(``negacyclic_unpack``) and reduced by Phi_2r once.  As
|f g|_inf <= |f|_1 |g|_1, no coefficient of the sum exceeds the sum
over its terms of the products of the factors' l1 norms, and w is
``slot_width`` of that bound.  ``FieldContext.product`` is one such
term over the product of the denominators.  The state-sum engine keeps
its table values in the same packed form.

The quantum binomials [n k] = [n]! / ([k]! [n-k]!) for n <= r - 2 are
integral, and the q-Pascal rule builds them with no division: each
entry is two rotations by powers of zeta in Z[x]/(x^r + 1) and one
reduction by Phi_2r.  The tetrahedron weight is an alternating sum of
[z+1] times products of them (``colourings._tet_weight_sum``); its
terms are evaluated packed, at a slot width proven from the l1 norms of
the binomials as stored here, which the reduction by Phi_2r can make
larger than C(n, k).  The extended Euclidean algorithm in
``Cyc.invert`` runs only for division or negative powers by field
elements.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

import mpmath

__all__ = [
    "cyclotomic_polynomial",
    "FieldContext",
    "field_init",
    "Cyc",
    "quantum_integer",
    "bracket_factorial",
    "MAX_LEVEL",
    "MAX_DIGITS",
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
    root of unity.  Instances cache the reduced powers of x, the
    quantum integers, their inverses, the bracket factorials and their
    inverses and the quantum binomials they hand out; get one via
    ``field_init``.
    """

    def __init__(self, r: int, q: int):
        if r < 3:
            raise ValueError(f"r must be at least 3, got {r}")
        if r > MAX_LEVEL:
            raise ValueError(f"r must be at most {MAX_LEVEL}, got {r}")
        if not (0 < q < 2 * r):
            raise ValueError(f"q must lie strictly between 0 and 2r, got {q}")
        if math.gcd(r, q) != 1:
            raise ValueError(f"r and q must be coprime, got ({r}, {q})")
        self.r = r
        self.q = q
        self.order = 2 * r
        self.modulus = cyclotomic_polynomial(2 * r)
        self.degree = len(self.modulus) - 1
        # the nonzero low coefficients of the modulus, for the reduction
        # after a product: positions of +1 and of -1, and the other pairs
        low = self.modulus[:-1]
        self._mod_terms = (tuple(i for i, m in enumerate(low) if m == 1),
                           tuple(i for i, m in enumerate(low) if m == -1),
                           tuple((i, m) for i, m in enumerate(low)
                                 if m not in (0, 1, -1)))

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

        self._qint: dict[int, Cyc] = {}
        self._inv_qint: dict[int, Cyc] = {}
        self._fact: list = [self.one]
        self._inv_fact: list = [self.one]
        # rows n = 0.. of quantum binomials, row n holding [n k] for
        # k = 0..n; [n k] and [n n-k] are one object
        self._binom: list = [[self.one]]

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

    def reduce_negacyclic(self, conv: list) -> tuple:
        """Power-basis coefficients of the element of Z[x]/(x^r + 1)
        with the r coefficients ``conv`` (overwritten): a reduction by
        Phi_2r, none at r = 2^k, over the modulus's nonzero terms."""
        deg = self.degree
        ones, minus_ones, others = self._mod_terms
        for k in range(self.r - 1, deg - 1, -1):
            c = conv[k]
            if c:
                base = k - deg
                for i in ones:
                    conv[base + i] -= c
                for i in minus_ones:
                    conv[base + i] += c
                for i, m in others:
                    conv[base + i] -= c * m
        return tuple(conv[:deg])

    def packed_sum(self, terms) -> tuple:
        """Power-basis coefficients of the signed sum of products
        ``terms``, a list of pairs (negative, factors) of a flag and a
        nonempty list of integer coefficient vectors of at most r
        entries.

        Evaluated in Z/(2^(rw) + 1), the image of Z[x]/(x^r + 1) at
        x = 2^w: each factor is packed, each product folded as soon as
        it is made, and the sum read back and reduced by Phi_2r once.
        In Z[x]/(x^r + 1), |f g|_inf <= |f|_1 |g|_1, so no coefficient
        of the sum exceeds the sum over the terms of the products of the
        factors' l1 norms, and w is ``slot_width`` of that bound.
        """
        bound = 0
        for _, factors in terms:
            size = 1
            for vec in factors:
                size *= sum(map(abs, vec))
            bound += size
        r = self.r
        width = slot_width(bound.bit_length())
        shift = r * width
        total = 0
        for negative, factors in terms:
            value = negacyclic_pack(factors[0], width)
            for vec in factors[1:]:
                value = negacyclic_fold(value * negacyclic_pack(vec, width),
                                        shift)
            total = total - value if negative else total + value
        return self.reduce_negacyclic(negacyclic_unpack(total, r, width))

    def product(self, values) -> "Cyc":
        """The product of the elements ``values``: one ``packed_sum``
        term over the product of their denominators."""
        den = math.prod(v.den for v in values)
        return Cyc(self, self.packed_sum([(False, [v.num for v in values])]),
                   den, _normalised=den == 1)

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
            self._fact.append(self._fact[-1] * self.quantum_integer(k))
        return self._fact[i]

    def inverse_bracket_factorial(self, i: int) -> "Cyc":
        """1 / [i]!, defined for 0 <= i < r."""
        if not (0 <= i < self.r):
            raise ValueError(f"[{i}]! is zero or undefined, cannot invert")
        while len(self._inv_fact) <= i:
            k = len(self._inv_fact)
            self._inv_fact.append(
                self._inv_fact[-1] * self.inverse_quantum_integer(k))
        return self._inv_fact[i]

    def quantum_binomial(self, n: int, k: int) -> "Cyc":
        """[n k] = [n]! / ([k]! [n-k]!), for 0 <= k <= n <= r - 2.

        Integral, with denominator 1: built row by row by the q-Pascal
        rule [n k] = zeta^k [n-1 k] + zeta^(k-n) [n-1 k-1], whose two
        shifts by powers of zeta are rotations in Z[x]/(x^r + 1) before
        one reduction by Phi_2r.  [n k] = [n n-k], so a row computes
        its first half and shares it with the second: at most
        (r - 1)^2 / 2 entries per context.
        """
        if not (0 <= k <= n <= self.r - 2):
            raise ValueError(
                f"[n k] needs 0 <= k <= n <= r - 2, got ({n}, {k})")
        rows = self._binom
        while len(rows) <= n:
            m = len(rows)
            prev = rows[-1]
            row = [self.one] * (m + 1)
            for j in range(1, m // 2 + 1):
                conv = [0] * self.r
                self._add_rotated(conv, prev[j].num, j)
                self._add_rotated(conv, prev[j - 1].num, j - m)
                row[j] = row[m - j] = Cyc(
                    self, self.reduce_negacyclic(conv), 1, _normalised=True)
            rows.append(row)
        return rows[n][k]

    def _add_rotated(self, conv: list, coeffs, k: int) -> None:
        """Add ``coeffs`` times zeta^k into the r slots ``conv`` of
        Z[x]/(x^r + 1), where zeta^k = +-x^s with 0 <= s < r."""
        r = self.r
        s = (self.q * k) % self.order
        sign = 1
        if s >= r:
            s -= r
            sign = -1
        for i, c in enumerate(coeffs, s):
            if c:
                if i < r:
                    conv[i] += sign * c
                else:
                    conv[i - r] -= sign * c


@lru_cache(maxsize=None)
def field_init(r: int, q: int) -> FieldContext:
    return FieldContext(r, q)


def slot_width(bound: int) -> int:
    """Bits per slot that hold every coefficient below 2^bound in
    absolute value: one more, for the sign."""
    return bound + 1


def negacyclic_fold(value: int, shift: int) -> int:
    """``value`` modulo 2^shift + 1 folded once (2^shift = -1): congruent,
    not reduced."""
    return (value & ((1 << shift) - 1)) - (value >> shift)


def negacyclic_pack(coeffs, width: int) -> int:
    """``coeffs`` (ascending, any size and sign) at x = 2^width, the ring
    map Z[x]/(x^r + 1) -> Z/(2^(r width) + 1)."""
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return value


def negacyclic_unpack(value: int, r: int, width: int) -> list:
    """The r coefficients that ``negacyclic_pack`` maps to ``value``
    modulo 2^(r width) + 1, each below 2^(width - 1) in absolute value:
    the balanced digits of the balanced residue."""
    modulus = (1 << (r * width)) + 1
    value %= modulus
    if value > modulus >> 1:
        value -= modulus
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    digits = []
    for _ in range(r):
        digit = ((value + half) & mask) - half
        digits.append(digit)
        value = (value - digit) >> width
    return digits


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
        r = ctx.r
        # x^r = -1 because Phi_2r divides x^r + 1: fold while
        # accumulating, into r slots
        conv = [0] * r
        terms_b = [(j, y) for j, y in enumerate(other.num) if y]
        for i, x in enumerate(self.num):
            if x:
                for j, y in terms_b:
                    k = i + j
                    if k < r:
                        conv[k] += x * y
                    else:
                        conv[k - r] -= x * y
        # an integral product is already normalised
        den = self.den * other.den
        return Cyc(ctx, ctx.reduce_negacyclic(conv), den,
                   _normalised=den == 1)

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

    def galois(self, s: int, ctx: FieldContext) -> "Cyc":
        """The image under the automorphism x -> x^s, as an element of
        ``ctx``.

        s must be coprime to 2r, and ``ctx`` must be a context of the same
        level: all of them share the power basis of Q[x]/Phi_2r and differ
        only in which power of x they call zeta.  Coefficient k moves to
        the reduced power x^(sk), a row of the power table.  A value whose
        weights are rational functions of zeta = x^q maps to the same
        rational functions of zeta = x^(sq).
        """
        src = self.ctx
        if ctx.r != src.r:
            raise ValueError(
                f"cannot map level {src.r} into level {ctx.r}")
        if math.gcd(s, src.order) != 1:
            raise ValueError(
                f"x -> x^{s} is not an automorphism: gcd({s}, {src.order})"
                " is not 1")
        rows, order = ctx._xpow, ctx.order
        acc = [0] * ctx.degree
        for k, c in enumerate(self.num):
            if c:
                for i, p in enumerate(rows[(s * k) % order]):
                    if p:
                        acc[i] += c * p
        return Cyc(ctx, tuple(acc), self.den)

    def conjugate(self) -> "Cyc":
        """Complex conjugation: substitute x -> x^{2r-1}."""
        return self.galois(self.ctx.order - 1, self.ctx)

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


# the largest level r of a field context, and so of every command: the
# tables of a level grow with r^2 and faster (README, CLI)
MAX_LEVEL = 128

# the largest ``--digits`` that ``tv compute`` and the table script
# accept: the time of ``numeric_eval`` grows faster than linearly in the
# digits asked for (README, CLI)
MAX_DIGITS = 10_000


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
