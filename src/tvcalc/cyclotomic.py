"""Exact arithmetic in the cyclotomic field Q(zeta_{2r}).

Elements are represented in the power basis of Q[x]/Phi_{2r}(x), with
integer coefficient vectors over a common positive denominator, always in
lowest terms.  The root of unity zeta used by the invariants is x^q, so a
single field serves every exponent convention; complex conjugation is the
substitution x -> x^{2r-1}.  More generally ``Cyc.galois`` applies the
automorphism x -> x^s for s coprime to 2r, and can land in the context
of another q at the same level: the invariant at q is the image of the
invariant at a base q.  Equality of invariants is always decided on
these exact representations; floating point only ever appears in the
display helper ``numeric_eval``.

One ring does the work: every element is built, and every product
taken, in the r slots of Z[x]/(x^r + 1), where x^r = -1, and brought
back to the power basis by one reduction by Phi_2r, which divides
x^r + 1 (``FieldContext.reduce_negacyclic``).  A power of zeta, or of
x in a Galois image, is one signed rotation into the r slots; a quantum
integer, its inverse and a q-Pascal row of the quantum binomials are
sums of such rotations (``FieldContext._add_rotated``), with no
division.

Every product is one packed evaluation, ``FieldContext.product``,
which ``Cyc.__mul__`` calls too: the numerators multiplied in
Z/(2^(rw) + 1), the image of Z[x]/(x^r + 1) at x = 2^w, folded after
every multiply (``negacyclic_fold``).  As |f g|_inf <= |f|_1 |g|_1,
no coefficient of the product exceeds the product of the factors' l1
norms, and w is ``slot_width`` of that bound.  The state-sum engine
keeps its table values in the same packed form, and every packed value
comes back through ``FieldContext.from_packed``: read back
(``negacyclic_unpack``), reduced by Phi_2r once and put over its
denominator.  A product or sum of operands with denominator 1 is
integral, so already in lowest terms, and skips the gcd pass.

The quantum binomials [n k] = [n]! / ([k]! [n-k]!) for n <= r - 2 are
integral, and the q-Pascal rule builds them with no division: each
entry is two rotations by powers of zeta and one reduction.  The
tetrahedron weight is an alternating sum of [n+1] times quantum
multinomials, products of at most six binomials, one term per n
(``colourings._tet_weight_sum`` and ``loopcoords.tet_weight_loop``).
A context packs [n+1] and [n k] once, at one slot width W proven from
the l1 norms of all of them as stored, which the reduction by Phi_2r
can make larger than C(n, k); it drops their vectors, and
``FieldContext.multinomial_sum`` multiplies out every such sum from
that table (``FieldContext._packed_table``).  No weight divides by a
field element, so there is no general inverse: ``Cyc`` divides by
integers and fractions only, and raises to powers k >= 0 only.
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
    root of unity.  Instances keep the modulus's nonzero terms for the
    one reduction by Phi_2r, cache the quantum integers and their
    inverses they hand out, from the first tetrahedron sum on, one
    packed table of [n+1] and [n k] for n <= r - 2 at one slot width
    (``_packed_table``), and the weight pools of ``colourings``
    (``weight_pools``); get one via ``field_init``.
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
        # by Phi_2r: positions of +1 and of -1, and the other pairs
        low = self.modulus[:-1]
        self._mod_terms = (tuple(i for i, m in enumerate(low) if m == 1),
                           tuple(i for i, m in enumerate(low) if m == -1),
                           tuple((i, m) for i, m in enumerate(low)
                                 if m not in (0, 1, -1)))

        self.zero = Cyc(self, (0,) * self.degree, 1)
        self.one = Cyc(self, (1,) + (0,) * (self.degree - 1), 1)
        self.zeta = self.zeta_power(1)

        self._qint: dict[int, Cyc] = {}
        self._inv_qint: dict[int, Cyc] = {}
        # (width, heads, rows): [n+1] and [n k], k <= n/2, for
        # n <= r - 2, packed once at one width (``_packed_table``)
        self._packed = None
        self.weight_pools = None    # made by ``colourings._cache``

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

    def product(self, values) -> "Cyc":
        """The product of the nonempty list of elements ``values``.

        Evaluated in Z/(2^(rw) + 1), the image of Z[x]/(x^r + 1) at
        x = 2^w: each numerator is packed, each product folded as soon
        as it is made, and the result read back once over the product of
        the denominators (``from_packed``).  In Z[x]/(x^r + 1),
        |f g|_inf <= |f|_1 |g|_1, so no coefficient exceeds the product
        of the numerators' l1 norms, and w is ``slot_width`` of that
        bound.
        """
        bound = 1
        for v in values:
            bound *= sum(map(abs, v.num))
        width = slot_width(bound.bit_length())
        shift = self.r * width
        value = negacyclic_pack(values[0].num, width)
        for v in values[1:]:
            value = negacyclic_fold(value * negacyclic_pack(v.num, width),
                                    shift)
        return self.from_packed(value, width,
                                math.prod(v.den for v in values))

    # -- constructors ------------------------------------------------------

    def from_packed(self, value: int, width: int, den: int = 1) -> "Cyc":
        """The element whose numerator ``negacyclic_pack`` maps to
        ``value`` at ``width`` bits a slot, each coefficient below
        2^(width - 1) in absolute value, over ``den``: unpacked, then
        reduced by Phi_2r."""
        return Cyc(self, self.reduce_negacyclic(
            negacyclic_unpack(value, self.r, width)), den,
            _normalised=den == 1)

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
        """zeta^k = x^(qk) for any integer k."""
        return Cyc(self, self._zeta_power_sum([(1, k)]), 1, _normalised=True)

    def _zeta_power_sum(self, terms) -> tuple:
        """sum weight * zeta^k over the pairs (weight, k) of ``terms``:
        one signed rotation each in Z[x]/(x^r + 1), then one reduction
        by Phi_2r, no division."""
        conv = [0] * self.r
        for weight, k in terms:
            self._add_rotated(conv, (weight,), self.q * k)
        return self.reduce_negacyclic(conv)

    # -- quantum integers and binomials ------------------------------------

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
            got = Cyc(self, self._zeta_power_sum(
                (1, 1 - i + 2 * j) for j in range(i)), 1, _normalised=True)
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
            got = Cyc(self, self._zeta_power_sum(
                [(j, k + 1 + 2 * k * j) for j in range(m)]
                + [(-j, k - 1 + 2 * k * j) for j in range(m)]), m)
            self._inv_qint[k] = got
        return got

    def quantum_binomial(self, n: int, k: int) -> "Cyc":
        """[n k] = [n]! / ([k]! [n-k]!), for 0 <= k <= n <= r - 2,
        read back from the packed table (``_packed_table``).  Integral,
        with denominator 1, and [n k] = [n n-k]."""
        if not (0 <= k <= n <= self.r - 2):
            raise ValueError(
                f"[n k] needs 0 <= k <= n <= r - 2, got ({n}, {k})")
        width, _, rows = self._packed_table()
        return self.from_packed(rows[n][min(k, n - k)], width)

    def _packed_table(self) -> tuple:
        """(W, heads, rows): heads[n] = [n+1] and rows[n][k] = [n k]
        for k <= n/2 and n <= r - 2, packed at x = 2^W and built on
        first use.

        The rows come from the q-Pascal rule
        [n k] = zeta^k [n-1 k] + zeta^(k-n) [n-1 k-1], whose two shifts
        by powers of zeta are rotations in Z[x]/(x^r + 1) before one
        reduction by Phi_2r, with no division; their vectors are
        dropped once packed.  W is proven for ``multinomial_sum``: its
        terms have distinct n, and a term is [n+1] times at most six
        binomials [n k1] [n-k1 k2] ..., so with B_0 = 1 and
        B_j(n) = max(B_{j-1}(n), max_k |[n k]|_1 B_{j-1}(n-k)), no
        coefficient of a sum exceeds sum_n |[n+1]|_1 B_6(n), and W is
        ``slot_width`` of that bound.  The l1 norms are those of the
        vectors reduced by Phi_2r, which can exceed C(n, k).
        """
        if self._packed is None:
            r = self.r
            one = self.one.num
            rows = [[one]]
            for m in range(1, r - 1):
                prev = rows[-1]
                row = [one]
                for j in range(1, m // 2 + 1):
                    conv = [0] * r
                    self._add_rotated(conv, prev[min(j, m - 1 - j)],
                                      self.q * j)
                    self._add_rotated(conv, prev[j - 1], self.q * (j - m))
                    row.append(self.reduce_negacyclic(conv))
                rows.append(row)
            heads = [self.quantum_integer(n + 1).num for n in range(r - 1)]
            norms = [[sum(map(abs, vec)) for vec in row] for row in rows]
            # B_j(n); k = 0 gives B_{j-1}(n), as [n 0] = 1
            chain = [1] * (r - 1)
            for _ in range(6):
                chain = [max(norms[n][min(k, n - k)] * chain[n - k]
                             for k in range(n + 1)) for n in range(r - 1)]
            bound = sum(sum(map(abs, head)) * chain[n]
                        for n, head in enumerate(heads))
            width = slot_width(bound.bit_length())
            self._packed = (
                width, [negacyclic_pack(vec, width) for vec in heads],
                [[negacyclic_pack(vec, width) for vec in row]
                 for row in rows])
        return self._packed

    def multinomial_sum(self, terms) -> "Cyc":
        """The signed sum over ``terms``, pairs (negative, parts) of a
        flag and at most seven non-negative integers with
        n = sum(parts) <= r - 2, of [n+1] times the quantum multinomial
        of n over the parts.  No two terms may share n, as the slot
        width is proven for one term per n; the terms of a tetrahedron
        sum have n = z, or m - z in loop coordinates.

        A term is [n+1] times [n k] for each nonzero part k but the
        largest, n falling by k after each: at most six binomials, each
        with k <= n/2.  Its factors are read from the packed table
        (``_packed_table``), each product is folded as soon as it is
        made, and the sum is read back and reduced by Phi_2r once.
        """
        width, heads, rows = self._packed_table()
        shift = self.r * width
        total = 0
        for negative, parts in terms:
            parts = sorted(parts)
            n = sum(parts)
            value = heads[n]
            # the largest part is the n left after the others
            for part in parts[:-1]:
                if part:
                    value = negacyclic_fold(value * rows[n][part], shift)
                    n -= part
            total = total - value if negative else total + value
        return self.from_packed(total, width)

    def _add_rotated(self, conv: list, coeffs, e: int) -> None:
        """Add ``coeffs`` times x^e into the r slots ``conv`` of
        Z[x]/(x^r + 1), where x^e = +-x^s with 0 <= s < r."""
        r = self.r
        s = e % self.order
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
        if type(other) is not Cyc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
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
        if not isinstance(other, (Cyc, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
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
            return NotImplemented
        self._check(other)
        return self.ctx.product([self, other])

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by an ``int`` or ``Fraction`` only: no weight divides
        by a field element, and 1/[k] has a closed form
        (``FieldContext.inverse_quantum_integer``)."""
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int):
        """Powers with k >= 0 only; a field element has no inverse here."""
        if k < 0:
            raise ValueError(f"powers need k >= 0, got {k}")
        if k == 0:
            return self.ctx.one
        # left to right over the bits of k after the leading one
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def galois(self, s: int, ctx: FieldContext) -> "Cyc":
        """The image under the automorphism x -> x^s, as an element of
        ``ctx``.

        s must be coprime to 2r, and ``ctx`` must be a context of the same
        level: all of them share the power basis of Q[x]/Phi_2r and differ
        only in which power of x they call zeta.  Coefficient k moves to
        +-x^(sk mod r) in the r slots of Z[x]/(x^r + 1), which one
        reduction by Phi_2r brings back to the power basis.  As s is
        odd, x^r + 1 divides x^(rs) + 1, so the substitution is well
        defined on Z[x]/(x^r + 1).  A value whose weights are rational
        functions of zeta = x^q maps to the same rational functions of
        zeta = x^(sq).
        """
        src = self.ctx
        if ctx.r != src.r:
            raise ValueError(
                f"cannot map level {src.r} into level {ctx.r}")
        if math.gcd(s, src.order) != 1:
            raise ValueError(
                f"x -> x^{s} is not an automorphism: gcd({s}, {src.order})"
                " is not 1")
        conv = [0] * ctx.r
        for k, c in enumerate(self.num):
            ctx._add_rotated(conv, (c,), s * k)
        return Cyc(ctx, ctx.reduce_negacyclic(conv), self.den)

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
        # a rational element equals its Fraction, so it hashes as one
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
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
        for k, c in enumerate(a.num):
            if k:
                power *= root
            if c:
                total += c * power
        return total / a.den
