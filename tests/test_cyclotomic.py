import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from tvcalc import field_init, numeric_eval
from tvcalc.cyclotomic import KRONECKER_DEGREE, Cyc, FieldContext, \
    bracket_factorial, cyclotomic_polynomial, quantum_integer

LEVELS = [(3, 1), (4, 1), (5, 1), (5, 3), (7, 2), (8, 3), (9, 5), (12, 5),
          (16, 3)]


def _levels(bound, every_q_upto):
    """(r, q) for 3 <= r <= bound: every valid q up to ``every_q_upto``,
    above it only q = 1 and its conjugate 2r - 1."""
    for r in range(3, bound + 1):
        if r > every_q_upto:
            qs = (1, 2 * r - 1)
        else:
            qs = [q for q in range(1, 2 * r) if math.gcd(r, q) == 1]
        for q in qs:
            yield r, q


def test_cyclotomic_polynomials_small():
    # classical tables
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_totient():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(n, k) == 1)
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) - 1 == totient(n)


def test_field_init_validation():
    with pytest.raises(ValueError):
        field_init(2, 1)
    with pytest.raises(ValueError):
        field_init(5, 5)
    with pytest.raises(ValueError):
        field_init(5, 10)
    with pytest.raises(ValueError):
        field_init(5, 0)
    field_init(5, 9)   # q need not be coprime to 2r, only to r
    field_init(6, 1)


def test_field_init_cached():
    assert field_init(5, 1) is field_init(5, 1)


def test_zeta_order():
    # zeta = x^q has order 2r / gcd(q, 2r); in particular zeta^r = (-1)^q
    for r, q in LEVELS:
        ctx = field_init(r, q)
        z = ctx.zeta
        assert z ** (2 * r) == ctx.one
        assert z ** r == (-ctx.one if q % 2 else ctx.one)
        order = 2 * r // math.gcd(q, 2 * r)
        for k in range(1, 2 * r):
            assert (z ** k == ctx.one) == (k % order == 0)


def test_quantum_integer_conventions():
    for r, q in LEVELS:
        ctx = field_init(r, q)
        assert ctx.quantum_integer(0) == ctx.one  # defined as 1
        assert ctx.quantum_integer(1) == ctx.one
        assert ctx.quantum_integer(r).is_zero()
        # reflection: [r - i] = [i] up to the sign (-1)^(q+1)
        for i in range(1, r):
            lhs = ctx.quantum_integer(r - i)
            rhs = ctx.quantum_integer(i)
            assert lhs == (rhs if q % 2 == 1 else -rhs)


def test_quantum_integer_numeric():
    for r, q in LEVELS:
        ctx = field_init(r, q)
        for i in range(1, r):
            got = complex(numeric_eval(ctx.quantum_integer(i), 15))
            want = math.sin(math.pi * q * i / r) / math.sin(math.pi * q / r)
            assert abs(got - want) < 1e-12


def test_bracket_factorial_recurrence():
    for r, q in LEVELS[:4]:
        ctx = field_init(r, q)
        assert ctx.bracket_factorial(0) == ctx.one
        for i in range(1, r + 2):
            assert ctx.bracket_factorial(i) == \
                ctx.bracket_factorial(i - 1) * ctx.quantum_integer(i)
        assert ctx.bracket_factorial(r).is_zero()
        assert ctx.bracket_factorial(r + 1).is_zero()


def test_inverse_bracket_factorial():
    for r, q in LEVELS:
        ctx = field_init(r, q)
        for i in range(r):
            prod = ctx.bracket_factorial(i) * ctx.inverse_bracket_factorial(i)
            assert prod == ctx.one
        with pytest.raises(ValueError):
            ctx.inverse_bracket_factorial(r)
        with pytest.raises(ValueError):
            ctx.inverse_bracket_factorial(-1)


def test_quantum_integer_closed_forms():
    # [k] (zeta - 1/zeta) = zeta^k - zeta^-k and [k] (1/[k]) = 1 fix
    # each element uniquely
    for r, q in _levels(40, 20):
        ctx = field_init(r, q)
        diff = ctx.zeta_power(1) - ctx.zeta_power(-1)
        for k in range(1, r + 1):
            assert ctx.quantum_integer(k) * diff == \
                ctx.zeta_power(k) - ctx.zeta_power(-k)
        for k in range(1, r):
            assert ctx.quantum_integer(k) \
                * ctx.inverse_quantum_integer(k) == ctx.one


def test_inverse_bracket_factorial_matches_euclid():
    # Cyc.invert is the oracle; composite r (6, 9, 10, 12) has [k] with
    # gcd(k, r) > 1, where zeta^2k is not a primitive r-th root
    for r, q in _levels(13, 13):
        ctx = field_init(r, q)
        for i in range(r):
            assert ctx.inverse_bracket_factorial(i) == \
                ctx.bracket_factorial(i).invert()


def test_field_set_up_needs_no_euclid(monkeypatch):
    def refuse(self):
        raise AssertionError("Cyc.invert called")
    monkeypatch.setattr(Cyc, "invert", refuse)
    for r, q in [(31, 1), (12, 5), (39, 2), (40, 3)]:
        ctx = FieldContext(r, q)    # not field_init: its caches start empty
        assert ctx.inverse_bracket_factorial(r - 1) \
            * ctx.bracket_factorial(r - 1) == ctx.one
        assert (ctx.zeta / (2 * r)) * (2 * r) == ctx.zeta
        assert (ctx.zeta / Fraction(-2, 7)) * Fraction(-2, 7) == ctx.zeta


def test_inverse_quantum_integer_range():
    ctx = field_init(6, 1)
    for k in (0, 6):
        with pytest.raises(ValueError):
            ctx.inverse_quantum_integer(k)


def test_module_level_wrappers():
    ctx = field_init(5, 1)
    assert quantum_integer(ctx, 2) == ctx.quantum_integer(2)
    assert bracket_factorial(ctx, 3) == ctx.bracket_factorial(3)


def _random_element(ctx, data, numerators=st.integers(-9, 9)):
    degree = len(ctx.modulus) - 1
    coeffs = [Fraction(data.draw(numerators), data.draw(st.integers(1, 9)))
              for _ in range(degree)]
    return ctx.from_fractions(coeffs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_field_axioms(data):
    r, q = data.draw(st.sampled_from(LEVELS))
    ctx = field_init(r, q)
    a = _random_element(ctx, data)
    b = _random_element(ctx, data)
    c = _random_element(ctx, data)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ctx.zero == a
    assert a * ctx.one == a
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a * a.invert() == ctx.one
        assert (a / a) == ctx.one
    assert (a / 3) * 3 == a
    assert a / Fraction(-2, 5) == a * Fraction(-5, 2)


def _reference_product(a, b):
    """a * b by the full convolution, reduced by Phi_2r alone."""
    ctx = a.ctx
    deg = ctx.degree
    conv = [0] * (2 * deg - 1)
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            conv[i + j] += x * y
    for k in range(len(conv) - 1, deg - 1, -1):
        c = conv[k]
        for i, m in enumerate(ctx.modulus):
            conv[k - deg + i] -= c * m
    return Cyc(ctx, conv[:deg], a.den * b.den)


def _operand(ctx, data):
    kind = data.draw(st.sampled_from(["small", "wide", "zero", "top"]))
    if kind == "small":
        return _random_element(ctx, data)
    if kind == "wide":
        return _random_element(ctx, data, st.integers(-2**200, 2**200))
    if kind == "zero":
        return ctx.zero
    top = [0] * ctx.degree
    top[-1] = data.draw(st.integers(-2**200, 2**200).filter(bool))
    return Cyc(ctx, top, data.draw(st.integers(1, 9)))


def _assert_schoolbook(a, b):
    got = a * b
    want = _reference_product(a, b)
    assert (got.num, got.den) == (want.num, want.den)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_product_folds_x_to_the_r(data):
    # r = 2^k (Phi_2r = x^r + 1), prime r, and composite r with deg << r,
    # on both sides of KRONECKER_DEGREE
    r = data.draw(st.sampled_from([3, 4, 5, 6, 8, 9, 12, 15, 16, 30, 31,
                                   32, 45, 47]))
    q = data.draw(st.sampled_from(
        [q for q in range(1, 2 * r) if math.gcd(r, q) == 1]))
    ctx = field_init(r, q)
    _assert_schoolbook(_operand(ctx, data), _operand(ctx, data))


def test_products_match_schoolbook_at_every_degree():
    rng = random.Random(8)
    level_of = {}
    for r in range(3, 100):
        level_of.setdefault(len(cyclotomic_polynomial(2 * r)) - 1, r)
    degrees = [d for d in sorted(level_of) if d <= 60]
    assert degrees[0] == 2 and degrees[-1] == 60
    for degree in degrees:
        ctx = field_init(level_of[degree], 1)
        for _ in range(4):
            a, b = (ctx.from_fractions(
                [Fraction(rng.randint(-2**64, 2**64), rng.randint(1, 99))
                 for _ in range(degree)]) for _ in range(2))
            _assert_schoolbook(a, b)


@pytest.mark.parametrize("r", [23, 31, 47])
def test_product_fills_its_slots(r):
    # a = M_a (1, 1, ..., 1) and b = M_b (1, -1, ..., -1) put deg - 1
    # products of one sign into coefficient 0 once x^r = -1 is folded.
    # With bits(M_a) + bits(M_b) + bits(deg) a multiple of 8, that sum
    # needs all of it plus a sign bit, so a slot one bit narrower fails.
    ctx = field_init(r, 1)
    assert ctx.degree >= KRONECKER_DEGREE and ctx.degree == r - 1
    extra = ctx.degree.bit_length()
    bits_a, bits_b = 100, 108 - extra
    big_a, big_b = 2**bits_a - 1, 2**bits_b - 1
    assert (ctx.degree - 1) * big_a * big_b >= 2 ** (bits_a + bits_b
                                                     + extra - 1)
    a = Cyc(ctx, (big_a,) * ctx.degree)
    b = Cyc(ctx, (big_b,) + (-big_b,) * (ctx.degree - 1))
    _assert_schoolbook(a, b)


@pytest.mark.parametrize("r", [17, 36, 40])
def test_products_by_packed_factorials(r):
    # a factorial-table entry as the right operand is packed once per
    # slot width and then reused; prime and even levels, with left
    # operands of several sizes so that several slot widths occur
    ctx = FieldContext(r, 1)
    rng = random.Random(r)
    for _ in range(10):
        bits = rng.randint(1, 90)
        a = ctx.from_fractions([Fraction(rng.randint(-2**bits, 2**bits),
                                         rng.randint(1, 9))
                                for _ in range(ctx.degree)])
        for i in (rng.randrange(r), rng.randrange(r)):
            for f in (ctx.bracket_factorial(i),
                      ctx.inverse_bracket_factorial(i)):
                _assert_schoolbook(a, f)
                _assert_schoolbook(a, f)
    assert len(ctx._packed) > 1


def test_cancelling_products_and_sums_come_back_normalised():
    # below KRONECKER_DEGREE an integral product or sum skips the gcd
    # pass; one whose denominators cancel must still come back in lowest
    # terms: [k] * 1/[k] is 1 over 1 at composite levels too, where 1/[k]
    # has a denominator, and every product or sum equals its own
    # renormalisation
    levels = [r for r in range(3, 40)
              if field_init(r, 1).degree < KRONECKER_DEGREE]
    assert levels[0] == 3 and field_init(levels[-1], 1).degree == 12
    assert any(field_init(r, 1).inverse_quantum_integer(k).den > 1
               for r in levels for k in range(1, r))
    rng = random.Random(16)
    for r in levels:
        ctx = field_init(r, 1)
        one = (ctx.one.num, 1)
        for k in range(1, r):
            qint, inv = ctx.quantum_integer(k), ctx.inverse_quantum_integer(k)
            for got in (qint * inv, inv * qint, inv + (ctx.one - inv),
                        (ctx.one - inv) + inv):
                assert (got.num, got.den) == one, (r, k)
        values = [ctx.inverse_quantum_integer(k) for k in range(1, r)]
        values += [ctx.inverse_bracket_factorial(i) for i in range(r)]
        values += [ctx.bracket_factorial(i) for i in range(r)]
        for _ in range(60):
            a, b = rng.choice(values), rng.choice(values)
            for got in (a * b, a + b, a - b):
                again = Cyc(ctx, got.num, got.den)
                assert (got.num, got.den) == (again.num, again.den), r


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_conjugation_is_a_ring_map(data):
    r, q = data.draw(st.sampled_from(LEVELS))
    ctx = field_init(r, q)
    a = _random_element(ctx, data)
    b = _random_element(ctx, data)
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a
    # numerically, conjugation is complex conjugation
    za = complex(numeric_eval(a, 15))
    zc = complex(numeric_eval(a.conjugate(), 15))
    assert abs(za.conjugate() - zc) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_string_round_trip(data):
    r, q = data.draw(st.sampled_from(LEVELS))
    ctx = field_init(r, q)
    a = _random_element(ctx, data)
    assert Cyc.from_strings(ctx, a.to_strings()) == a


def test_rational_detection():
    ctx = field_init(5, 1)
    x = ctx.from_rational(Fraction(3, 7))
    assert x.is_rational() and x.as_rational() == Fraction(3, 7)
    assert not ctx.zeta.is_rational()
    with pytest.raises(ValueError):
        ctx.zeta.as_rational()


def test_zeta_power_wraps():
    ctx = field_init(7, 3)
    for k in range(-14, 15):
        assert ctx.zeta_power(k) == ctx.zeta ** (k % 14)


def test_numeric_eval_at_digits():
    ctx = field_init(5, 1)
    val = numeric_eval(ctx.zeta, 30)
    want = mpmath.exp(1j * mpmath.pi / 5)
    assert abs(complex(val) - complex(want)) < 1e-25


def test_division_by_zero_raises():
    ctx = field_init(5, 1)
    with pytest.raises(ZeroDivisionError):
        ctx.one / ctx.zero
    with pytest.raises(ZeroDivisionError):
        ctx.zero.invert()
    with pytest.raises(ZeroDivisionError):
        ctx.one / 0
    with pytest.raises(ZeroDivisionError):
        ctx.one / Fraction(0)
