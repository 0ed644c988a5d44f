import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from tvcalc import field_init, numeric_eval
from tvcalc.cyclotomic import MAX_LEVEL, Cyc, FieldContext, \
    cyclotomic_polynomial

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
    # the level cap admits r = 105, built below, and r = 101, timed in
    # the README; above it no context is built, however large r is
    assert MAX_LEVEL >= 105
    before = field_init.cache_info().currsize
    for r in (MAX_LEVEL + 1, 5001, 10 ** 9):
        with pytest.raises(ValueError, match="at most"):
            field_init(r, 1)
    assert field_init.cache_info().currsize == before


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


@pytest.mark.parametrize("r", [5, 6, 9, 12, 23, 36])
def test_quantum_binomials_times_factorials(r, factorials):
    # [n k] [k]! [n-k]! = [n]! for 0 <= k <= n <= r - 2, with [n k]
    # built by the q-Pascal rule alone; at zeta = x, at its conjugate
    # and, at odd r, at the base r + 1 of even q
    for q in (1, 2 * r - 1) + ((r + 1,) if r % 2 else ()):
        ctx = FieldContext(r, q)
        fact, _ = factorials(ctx)
        for n in range(r - 1):
            for k in range(n + 1):
                binomial = ctx.quantum_binomial(n, k)
                assert binomial.den == 1
                assert binomial * fact[k] * fact[n - k] == fact[n], \
                    (q, n, k)
        for n, k in ((r - 1, 0), (3, 4), (3, -1)):
            with pytest.raises(ValueError):
                ctx.quantum_binomial(n, k)


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


def test_field_set_up_needs_no_euclid(factorials):
    # the field layer has no general inverse: 1/[k] is closed-form,
    # and division is by integers and fractions only
    assert not hasattr(Cyc, "invert")
    for r, q in [(31, 1), (12, 5), (39, 2), (40, 3)]:
        ctx = FieldContext(r, q)    # not field_init: its caches start empty
        fact, inv_fact = factorials(ctx)
        assert inv_fact[r - 1] * fact[r - 1] == ctx.one
        assert (ctx.zeta / (2 * r)) * (2 * r) == ctx.zeta
        assert (ctx.zeta / Fraction(-2, 7)) * Fraction(-2, 7) == ctx.zeta


def test_no_division_by_field_elements_or_negative_powers():
    # both fail at once: a negative k would never end the square and
    # multiply loop of __pow__, as -1 >> 1 == -1
    ctx = field_init(7, 3)
    for k in (-1, -2, -15):
        with pytest.raises(ValueError):
            ctx.zeta ** k
    for divisor in (ctx.zeta, ctx.quantum_integer(2), ctx.zero):
        with pytest.raises(TypeError):
            ctx.one / divisor
    with pytest.raises(TypeError):
        1 / ctx.zeta


def test_inverse_quantum_integer_range():
    ctx = field_init(6, 1)
    for k in (0, 6):
        with pytest.raises(ValueError):
            ctx.inverse_quantum_integer(k)


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
    # at degrees from 2 to 46
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


def _monomial(ctx, c, i):
    vec = [0] * ctx.degree
    vec[i] = c
    return vec


@pytest.mark.parametrize("r", [23, 31, 47])
def test_product_fills_its_slots(r):
    # product at its proven width.  Every factor is a monomial c x^i,
    # and the chain lands on coefficient 0 with a plus sign once x^r = -1
    # is folded at the last multiply.  So that coefficient equals the
    # bound prod_factors |f|_1: it needs every bit of
    # slot_width(bits(bound)), and a slot one bit narrower misreads it
    ctx = field_init(r, 1)
    assert ctx.degree == r - 1
    m0, m1, m2, m3 = 2**100 - 1, 2**57 + 3, 3**40, 5**20
    chain = [Cyc(ctx, _monomial(ctx, m0, r - 2)),
             Cyc(ctx, _monomial(ctx, -m1, 1)),
             Cyc(ctx, _monomial(ctx, m2, 0)),
             Cyc(ctx, _monomial(ctx, m3, 1))]
    bound = m0 * m1 * m2 * m3
    want = chain[0]
    for f in chain[1:]:
        want = _reference_product(want, f)
    assert want.num == (bound,) + (0,) * (ctx.degree - 1)
    got = ctx.product(chain)
    assert (got.num, got.den) == (want.num, 1)


@pytest.mark.parametrize("r", [4, 6, 9, 16, 31, 47, 105])
def test_packed_products_match_reference_chains(r):
    # FieldContext.product against chains of _reference_product: even,
    # odd composite and prime levels, and r = 105, whose modulus has
    # coefficients +-2.  The inverse quantum integers have denominators
    # at composite r, and the random elements at every r
    ctx = field_init(r, 1)
    rng = random.Random(r)
    values = [ctx.quantum_integer(k) for k in range(1, r)]
    values += [ctx.inverse_quantum_integer(k) for k in range(1, r)]
    assert any(v.den > 1 for v in values) == (r in (4, 6, 9, 16, 105))
    values += [ctx.zeta_power(k) for k in range(0, 2 * r, 3)]
    values += [ctx.quantum_binomial(r - 2, k) for k in range(r - 1)]
    for _ in range(6):
        values.append(ctx.from_fractions(
            [Fraction(rng.randint(-2**60, 2**60), rng.randint(1, 9))
             for _ in range(ctx.degree)]))
    values.append(ctx.zero)
    for _ in range(20):
        chain = [rng.choice(values) for _ in range(rng.randint(1, 6))]
        want = chain[0]
        for f in chain[1:]:
            want = _reference_product(want, f)
        got = ctx.product(chain)
        assert (got.num, got.den) == (want.num, want.den)
    # integral chains, longer: their product is already normalised
    integral = [v for v in values if v.den == 1]
    for _ in range(10):
        chain = [rng.choice(integral) for _ in range(rng.randint(1, 9))]
        want = chain[0]
        for f in chain[1:]:
            want = _reference_product(want, f)
        got = ctx.product(chain)
        assert (got.num, got.den) == (want.num, 1)


@pytest.mark.parametrize("r", [17, 36, 40])
def test_products_by_packed_factorials(r, factorials):
    # a factorial or inverse factorial as the right operand of a
    # product; prime and even levels, with left operands of several sizes
    ctx = FieldContext(r, 1)
    fact, inv_fact = factorials(ctx)
    rng = random.Random(r)
    for _ in range(10):
        bits = rng.randint(1, 90)
        a = ctx.from_fractions([Fraction(rng.randint(-2**bits, 2**bits),
                                         rng.randint(1, 9))
                                for _ in range(ctx.degree)])
        for i in (rng.randrange(r), rng.randrange(r)):
            for f in (fact[i], inv_fact[i]):
                _assert_schoolbook(a, f)
                _assert_schoolbook(a, f)


def test_products_reduce_by_a_modulus_with_other_coefficients():
    # Phi_210 is the first modulus with a coefficient other than 0 and
    # +-1, so the reduction's general pairs first run at r = 105
    ctx = field_init(105, 1)
    assert {abs(m) for m in ctx.modulus} == {0, 1, 2}
    rng = random.Random(105)
    for _ in range(4):
        a, b = (ctx.from_fractions(
            [Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 9))
             for _ in range(ctx.degree)]) for _ in range(2))
        _assert_schoolbook(a, b)
        _assert_schoolbook(a, ctx.zeta)


def test_cancelling_products_and_sums_come_back_normalised(factorials):
    # an integral product or sum skips the gcd pass; one whose
    # denominators cancel must still come back in lowest terms:
    # [k] * 1/[k] is 1 over 1 at composite levels too, where 1/[k] has a
    # denominator, and every product or sum equals its own
    # renormalisation; at the levels of degree below 16
    levels = [r for r in range(3, 40) if field_init(r, 1).degree < 16]
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
        fact, inv_fact = factorials(ctx)
        values = [ctx.inverse_quantum_integer(k) for k in range(1, r)]
        values += inv_fact + fact
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


def _units(r):
    return [s for s in range(1, 2 * r) if math.gcd(s, 2 * r) == 1]


def _draw_galois_case(data):
    """(a, b, s, target context): two elements of one context and an
    automorphism exponent, mapped into a context of the same level."""
    r, q = data.draw(st.sampled_from(LEVELS))
    ctx = field_init(r, q)
    target = field_init(r, data.draw(st.sampled_from(
        [t for t in range(1, 2 * r) if math.gcd(r, t) == 1])))
    s = data.draw(st.sampled_from(_units(r))) \
        + 2 * r * data.draw(st.integers(-2, 2))
    return _random_element(ctx, data), _random_element(ctx, data), s, target


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_galois_is_a_ring_map(data):
    a, b, s, target = _draw_galois_case(data)
    image = a.galois(s, target)
    assert image.ctx is target
    assert (a + b).galois(s, target) == image + b.galois(s, target)
    assert (a * b).galois(s, target) == image * b.galois(s, target)
    # the result is normalised: it equals its own renormalisation
    again = Cyc(target, image.num, image.den)
    assert (image.num, image.den) == (again.num, again.den)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_galois_maps_compose(data):
    a, _, s, target = _draw_galois_case(data)
    t = data.draw(st.sampled_from(_units(a.ctx.r)))
    assert a.galois(t, a.ctx).galois(s, target) == a.galois(s * t, target)
    assert a.galois(1, a.ctx) == a


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_galois_evaluates_at_a_power_of_the_root(data):
    a, _, s, target = _draw_galois_case(data)
    r = a.ctx.r
    assert a.galois(2 * r - 1, a.ctx) == a.conjugate()
    # numeric_eval reads x as exp(i pi / r), so sigma_s(a) reads a at
    # exp(i pi s / r)
    with mpmath.workdps(30):
        root = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi * s / r)
        want = sum(c * root ** k for k, c in enumerate(a.num)) / a.den
        got = numeric_eval(a.galois(s, target), 25)
        assert abs(complex(got) - complex(want)) < 1e-15 * (1 + abs(want))


def test_galois_needs_a_unit_at_the_same_level():
    a = field_init(5, 1).zeta
    for s in (0, 2, 5, 10, -4):
        with pytest.raises(ValueError):
            a.galois(s, field_init(5, 1))
    with pytest.raises(ValueError):
        a.galois(1, field_init(7, 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_string_round_trip(data):
    r, q = data.draw(st.sampled_from(LEVELS))
    ctx = field_init(r, q)
    a = _random_element(ctx, data)
    assert ctx.from_fractions([Fraction(s) for s in a.to_strings()]) == a


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
        ctx.one / 0
    with pytest.raises(ZeroDivisionError):
        ctx.one / Fraction(0)
