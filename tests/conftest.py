import pytest

from tvcalc import build_skeleton, enumerate_census
from tvcalc.cyclotomic import cyclotomic_polynomial


@pytest.fixture(scope="session")
def census1():
    return list(enumerate_census(1))


@pytest.fixture(scope="session")
def census2():
    return list(enumerate_census(2))


@pytest.fixture(scope="session")
def one_vertex_corpus(census1, census2):
    return [tri for tri in census1 + census2
            if build_skeleton(tri).v == 1]


@pytest.fixture(scope="session")
def z2hs1():
    return list(enumerate_census(1, one_vertex=True, z2_homology_sphere=True))


@pytest.fixture(scope="session")
def z2hs2():
    return list(enumerate_census(2, one_vertex=True, z2_homology_sphere=True))


def _factorial_tables(ctx):
    """[i]! and 1/[i]! for i = 0..r-1, by plain products of the context's
    [k] and 1/[k]: the oracle for the factorial forms of the weights,
    which the field layer does not keep."""
    fact, inv_fact = [ctx.one], [ctx.one]
    for k in range(1, ctx.r):
        fact.append(fact[-1] * ctx.quantum_integer(k))
        inv_fact.append(inv_fact[-1] * ctx.inverse_quantum_integer(k))
    return fact, inv_fact


@pytest.fixture(scope="session")
def factorials():
    """``factorials(ctx)`` is the pair of lists ([i]!, 1/[i]!), i < r."""
    return _factorial_tables


def _x_power_table(r):
    """x^j reduced by Phi_2r for j = 0..2r-1, one shift at a time: the
    reference for the field layer's rotations, which fold x^r = -1 and
    reduce once."""
    modulus = cyclotomic_polynomial(2 * r)
    degree = len(modulus) - 1
    vec = [1] + [0] * (degree - 1)
    table = [tuple(vec)]
    for _ in range(1, 2 * r):
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            vec = [c - top * m for c, m in zip(vec, modulus)]
        table.append(tuple(vec))
    return table


@pytest.fixture(scope="session")
def x_powers():
    """``x_powers(r)`` is the list of x^j mod Phi_2r, j < 2r."""
    return _x_power_table
