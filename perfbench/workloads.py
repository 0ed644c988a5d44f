"""The four workloads: the ``tv`` calls of one pass and their oracles.

A workload's ``check`` takes the records of one pass (see worker.py) and
returns the indices of the calls that failed: a crash, a nonzero exit,
unparsable output, or an exact value that breaks the workload's oracle.
The oracles never use ``tvcalc``; field elements are compared through
this module's own integer polynomial arithmetic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs

NAMES = ("census", "invariant_table", "grown_family", "field_scale")

# census sizes timed in every pass; n = 3 takes about 36 s, more than a
# whole run, and its corpus is checked by tests/test_bench_run.py instead
CENSUS_CALLS = ((1, False), (2, False), (2, True))


@dataclass
class Workload:
    calls: list                       # argv lists for tvcalc.cli.main
    check: Callable[[list], set]      # pass records -> failed call indices
    kernel: str = "int"               # calibration kernel, see calibrate.py


# -- exact values ------------------------------------------------------------------

def cyclotomic_polynomial(n: int) -> list:
    """Integer coefficients of Phi_n, ascending: x^n - 1 divided by
    Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_exact(poly, cyclotomic_polynomial(d))
    return poly


def _divide_exact(num: list, den: list) -> list:
    """Quotient of integer polynomials, den monic and dividing num."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        quot[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num):
        raise ArithmeticError("inexact division")
    return quot


def galois_image(coeffs: list, r: int, power: int) -> list:
    """Image of sum c_k x^k under x -> x^power in Q[x]/Phi_2r.

    Coefficients are Fractions; they are brought to a common denominator
    so that the reduction runs on integers.
    """
    modulus = cyclotomic_polynomial(2 * r)
    degree = len(modulus) - 1
    den = math.lcm(*(c.denominator for c in coeffs))
    acc = [0] * (2 * r)
    for k, c in enumerate(coeffs):
        acc[k * power % (2 * r)] += int(c * den)
    # reduce from the top with the monic modulus
    for k in range(len(acc) - 1, degree - 1, -1):
        c = acc[k]
        if c:
            for i, m in enumerate(modulus):
                acc[k - degree + i] -= c * m
    return [Fraction(c, den) for c in acc[:degree]]


def exact_value(record) -> list:
    """Coefficients of a ``compute --json`` result as Fractions."""
    return [Fraction(s) for s in json.loads(record["stdout"])["exact"]]


def _value_or_none(record):
    if record["code"] != 0:
        return None
    try:
        return exact_value(record)
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return None


def _compare(records, pairs) -> set:
    """Failed indices for (index, reference index, expected-from-reference)
    triples: a call fails when it or its reference has no value, or when
    its value differs from the expectation."""
    failed = set()
    values = [_value_or_none(rec) for rec in records]
    failed.update(i for i, v in enumerate(values) if v is None)
    for index, ref, expect in pairs:
        if values[index] is None or values[ref] is None:
            failed.add(index)
        elif values[index] != expect(values[ref]):
            failed.add(index)
    return failed


def _same(value):
    return value


# -- workloads ----------------------------------------------------------------------

def _compute(path, r, q=1, algorithm=None):
    argv = ["compute", "--file", str(path), "--r", str(r), "--q", str(q),
            "--json"]
    if algorithm:
        argv += ["--algorithm", algorithm]
    return argv


def _write(directory: Path, name: str, text: str) -> Path:
    path = directory / name
    path.write_text(text)
    return path


def census(seed: int, directory: Path) -> Workload:
    calls = []
    expected = []
    for tets, only_one_vertex in CENSUS_CALLS:
        out = f"census_t{tets}{'_v1' if only_one_vertex else ''}"
        argv = ["census", "--tets", str(tets), "--out", out]
        if only_one_vertex:
            argv.append("--one-vertex")
        calls.append(argv)
        texts = [t for t in inputs.census_texts(tets)
                 if not only_one_vertex or inputs.one_vertex(t)]
        expected.append({inputs.census_name(tets, i): t
                         for i, t in enumerate(texts)})

    def check(records):
        return {i for i, (rec, want) in enumerate(zip(records, expected))
                if rec["code"] != 0 or rec["files"] != want}

    return Workload(calls, check)


def invariant_table(seed: int, directory: Path) -> Workload:
    q_choice = inputs.invariant_q_choices(seed)
    calls = []
    pairs = []
    for tets in sorted(inputs.CENSUS_COUNTS):
        for index, text in enumerate(inputs.census_texts(tets)):
            path = _write(directory, inputs.census_name(tets, index), text)
            for r in inputs.INVARIANT_LEVELS:
                q = q_choice[r]
                calls.append(_compute(path, r))
                calls.append(_compute(path, r, q))
                pairs.append((len(calls) - 1, len(calls) - 2,
                              lambda v, r=r, q=q: galois_image(v, r, q)))
    return Workload(calls, lambda records: _compare(records, pairs))


def grown_family(seed: int, directory: Path) -> Workload:
    calls = []
    pairs = []
    for walk, (_, base_text, members) in enumerate(
            inputs.grown_family(seed)):
        base = _write(directory, f"walk{walk}_base.tri", base_text)
        for r in inputs.GROWN_LEVELS:
            calls.append(_compute(base, r))
            ref = len(calls) - 1
            for tets, text in members:
                path = _write(directory, f"walk{walk}_t{tets}.tri", text)
                calls.append(_compute(path, r))
                pairs.append((len(calls) - 1, ref, _same))
    return Workload(calls, lambda records: _compare(records, pairs))


def field_scale(seed: int, directory: Path) -> Workload:
    calls = []
    pairs = []
    texts = [t for t in inputs.census_texts(1) if inputs.one_vertex(t)]
    paths = [_write(directory, f"one_tet_{i}.tri", t)
             for i, t in enumerate(texts)]
    for r in inputs.FIELD_LEVELS:
        for path in paths:
            calls.append(_compute(path, r))
            calls.append(_compute(path, r, algorithm="naive"))
            pairs.append((len(calls) - 2, len(calls) - 1, _same))
    # its time is large-integer Fraction arithmetic, which the int
    # kernel's speed tracks poorly
    return Workload(calls, lambda records: _compare(records, pairs),
                    kernel="fraction")


_BY_NAME = {"census": census, "invariant_table": invariant_table,
            "grown_family": grown_family, "field_scale": field_scale}


def build(name: str, seed: int, directory: Path) -> Workload:
    """The workload's calls for ``seed``, with its inputs written under
    ``directory``."""
    return _BY_NAME[name](seed, directory)
