import json
from fractions import Fraction

import workloads


def _record(coeffs, code=0):
    exact = [f"{c.numerator}/{c.denominator}" for c in map(Fraction, coeffs)]
    return {"code": code, "stdout": json.dumps({"exact": exact}) + "\n"}


def test_cyclotomic_polynomials():
    assert workloads.cyclotomic_polynomial(1) == [-1, 1]
    assert workloads.cyclotomic_polynomial(6) == [1, -1, 1]
    assert workloads.cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
    assert workloads.cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    assert len(workloads.cyclotomic_polynomial(62)) - 1 == 30


def test_galois_image_by_hand():
    # Q[x]/Phi_6, Phi_6 = x^2 - x + 1, so x^3 = -1.  Under x -> x^5:
    # x maps to x^5 = -x^2 = -(x - 1) = 1 - x, and 1/2 + 3x to 7/2 - 3x.
    half = Fraction(1, 2)
    assert workloads.galois_image([0, 1], 3, 5) == [1, -1]
    assert workloads.galois_image([half, 3], 3, 5) == [Fraction(7, 2), -3]
    # x -> x^1 is the identity; x -> x^7 is too, as x^6 = 1
    value = [Fraction(2, 3), Fraction(-5, 7)]
    assert workloads.galois_image(value, 3, 1) == value
    assert workloads.galois_image(value, 3, 7) == value


def test_galois_oracle_rejects_a_perturbed_value():
    # Q[x]/Phi_8 (r = 4): x -> x^3 sends 1 + x + 2x^3 to 1 + x^3 + 2x^9,
    # and x^9 = x, so the image is 1 + 2x + x^3.
    base = [1, 1, 0, 2]
    image = [1, 2, 0, 1]
    expect = (lambda v: workloads.galois_image(v, 4, 3))
    good = [_record(base), _record(image)]
    assert workloads._compare(good, [(1, 0, expect)]) == set()
    bad = [_record(base), _record([1, 2, Fraction(1, 99), 1])]
    assert workloads._compare(bad, [(1, 0, expect)]) == {1}


def test_a_failed_reference_fails_the_dependent_call():
    records = [_record([1], code=3), _record([1])]
    assert workloads._compare(records, [(1, 0, workloads._same)]) == {0, 1}
    garbled = [_record([1]), {"code": 0, "stdout": "not json"}]
    assert workloads._compare(garbled, [(1, 0, workloads._same)]) == {1}
