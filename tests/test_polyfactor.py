"""Factorization over Q: sympy's factor_list is the oracle, factors and order."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Poly, Rational, Symbol

from binarycubics import polyfactor as pf

ROOT = Path(__file__).resolve().parent.parent
T = Symbol("t")


def sympy_factors(coeffs):
    """Monic prime-power factors from sympy, low-to-high coefficients."""
    coeffs = [Fraction(c) for c in coeffs]
    poly = Poly([Rational(c.numerator, c.denominator) for c in reversed(coeffs)], T, domain="QQ")
    _, factors = poly.factor_list()
    return [[Fraction(c.p, c.q) for c in reversed((f.monic() ** e).all_coeffs())]
            for f, e in factors]


def product(*polys):
    out = [1]
    for f in polys:
        new = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] += a * b
        out = new
    return out


def monic(f):
    return [Fraction(c, f[-1]) for c in f]


T4_PLUS_1 = [1, 0, 0, 0, 1]
T4_MINUS_10T2_PLUS_1 = [1, 0, -10, 0, 1]
PHI12 = [1, 0, -1, 0, 1]

integer_factor = st.builds(
    lambda low, lc: low + [lc],
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.sampled_from([1, 2, 3, -1, 5]))
factor_powers = st.lists(st.tuples(integer_factor, st.integers(1, 3)), max_size=4)


@given(factor_powers)
@example([([1, 0, 1], 2), ([-3, 1], 1)])  # (t^2 + 1)^2 (t - 3)
@example([(T4_PLUS_1, 1), ([0, 1], 2), ([1, 2], 1)])
@settings(max_examples=150, deadline=None)
def test_factors_and_order_match_sympy(powers):
    f = monic(product(*(g for g, m in powers for _ in range(m))))
    assert pf.factor(f) == sympy_factors(f)


@pytest.mark.parametrize("factors", [
    [T4_PLUS_1], [T4_MINUS_10T2_PLUS_1], [PHI12],
    [T4_MINUS_10T2_PLUS_1, T4_PLUS_1],
    [[-3, 1], PHI12, T4_PLUS_1],
], ids=["t4+1", "t4-10t2+1", "phi12", "t4-10t2+1 times t4+1", "(t-3) phi12 (t4+1)"])
def test_irreducible_over_q_but_reducible_mod_every_prime(factors):
    for g in (g for g in factors if len(g) == 5):
        # no prime keeps g irreducible, so only recombination can find it
        for p in islice(pf._odd_primes(), 12):
            if pf._squarefree_mod(g, p):
                assert sum((len(h) - 1) // d for h, d in pf._ddf(g, p)) >= 2, p
    coeffs = product(*factors)
    want = [[Fraction(c) for c in g] for g in factors]  # written in sympy's order
    assert pf.factor(coeffs) == want == sympy_factors(coeffs)


@pytest.mark.parametrize("k", [1, 3])
def test_powers_of_t(k):
    assert pf.factor([0] * k + [1]) == [[Fraction(0)] * k + [Fraction(1)]]


def test_constant_one_has_no_factors():
    assert pf.factor([1]) == [] == sympy_factors([1])


def test_verify_sized_coefficients():
    # minimal polynomials met by verify reach coefficients near 10^19
    a, b = 11 * 10**18 + 7, Fraction(-3, 5)
    coeffs = product([-a, 1], [-a, 1], [-b, 1])
    assert pf.factor(coeffs) == [[-b, 1], [a * a, -2 * a, 1]] == sympy_factors(coeffs)


@pytest.mark.parametrize("coeffs", [[], [2], [1, 2], [Fraction(1, 2), Fraction(1, 2)], [0]])
def test_non_monic_input_raises_value_error(coeffs):
    with pytest.raises(ValueError, match="monic"):
        pf.factor(coeffs)


def test_inexact_coefficients_raise_type_error():
    with pytest.raises(TypeError):
        pf.factor([0.5, 1])


def test_factors_that_do_not_multiply_back_raise(monkeypatch):
    monkeypatch.setattr(pf, "_zassenhaus", lambda f, rng: [[1, 1]])
    with pytest.raises(ArithmeticError, match="do not multiply back"):
        pf.factor([-2, 1])


DECOMPOSE_WITHOUT_SYMPY = """
import json, sys
from binarycubics import cubics, quiver as qv, ratlinalg as rl
factored = []
factor = qv.factor
qv.factor = lambda coeffs: factored.append(len(coeffs) - 1) or factor(coeffs)
split = qv.decompose_certified(qv.direct_sum(cubics.rn_family(2, 1), cubics.rn_family(2, 3)))
I, Z, C = rl.identity(2), rl.zeros(2, 2), rl.mat([[0, -1], [1, 0]])
maps = {"alpha1": rl.vstack(I, Z), "alpha2": rl.vstack(Z, I),
        "alpha3": rl.vstack(I, I), "alpha4": rl.vstack(I, C)}
field = qv.Representation(cubics.build("d4hat"), {"1": 2, "2": 2, "3": 2, "4": 2, "5": 4}, maps)
kept = qv.decompose_certified(field)
print(json.dumps({"split": [c for _, c in split], "kept": [c for _, c in kept],
                  "factored": factored, "sympy": "sympy" in sys.modules}))
"""


def test_decomposition_runs_without_sympy():
    """The engine factors minimal polynomials without importing sympy."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", DECOMPOSE_WITHOUT_SYMPY], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["split"] == [True, True]  # R_2(1) + R_2(3) splits
    assert report["kept"] == [True]  # End = Q(i): M is cyclic, so certified unsplit
    assert report["factored"]  # the factorization did run
    assert report["sympy"] is False
