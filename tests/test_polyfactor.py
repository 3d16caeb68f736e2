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


def spy_on_the_modular_step(monkeypatch):
    """The polynomials that reach the distinct-degree step _ddf."""
    seen = []
    ddf = pf._ddf
    monkeypatch.setattr(pf, "_ddf", lambda f, p: seen.append(f) or ddf(f, p))
    return seen


F = Fraction


@pytest.mark.parametrize("coeffs, count", [
    ([F(1, 6), F(5, 6), 1], 2),  # (t + 1/2)(t + 1/3): 6t^2 + 5t + 1 once cleared
    ([-6, 1, 1], 2),  # (t - 2)(t + 3)
    ([F(-3, 4), -1, 1], 2),  # (t + 1/2)(t - 3/2)
    ([F(2, 9), -1, 1], 2),  # (t - 1/3)(t - 2/3)
    ([-2, 0, 1], 1),  # D = 8, not a square
    ([F(1, 3), F(1, 2), 1], 1),  # 6t^2 + 3t + 2, D = -39 < 0
    ([1, 1, 1], 1),  # D = -3
    ([5, 0, 1], 1),  # D = -20
])
def test_a_squarefree_quadratic_is_factored_in_closed_form(monkeypatch, coeffs, count):
    seen = spy_on_the_modular_step(monkeypatch)
    got = pf.factor(coeffs)
    assert got == sympy_factors(coeffs) and len(got) == count
    assert seen == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lam, mu", [(2, -3), (F(1, 2), F(-5, 3)), (0, 7)])
def test_equal_powers_of_two_linear_factors_take_no_modular_step(monkeypatch, n, lam, mu):
    # Yun leaves (t - lam)(t - mu), a split quadratic, as the part of multiplicity n
    seen = spy_on_the_modular_step(monkeypatch)
    coeffs = monic(product(*[[-lam, 1], [-mu, 1]] * n))
    assert pf.factor(coeffs) == sympy_factors(coeffs)
    assert seen == []


def count_gcds(monkeypatch):
    calls = []
    gcd = pf._gcd
    monkeypatch.setattr(pf, "_gcd", lambda f, g, m=0: calls.append(m) or gcd(f, g, m))
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("lam", [3, F(-7, 4)])
def test_a_power_of_a_linear_factor_takes_no_modular_step(monkeypatch, n, lam):
    # and one gcd: the square-free rest t - lam is linear at once, so Yun
    # takes it off with its multiplicity and stops
    seen, gcds = spy_on_the_modular_step(monkeypatch), count_gcds(monkeypatch)
    coeffs = monic(product(*[[-lam, 1]] * n))
    assert pf.factor(coeffs) == sympy_factors(coeffs) == [monic(product(*[[-lam, 1]] * n))]
    assert seen == [] and gcds == [0]


def sympy_yun(f):
    """[(g_i, i)] of sympy's square-free decomposition of the integer f:
    primitive parts with a positive lc, low-to-high coefficients."""
    _, parts = Poly(list(reversed(f)), T, domain="ZZ").sqf_list()
    return [([int(c) for c in reversed(g.primitive()[1].all_coeffs())], m) for g, m in parts]


@pytest.mark.parametrize("parts", [
    [([0, 1], 1), ([-2, 1], 3)],  # t (t - 2)^3
    [([0, 1], 3), ([5, 1], 2)],  # t^3 (t + 5)^2
    [([0, 1], 2), ([-3, 1], 8)],  # t^2 (t - 3)^8
    [([1, 0, 1], 1), ([-2, 1], 3)],  # the rest turns linear after g_1 = t^2 + 1
    [([-1, 1], 2), ([3, 1], 5)],  # after g_1 = 1 and g_2 = t - 1
    [([1, 2], 1), ([-2, 3], 4)],  # (2t + 1)(3t - 2)^4: rational roots
    [([1, 1, 1], 2), ([-1, 1], 3), ([4, 1], 6)],  # two rounds, then a linear rest
], ids=["t(t-2)^3", "t^3(t+5)^2", "t^2(t-3)^8", "(t2+1)(t-2)^3", "(t-1)^2(t+3)^5",
        "(2t+1)(3t-2)^4", "(t2+t+1)^2(t-1)^3(t+4)^6"])
def test_yun_stopped_at_a_linear_rest_matches_sympy(parts):
    f = product(*(g for g, m in parts for _ in range(m)))
    k = next(i for i, c in enumerate(f) if c)
    assert pf._yun(pf._primitive(f[k:])) == sympy_yun(pf._primitive(f[k:]))
    assert pf.factor(monic(f)) == sympy_factors(monic(f))


@given(st.fractions(-50, 50, max_denominator=12), st.fractions(-50, 50, max_denominator=12),
       st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_products_of_linear_powers_match_sympy(lam, mu, n):
    coeffs = monic(product(*[[-lam, 1]] * n, *[[-mu, 1]] * (n + 1)))
    assert pf.factor(coeffs) == sympy_factors(coeffs)


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
