"""Character engine tests.

Derived expectations are computed by independent oracles defined in
this file (series DP, brute-force monomial expansion, exponent
enumeration of a closed form, the sampled tail of a localization);
paper-sourced values are frozen literals.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binarycubics import catalog, characters as ch


def series_coefficients(steps, n):
    """Coefficients of prod_s 1/(1 - t^s) up to t^n, by coin-counting DP."""
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for s in steps:
        for i in range(s, n + 1):
            coeffs[i] += coeffs[i - s]
    return coeffs


def expand_s_table(lo, hi):
    """Brute-force monomial expansion of the closed form of [S] on a box."""
    table = {}
    top = max(hi, 0)
    for n1, n2 in ((0, 0), (6, 3)):
        for a in range(top // 3 + 2):
            for b in range(top // 4 + 2):
                for c in range(top // 6 + 2):
                    w = (n1 + 3 * a + 4 * b + 6 * c, n2 + 2 * b + 6 * c)
                    if lo <= w[1] <= w[0] <= hi:
                        table[w] = table.get(w, 0) + 1
    return table


def enumerated_coefficient(form, lam):
    """Coefficient of a closed form by enumerating every exponent vector:
    each sloped exponent over its range, then each scalar exponent."""
    if lam[0] < lam[1]:
        return 0
    sloped = [mu for mu in form.denominators if mu[0] > mu[1]]
    steps = [2 * mu[0] for mu in form.denominators if mu[0] == mu[1]]

    def scalar(steps, rem):
        if not steps:
            return 1 if rem == 0 else 0
        if steps[0] < 0:
            steps, rem = [-s for s in steps], -rem
        if rem < 0:
            return 0
        return sum(scalar(steps[1:], rem - c * steps[0]) for c in range(rem // steps[0] + 1))

    def count(k, gap, rem):
        if k == len(sloped):
            if gap != 0:
                return 0
            if form.periodic is not None:
                return 1 if rem % (2 * form.periodic[0]) == 0 else 0
            return scalar(steps, rem)
        d, s = sloped[k][0] - sloped[k][1], sloped[k][0] + sloped[k][1]
        return sum(count(k + 1, gap - a * d, rem - a * s) for a in range(gap // d + 1))

    total = 0
    for sign, nu_ in form.numerator:
        gap = (lam[0] - lam[1]) - (nu_[0] - nu_[1])
        if gap >= 0:
            total += sign * count(0, gap, (lam[0] + lam[1]) - (nu_[0] + nu_[1]))
    return total


weights = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


def test_nu_matches_series_expansion():
    dp = series_coefficients([2, 3], 60)
    assert [ch.nu(i) for i in range(61)] == dp
    assert ch.nu(-1) == ch.nu(-3) == 0


@pytest.mark.parametrize("i, expected", [(0, 1), (1, 0), (6, 2), (-3, 0)])
def test_nu_frozen(i, expected):
    assert ch.nu(i) == expected


def test_nu_closed_form_counts_pairs():
    for i in range(5000):
        pairs = sum(1 for b in range(i // 3 + 1) if (i - 3 * b) % 2 == 0)
        assert ch.nu(i) == pairs, i


@given(weights)
def test_dual_and_fourier_weight_involutions(lam):
    assert ch.dual(ch.dual(lam)) == lam
    assert ch.fourier_weight(ch.fourier_weight(lam)) == lam
    if ch.is_dominant(lam):
        assert ch.is_dominant(ch.dual(lam))
        assert ch.is_dominant(ch.fourier_weight(lam))


class TestClosedForms:
    @pytest.mark.parametrize("lam, expected", [
        ((0, 0), 1), ((3, 0), 1), ((4, 2), 1), ((6, 3), 1),
        ((1, 0), 0), ((3, -3), 0), ((-6, -9), 0), ((-6, -6), 0),
    ])
    def test_s_values(self, lam, expected):
        assert ch.S_FORM.coefficient(lam) == expected

    @pytest.mark.parametrize("lam, expected", [
        ((3, -3), 1), ((-1, -5), 0), ((-6, -6), 1), ((-6, -9), 1), ((0, 0), 1),
    ])
    def test_sdelta_values(self, lam, expected):
        assert ch.SDELTA_FORM.coefficient(lam) == expected

    @pytest.mark.parametrize("lam, expected", [
        ((3, 0), 0), ((-6, -9), 1), ((-6, -6), 1), ((0, 0), 0),
    ])
    def test_e_values(self, lam, expected):
        assert ch.E_FORM.coefficient(lam) == expected

    def test_truncate_s_against_expansion(self):
        table = ch.truncate(ch.from_closed_form(ch.S_FORM), -2, 8)
        assert table == expand_s_table(-2, 8)
        assert table[(0, 0)] == 1
        assert table[(3, 0)] == 1
        assert table[(4, 2)] == 1
        assert table[(6, 3)] == 1

    def test_non_dominant_is_zero(self):
        assert ch.S_FORM.coefficient((0, 5)) == 0

    @given(weights)
    @settings(max_examples=40)
    def test_character_zero_off_dominant(self, lam):
        s = ch.from_closed_form(ch.S_FORM)
        if lam[0] < lam[1]:
            assert s.mult(lam) == 0

    def test_sdelta_support_congruence(self):
        for lam in ch.box_weights(-15, 15):
            if ch.SDELTA_FORM.coefficient(lam) != 0:
                assert (lam[0] + lam[1]) % 3 == 0

    def test_rejects_periodic_with_scalar_denominator(self):
        with pytest.raises(ch.InvalidClosedForm):
            ch.ClosedFormCharacter(((1, (0, 0)),), ((6, 6),), periodic=(6, 6))

    def test_rejects_non_dominant_denominator(self):
        with pytest.raises(ch.InvalidClosedForm):
            ch.ClosedFormCharacter(((1, (0, 0)),), ((0, 3),))

    def test_rejects_mixed_sign_scalars(self):
        with pytest.raises(ch.InvalidClosedForm):
            ch.ClosedFormCharacter(((1, (0, 0)),), ((2, 2), (-2, -2)))

    @pytest.mark.parametrize("args", [
        (((1, (0.5, 0)),),),  # would count coefficient((3.5, 0)) as 1
        (((1, (0, 0)),), ((3.0, 0),)),
        (((1, (0, 0)),), ((3, 0), (2.0, 2.0))),
        (((1, (0, 0)),), ((3, 0),), (6.0, 6.0)),
        (((1, ("6", 3)),),),
        (((True, (0, 0)),),),
        (((1.0, (0, 0)),),),
    ], ids=["float numerator", "float sloped", "float scalar", "float periodic", "str",
            "bool sign", "float sign"])
    def test_rejects_non_integer_components_at_construction(self, args):
        with pytest.raises(TypeError):
            ch.ClosedFormCharacter(*args)

    def test_accepts_numpy_integer_components(self):
        form = ch.ClosedFormCharacter(((np.int64(1), (np.int64(0), 0)),),
                                      ((np.int32(3), 0), (4, 2)), (np.int64(6), 6))
        assert form.coefficient((3, 0)) == ch.SDELTA_FORM.coefficient((3, 0)) == 1


# sloped denominator weights: gap 1..6, either sign of mu1 + mu2
sloped_weights = st.tuples(st.integers(-6, 6), st.integers(1, 6)).map(
    lambda t: (t[0], t[0] - t[1]))
numerators = st.lists(
    st.tuples(st.sampled_from((1, -1)), st.tuples(st.integers(-8, 8), st.integers(-8, 8))),
    min_size=1, max_size=3).map(tuple)


@st.composite
def closed_forms(draw):
    """0-3 sloped weights, then 0-2 scalar weights of one sign or one
    periodic factor, over 1-3 signed numerator terms."""
    n = draw(st.integers(0, 3))
    sloped = tuple(draw(st.lists(sloped_weights, min_size=n, max_size=n)))
    leaf = draw(st.integers(0, 3))  # 0-2 scalar weights, 3: periodic
    if leaf == 3:
        return ch.ClosedFormCharacter(draw(numerators), sloped, (draw(st.integers(1, 6)),) * 2)
    sign = draw(st.sampled_from((1, -1)))
    scalars = tuple((sign * m, sign * m)
                    for m in draw(st.lists(st.integers(1, 6), min_size=leaf, max_size=leaf)))
    return ch.ClosedFormCharacter(draw(numerators), sloped + scalars)


gap_weights = st.tuples(st.integers(-40, 40), st.integers(0, 90)).map(
    lambda t: (t[0] + t[1], t[0]))


def reachable_weights(form):
    """nu + sum a_mu*mu (+ t*rho) for a numerator weight nu, exponents
    a_mu in 0..4 and t in -4..4: gap <= 88, and the coefficient there is
    often nonzero."""
    rho = form.periodic or (0, 0)
    k = len(form.denominators)
    return st.tuples(
        st.sampled_from([nu_ for _, nu_ in form.numerator]),
        st.lists(st.integers(0, 4), min_size=k, max_size=k),
        st.integers(-4, 4),
    ).map(lambda t: (
        t[0][0] + sum(a * mu[0] for a, mu in zip(t[1], form.denominators)) + t[2] * rho[0],
        t[0][1] + sum(a * mu[1] for a, mu in zip(t[1], form.denominators)) + t[2] * rho[1]))


class TestCoefficientAgainstEnumeration:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_forms(self, data):
        form = data.draw(closed_forms())
        lam = data.draw(st.one_of(gap_weights, reachable_weights(form)))
        assert form.coefficient(lam) == enumerated_coefficient(form, lam)

    @pytest.mark.parametrize("form", [ch.S_FORM, ch.SDELTA_FORM, ch.E_FORM],
                             ids=["S", "Sdelta", "E"])
    @pytest.mark.parametrize("lam", [
        (600, 0), (450, -150), (301, -299), (-6, -606), (-100, -700), (597, 3),
    ])
    def test_catalog_forms_at_large_gaps(self, form, lam):
        assert form.coefficient(lam) == enumerated_coefficient(form, lam)

    def test_large_weight_of_p(self):
        # recorded from the exponent enumeration, which takes seconds here
        assert catalog.character_of("P").mult((4800, -4800)) == 1601


class TestIntegralWeights:
    @pytest.mark.parametrize("lam", [(6.7, 3.2), (6.0, 3), (Fraction(13, 2), 3), (True, False)])
    def test_mult_rejects_non_integral_weight(self, lam):
        with pytest.raises(TypeError):
            catalog.character_of("S").mult(lam)

    @pytest.mark.parametrize("lam", [(3, 0, 99), (3,), ()])
    def test_mult_rejects_weights_without_two_components(self, lam):
        with pytest.raises(ValueError, match="two components"):
            catalog.character_of("S").mult(lam)

    def test_mult_accepts_numpy_integers(self):
        assert catalog.character_of("S").mult((np.int64(6), np.int32(3))) == 1


class TestTwistedCubicCounts:
    @pytest.mark.parametrize("j, lam, expected", [
        (0, (-1, -5), 1), (0, (3, 0), 0), (0, (-6, -9), 1), (0, (-2, -4), 0),
        (2, (-5, -9), 1), (1, (3, -1), 0),
        (0, (0, -3), 0), (0, (-3, -6), 0),
    ])
    def test_frozen(self, j, lam, expected):
        assert ch.mult_d(j, lam) == expected

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            ch.mult_d(3, (0, 0))

    def test_diagonal_patterns(self):
        for a in range(-40, 15):
            assert ch.mult_d(0, (a, a)) == 0
            assert ch.mult_d(1, (a, a)) == (1 if a % 6 == 1 and a <= -5 else 0)
            assert ch.mult_d(2, (a, a)) == (1 if a % 6 == 5 and a <= -7 else 0)

    def test_support_congruence(self):
        for j in (0, 1, 2):
            for lam in ch.box_weights(-12, 12):
                if ch.mult_d(j, lam) != 0:
                    assert (lam[0] + lam[1] + j) % 3 == 0

    @pytest.mark.parametrize("a, expected", [(6, -1), (5, 1), (4, 0)])
    def test_m_diag_frozen(self, a, expected):
        assert ch.m_diag(a) == expected

    def test_m_diag_matches_nu_difference(self):
        for a in range(-10, 61):
            assert ch.m_diag(a) == ch.nu(a - 5) - ch.nu(a - 6)


class TestCombinators:
    def test_fourier_frozen(self):
        s = ch.from_closed_form(ch.S_FORM)
        assert ch.fourier(s).mult((-6, -6)) == 1
        d0 = ch.Character(lambda lam: ch.mult_d(0, lam))
        assert ch.fourier(d0).mult((3, 0)) == 1

    def test_fourier_involution_on_box(self):
        for char in (ch.from_closed_form(ch.S_FORM),
                     ch.Character(lambda lam: ch.mult_d(1, lam))):
            double = ch.fourier(ch.fourier(char))
            assert ch.first_disagreement(char, double, -12, 12) is None

    def test_fourier_matches_e(self):
        s = ch.from_closed_form(ch.S_FORM)
        e = ch.from_closed_form(ch.E_FORM)
        assert ch.first_disagreement(ch.fourier(s), e, -15, 15) is None

    def test_shift(self):
        s = ch.from_closed_form(ch.S_FORM)
        assert ch.shift(s, (6, 6)).mult((6, 6)) == 1
        assert ch.first_disagreement(ch.shift(s, (0, 0)), s, -10, 10) is None

    def test_sub_self_is_zero(self):
        s = ch.from_closed_form(ch.S_FORM)
        for lam in ch.box_weights(-8, 8):
            assert (s - s).mult(lam) == 0

    def test_localize_s(self):
        loc = ch.localize(ch.from_closed_form(ch.S_FORM))
        assert loc.mult((-6, -6)) == 1
        sdelta = ch.from_closed_form(ch.SDELTA_FORM)
        assert ch.first_disagreement(loc, sdelta, -12, 12) is None

    def test_localize_kills_lower_supports(self):
        for name in ("E", "D0", "D1", "D2"):
            loc = ch.localize(catalog.character_of(name))
            assert all(loc.mult(lam) == 0 for lam in ch.box_weights(-30, 30)), name

    def test_localize_bound_is_sharp(self):
        # N(-6, -12) = 3; one shift fewer is still off the stable tail
        s = ch.from_closed_form(ch.S_FORM)
        assert s.mult((6, 0)) == 1
        assert s.mult((12, 6)) == s.mult((18, 12)) == 2
        assert ch.localize(s).mult((-6, -12)) == 2

    def test_mult_caches_consistently(self):
        s = ch.from_closed_form(ch.S_FORM)
        assert s.mult((6, 3)) == s.mult((6, 3)) == 1

    def test_shift_checks_mu_when_built(self):
        with pytest.raises(TypeError):
            ch.shift(ch.Character(lambda lam: 1), (1.5, 0))
        with pytest.raises(TypeError):
            ch.shift(ch.Character(lambda lam: 1), (True, 0))

    def test_non_scalar_shift_keeps_non_dominant_zero(self):
        # (1, 0) - (3, 0) = (-2, 0) is not dominant
        assert ch.shift(ch.Character(lambda lam: 1), (3, 0)).mult((1, 0)) == 0
        assert ch.shift(ch.Character(lambda lam: 1), (3, 0)).mult((3, 0)) == 1

    def test_stacked_combinators_evaluate_each_weight_once(self):
        calls = Counter()

        def fn(lam):
            calls[lam] += 1
            return 7 * lam[0] - lam[1] ** 2

        def direct(lam):
            # the same tree, written out without Character or memo
            def f(mu):
                return 7 * mu[0] - mu[1] ** 2 if mu[0] >= mu[1] else 0
            n = max(0, -((2 * lam[1] - lam[0]) // 6))
            return (f((lam[0] - 3, lam[1])) + f(ch.fourier_weight(lam))
                    - f((lam[0] + 6 * n, lam[1] + 6 * n)) + f((lam[0] - 2, lam[1] - 2)))

        base = ch.Character(fn)
        tree = ch.add(ch.sub(ch.add(ch.shift(base, (3, 0)), ch.fourier(base)), ch.localize(base)),
                      ch.shift(base, (2, 2)))
        table = ch.truncate(tree, -9, 9)
        assert table == {lam: direct(lam) for lam in ch.box_weights(-9, 9) if direct(lam)}
        other = ch.Character(direct)
        assert ch.first_disagreement(tree, other, -9, 9) is None
        assert ch.truncate(tree, -9, 9) == table
        assert calls and max(calls.values()) == 1
        assert all(ch.is_dominant(lam) for lam in calls)


class TestValuesAreIntegers:
    @pytest.mark.parametrize("value", [1.7, 3.0, "3", True, Fraction(3, 1)])
    def test_mult_rejects_non_integer_value(self, value):
        with pytest.raises(TypeError):
            ch.Character(lambda lam: value).mult((0, 0))

    def test_mult_rejects_non_integer_value_nested(self):
        inner = ch.Character(lambda lam: 1.7)
        with pytest.raises(TypeError):
            ch.fourier(inner).mult((0, 0))

    def test_mult_accepts_numpy_integer_value(self):
        value = ch.Character(lambda lam: np.int64(3)).mult((0, 0))
        assert value == 3 and value.__class__ is int

    @pytest.mark.parametrize("lo, hi", [(True, 2), (0, 2.0), (Fraction(0), 2)])
    def test_box_weights_checks_its_bounds_at_the_call(self, lo, hi):
        with pytest.raises(TypeError):
            ch.box_weights(lo, hi)

    def test_box_scans_check_their_bounds(self):
        s = ch.from_closed_form(ch.S_FORM)
        with pytest.raises(TypeError):
            ch.truncate(s, -2.0, 3)
        with pytest.raises(TypeError):
            ch.first_disagreement(s, s, 0, True)
        assert ch.truncate(s, np.int64(0), np.int32(3)) == {(0, 0): 1, (3, 0): 1}


def proven_shift(lam):
    """N(lam) = max(0, ceil((l1 - 2*l2) / 6)), written independently of localize."""
    return max(0, math.ceil(Fraction(lam[0] - 2 * lam[1], 6)))


def sampled_tail(c, lam, ns):
    """c along lam + (6n, 6n) for the given n: the sampled limit of the
    localization, kept here as the oracle for the proven single point."""
    return [c.mult((lam[0] + 6 * n, lam[1] + 6 * n)) for n in ns]


far_weights = st.tuples(st.integers(-330, 60), st.integers(0, 600)).map(
    lambda t: (t[0] + t[1], t[0]))


@given(st.sampled_from(catalog.all_character_names()), far_weights)
@settings(max_examples=100, deadline=None)
def test_localize_matches_sampled_tail(name, lam):
    c = catalog.character_of(name)
    n = proven_shift(lam)
    value = ch.localize(c).mult(lam)
    assert sampled_tail(c, lam, (n + 1, n + 2, n + 7)) == [value] * 3


def nuq(i):
    """The quasi-polynomial extension of nu to all of Z (nu(i) for i >= 0)."""
    return i // 6 + (i % 6 != 1)


@given(far_weights)
@settings(max_examples=60, deadline=None)
def test_q0delta_reciprocity_formula(lam):
    # Q0delta(lam) = [l1+l2 = 0 mod 3] (nuq(l1+1) - nuq(l2)) + Sdelta(lam),
    # read off the closed forms without going through localize
    l1, l2 = lam
    count = nuq(l1 + 1) - nuq(l2) if (l1 + l2) % 3 == 0 else 0
    expected = count + ch.SDELTA_FORM.coefficient(lam)
    assert catalog.character_of("Q0delta").mult(lam) == expected


class TestCombinatorOperands:
    def test_arithmetic_with_a_non_character_is_not_implemented(self):
        s = catalog.character_of("S")
        assert s.__add__(3) is NotImplemented
        assert s.__sub__("x") is NotImplemented
        with pytest.raises(TypeError, match="unsupported operand"):
            s + 3
        with pytest.raises(TypeError, match="unsupported operand"):
            3 - s

    @pytest.mark.parametrize("build", [
        lambda c: ch.add(c, catalog.character_of("S")),
        lambda c: ch.add(catalog.character_of("S"), c),
        lambda c: ch.sub(c, catalog.character_of("S")),
        lambda c: ch.sub(catalog.character_of("S"), c),
        lambda c: ch.shift(c, (1, 1)),
        ch.fourier,
        ch.localize,
    ])
    @pytest.mark.parametrize("operand", [5, None, (0, 0), lambda lam: 1])
    def test_combinators_reject_non_characters(self, build, operand):
        with pytest.raises(TypeError, match="takes a Character"):
            build(operand)

    @pytest.mark.parametrize("build", [
        lambda f: ch.add(f, catalog.character_of("E")),
        lambda f: ch.sub(catalog.character_of("E"), f),
        lambda f: ch.shift(f, (1, 1)),
        ch.fourier,
        ch.localize,
    ])
    def test_a_closed_form_operand_names_from_closed_form(self, build):
        with pytest.raises(TypeError, match="from_closed_form"):
            build(ch.S_FORM)


class TestCountingHelpersCheckArguments:
    @pytest.mark.parametrize("lam", [(3.0, 0), (3.5, 0), (6, 3.0), (True, 0), (Fraction(3), 0)])
    def test_coefficient_rejects_non_integral_weight(self, lam):
        with pytest.raises(TypeError):
            ch.S_FORM.coefficient(lam)

    @pytest.mark.parametrize("lam", [(-6.0, -9), (-6, -9.0), (False, -9)])
    def test_mult_d_rejects_non_integral_weight(self, lam):
        with pytest.raises(TypeError):
            ch.mult_d(0, lam)

    @pytest.mark.parametrize("j", [True, False, 1.0, "1", Fraction(1)])
    def test_mult_d_rejects_non_int_j(self, j):
        with pytest.raises(TypeError):
            ch.mult_d(j, (3, -1))

    @pytest.mark.parametrize("j", [-1, 3])
    def test_mult_d_rejects_j_out_of_range(self, j):
        with pytest.raises(ValueError):
            ch.mult_d(j, (3, -1))

    @pytest.mark.parametrize("i", [7.0, 6.5, True, Fraction(7)])
    def test_nu_rejects_non_integer(self, i):
        with pytest.raises(TypeError):
            ch.nu(i)

    @pytest.mark.parametrize("a", [6.0, 5.5, True, Fraction(6)])
    def test_m_diag_rejects_non_integer(self, a):
        with pytest.raises(TypeError):
            ch.m_diag(a)

    def test_numpy_integers_count_as_ints(self):
        assert ch.S_FORM.coefficient((np.int64(6), np.int32(3))) == 1
        assert ch.mult_d(np.int64(0), (np.int64(-6), -9)) == 1
        assert ch.nu(np.int64(6)) == 2 and ch.m_diag(np.int32(6)) == -1
        assert all(v.__class__ is int for v in (
            ch.S_FORM.coefficient((np.int64(6), 3)), ch.mult_d(np.int8(0), (-6, -9)),
            ch.nu(np.int64(6)), ch.m_diag(np.int64(6))))


@pytest.fixture
def built_leaves(monkeypatch):
    """Every memo-holding Character built while the test runs, recorded
    as it is constructed, so it is found however the views above it hold
    it; a view (characters._View) keeps no memo and is not recorded."""
    leaves = []
    init = ch.Character.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        leaves.append(self)

    monkeypatch.setattr(ch.Character, "__init__", recording_init)
    return leaves


def test_only_the_four_leaf_memos_remain(built_leaves):
    # every catalog name is a leaf or a view over four leaves: S, E, the
    # one period of Sdelta and the shared twisted-cubic count; the views
    # store nothing of their own
    characters = catalog._build_characters()
    for c in characters.values():
        ch.truncate(c, -30, 30)
    leaf_ids = {id(c) for c in built_leaves}
    assert all("_cache" not in vars(c) for c in characters.values() if id(c) not in leaf_ids)
    memos = {c.name: len(c._cache) for c in built_leaves}
    assert len(memos) == len(built_leaves) == 4
    assert set(memos) == {"S", "E", "Sdelta", "D"}
    assert sum(memos.values()) <= 6_500


@pytest.mark.parametrize("name, r", [
    ("Sdelta", 0), ("G2", 2), ("G3", 3), ("G4", 4), ("F1", 1), ("F-1", -1),
])
def test_sdelta_and_its_shifts_read_one_period(name, r):
    c = catalog.character_of(name)
    huge = [(10**18 + 7, 10**18 - 5), (-10**18, -10**18 - 13), (10**18, -10**18 + 1)]
    for lam in list(ch.box_weights(-40, 40)) + huge:
        assert c.mult(lam) == ch.SDELTA_FORM.coefficient((lam[0] - r, lam[1] - r)), lam


def test_sdelta_leaf_holds_one_period(built_leaves):
    sdelta = ch.from_closed_form(ch.SDELTA_FORM, "Sdelta")
    ch.truncate(sdelta, -300, 300)
    [leaf] = built_leaves
    assert all(0 <= l2 < 6 for _, l2 in leaf._cache)
    assert len(leaf._cache) <= 6 * 601


def test_twisted_cubic_views_share_one_leaf(monkeypatch, built_leaves):
    calls = Counter()
    mult_d = ch.mult_d

    def counted(j, lam):
        calls[lam] += 1
        return mult_d(j, lam)

    monkeypatch.setattr(ch, "mult_d", counted)
    d = ch.twisted_cubic_characters()
    box = list(ch.box_weights(-40, 40))
    for j in (0, 1, 2):
        assert [d[j].mult(lam) for lam in box] == [mult_d(j, lam) for lam in box]
    [leaf] = built_leaves
    assert len(leaf._cache) == len(box) == len(calls)
    assert max(calls.values()) == 1


def test_the_memo_keeps_huge_and_shared_l1_weights_apart():
    s = ch.from_closed_form(ch.S_FORM, "S")
    weights = [(2**80, 5), (5, -2**80), (12, 0), (12, 6), (2**80, 2**80 - 3), (5, 5)]
    for _ in range(2):  # the second pass reads the memo
        for lam in weights:
            assert s.mult(lam) == ch.S_FORM.coefficient(lam), lam
