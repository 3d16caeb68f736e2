"""Exact linear algebra tests, including randomized round trips."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import sympy

from binarycubics import ratlinalg as rl

small_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(small_matrices)
@settings(max_examples=60)
def test_nullspace_vectors_annihilate(rows):
    A = rl.mat(rows)
    n = len(A[0])
    for vec in rl.nullspace(A):
        assert all(sum(r[j] * vec[j] for j in range(n)) == 0 for r in A)


@given(small_matrices)
@settings(max_examples=60)
def test_rank_nullity(rows):
    A = rl.mat(rows)
    n = len(A[0])
    assert rl.rank(A) + len(rl.nullspace(A)) == n


def test_rref_known():
    R, pivots = rl.rref(rl.mat([[2, 4], [1, 2]]))
    assert pivots == [0]
    assert R == rl.mat([[Fraction(1), Fraction(2)]])


def test_solve_and_inverse():
    A = rl.mat([[2, 1], [1, 1]])
    X = rl.solve(A, rl.identity(2))
    assert rl.matmul(A, X) == rl.identity(2)
    assert rl.inverse(A) == X
    assert rl.inverse(rl.mat([[1, 2], [2, 4]])) is None


#: entries for inverse: small, fractional, near 2^70, and zero
inverse_cells = st.one_of(st.integers(-2, 2), st.fractions(-3, 3, max_denominator=5),
                          st.integers(-2**70, 2**70), st.just(2**70), st.just(0))


@st.composite
def square_matrices(draw):
    """An n x n matrix, n <= 5, singular by construction on about half the draws."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(inverse_cells, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and draw(st.booleans()):  # row i a multiple of row j (j = i: row i zero)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = 0 if i == j else draw(st.fractions(-3, 3, max_denominator=3))
        rows[i] = [c * x for x in rows[j]]
    return rows


@given(square_matrices())
@example([])
@example([[0]])
@example([[Fraction(-3, 7)]])
@example([[2**70]])
@example([[2**70, 1], [2**71, 2]])
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
@example([[1, Fraction(1, 2)], [Fraction(1, 3), 2**70]])
@settings(max_examples=150, deadline=None)
def test_inverse_equals_solve_against_the_identity(rows):
    n = len(rows)
    A = rl.mat(rows, n, n)
    X = rl.inverse(A)
    assert X == rl.solve(A, rl.identity(n))
    assert (X is None) == (rl.rank(A) < n)
    if X is not None:
        assert rl.matmul(A, X) == rl.identity(n) == rl.matmul(X, A)


@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]])
def test_inverse_of_a_non_square_matrix_raises(rows):
    with pytest.raises(ValueError, match="non-square"):
        rl.inverse(rl.mat(rows))


def test_solve_inconsistent():
    A = rl.mat([[1, 0], [1, 0]])
    assert rl.solve(A, rl.mat([[1], [2]])) is None


def test_column_space_and_quotient():
    B = rl.mat([[1, 2], [0, 0], [2, 4]])
    basis, pivots = greedy_column_basis(B)
    assert pivots == [0]
    proj, section = rl.quotient_maps(B)
    assert len(proj) == 2
    assert rl.matmul(proj, basis) == rl.zeros(2, 1)
    assert rl.matmul(proj, section) == rl.identity(2)
    # col(B) = span(e_0 + 2 e_2): e_0 and e_1 complement it, e_2 does not
    assert section == rl.mat([[1, 0], [0, 1], [0, 0]])
    assert proj == rl.mat([[1, 0, Fraction(-1, 2)], [0, 1, 0]])


def test_quotient_by_zero_subspace_is_identity():
    proj, section = rl.quotient_maps(rl.zeros(3, 2))
    assert len(proj) == 3
    assert rl.matmul(proj, section) == rl.identity(3)


def test_minimal_polynomial_examples():
    assert rl.minimal_polynomial(rl.mat([[Fraction(5)]])) == [Fraction(-5), Fraction(1)]
    # projection: t^2 - t
    P = rl.mat([[1, 0], [0, 0]])
    assert rl.minimal_polynomial(P) == [Fraction(0), Fraction(-1), Fraction(1)]
    # Jordan block at 0 of size 3: t^3
    J = rl.mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert rl.minimal_polynomial(J) == [Fraction(0)] * 3 + [Fraction(1)]
    # a nilpotent block beside an invertible one: t^3 (t - 2); zero blocks: t
    N = rl.mat([[0, 2, 1], [0, 0, -3], [0, 0, 0]])  # N^2 != 0 = N^3
    assert rl.minimal_polynomial(N, rl.mat([[2]])) == [Fraction(0)] * 3 + [Fraction(-2), Fraction(1)]
    assert rl.minimal_polynomial(rl.zeros(2, 2), rl.zeros(1, 1)) == [Fraction(0), Fraction(1)]
    # degree n: a companion matrix is cyclic, so its minimal polynomial is
    # its characteristic polynomial t^4 - 2 t^3 + t / 2 - 3
    low = [Fraction(-3), Fraction(1, 2), Fraction(0), Fraction(-2)]
    C = rl.mat([[-low[i] if j == 3 else int(j == i - 1) for j in range(4)] for i in range(4)])
    assert rl.minimal_polynomial(C) == low + [Fraction(1)]
    # 3 I / 2, every unit vector after the first skipped; J_3(0) + J_1(0)
    # conjugated: t^3; J_2(1) + J_1(2) beside J_2(1), an lcm over two unit
    # vectors, (t - 1)^2 (t - 2)
    assert rl.minimal_polynomial(rl.scale(rl.identity(5), Fraction(3, 2))) == [
        Fraction(-3, 2), Fraction(1)]
    T = rl.mat([[1, 1, 0, 0], [0, 1, 2, 0], [1, 0, 1, 1], [0, 0, 0, 1]])
    N = rl.matmul(rl.matmul(T, rl.mat(jordan_sum([(0, 3), (0, 1)]))), rl.inverse(T))
    assert rl.minimal_polynomial(N) == [Fraction(0)] * 3 + [Fraction(1)]
    blocks = [rl.mat(jordan_sum([(1, 2), (2, 1)])), rl.mat(jordan_sum([(1, 2)]))]
    assert rl.minimal_polynomial(*blocks) == [Fraction(c) for c in (-2, 5, -4, 1)]


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=4))
@settings(max_examples=40)
def test_minimal_polynomial_annihilates(diag):
    n = len(diag)
    rng = random.Random(7)
    T = None
    while T is None or rl.inverse(T) is None:
        T = rl.mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
    D = rl.mat([[d if j == i else 0 for j in range(n)] for i, d in enumerate(diag)])
    A = rl.matmul(rl.matmul(T, D), rl.inverse(T))
    coeffs = rl.minimal_polynomial(A)
    assert rl.is_zero(rl.eval_poly(coeffs, A))
    assert len(coeffs) - 1 == len(set(diag))  # one root per distinct eigenvalue


# -- plain-Fraction references for the integer-cleared kernels --------------


def ref_matmul(A, B):
    return [[sum((Fraction(a) * Fraction(b) for a, b in zip(row, col)), Fraction(0))
             for col in zip(*B)] for row in A]


def ref_rref(A, ncols=None):
    """Plain Fraction Gauss-Jordan: (reduced rows, pivot columns).

    Pivots go on the first row, in column order, with a nonzero entry
    there; the zero rows are kept at the bottom of the reduced rows.
    """
    rows = [[Fraction(x) for x in row] for row in A]
    pivots = []
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def ref_rank(A):
    return len(ref_rref(A)[1])


def ref_solve(A, B, na, nb):
    """The solution of A X = B with free coordinates zero, read off the
    reduced rows of [A | B] (the system must be consistent)."""
    R, pivots = ref_rref([list(ra) + list(rb) for ra, rb in zip(A, B)], na + nb)
    X = [[Fraction(0)] * nb for _ in range(na)]
    for row, c in zip(R, pivots):
        X[c] = row[na:]
    return X


def ref_nullspace(A, ncols):
    """One kernel vector per free column f: 1 at f, minus column f of the
    reduced rows at the pivot columns, 0 elsewhere."""
    R, pivots = ref_rref(A, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -R[k][f]
        basis.append(v)
    return basis


def ref_block_diag(blocks):
    n = sum(len(B) for B in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for B in blocks:
        for i, row in enumerate(B):
            for j, x in enumerate(row):
                out[at + i][at + j] = Fraction(x)
        at += len(B)
    return out


def ref_minimal_polynomial(A):
    """Lowest k with A^k = sum c_i A^i over i < k, from the full matrix."""
    n = len(A)
    if n == 0:
        return [Fraction(1)]
    powers = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
    while True:
        powers.append(ref_matmul(powers[-1], A))
        k = len(powers) - 1
        flat = [[x for row in P for x in row] for P in powers]
        R, pivots = ref_rref([[v[e] for v in flat] for e in range(n * n)])
        if k not in pivots:  # A^k depends on the lower powers, which are independent
            return [-R[i][k] for i in range(k)] + [Fraction(1)]


big_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)
entries = st.one_of(st.integers(-10**9, 10**9), big_fractions, st.just(0))


def matrices_of(m, n, cells=entries):
    return st.lists(st.lists(cells, min_size=n, max_size=n), min_size=m, max_size=m)


def shortcut_rows(n):
    """Rows of n entries that take matmul's shortcuts: all zero, a unit
    vector, or entries 0, 1 and -1."""
    return st.one_of(st.just([0] * n), st.lists(st.sampled_from([0, 1, -1]), min_size=n, max_size=n),
                     *([st.integers(0, n - 1).map(lambda k: [int(j == k) for j in range(n)])]
                       if n else []))


def mixed_matrices_of(m, n):
    """m x n matrices whose rows are dense or shortcut_rows."""
    return st.lists(st.one_of(st.lists(entries, min_size=n, max_size=n), shortcut_rows(n)),
                    min_size=m, max_size=m)


@given(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5)).flatmap(
    lambda s: st.tuples(mixed_matrices_of(s[0], s[1]), mixed_matrices_of(s[1], s[2]))))
@example(([[0, 0], [1, 0], [1, -1]], [[Fraction(1, 2), 3], [-1, 1]]))  # a zero, a unit and a ±1 row
@example(([[1, 1, 1]], [[1, 0], [0, 1], [1, 1]]))  # the rows of B added unchanged
@settings(max_examples=80, deadline=None)
def test_matmul_matches_fraction_reference(pair):
    A, B = pair
    C = rl.matmul(rl.mat(A), rl.mat(B))
    assert C == rl.mat(ref_matmul(A, B))
    assert all(type(x) is Fraction for row in C for x in row)
    for M in (rl.mat(A), rl.mat(B), C):
        assert_reduced(M)


nonzero_entries = st.one_of(st.just(1), st.just(-1), st.integers(-10**9, 10**9).filter(bool),
                            big_fractions.filter(bool))


@st.composite
def sparse_products(draw):
    """(A, B, zero_row): mostly-zero A (m x k) and B (k x n) with a whole
    zero row zero_row of A, a zero column of A (so a row of B that no
    entry of A multiplies), a zero column of B, and up to two rows of A
    from shortcut_rows; denominators up to 10**12."""
    m, k, n = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 7))

    def sparse(rows, cols):
        M = [[0] * cols for _ in range(rows)]
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        for (i, j), x in draw(st.dictionaries(cells, nonzero_entries,
                                              max_size=max(1, rows * cols // 4))).items():
            M[i][j] = x
        return M

    A, B = sparse(m, k), sparse(k, n)
    # a shortcut row and a row of 0, 1 and -1 in A (rows of B added
    # unchanged), before the zero row and columns are cut
    A[draw(st.integers(0, m - 1))] = draw(shortcut_rows(k))
    A[draw(st.integers(0, m - 1))] = draw(st.lists(st.sampled_from([0, 1, -1]),
                                                    min_size=k, max_size=k))
    zero_row = draw(st.integers(0, m - 1))
    A[zero_row] = [0] * k
    zero_col = draw(st.integers(0, k - 1))
    for row in A:
        row[zero_col] = 0
    zero_col = draw(st.integers(0, n - 1))
    for row in B:
        row[zero_col] = 0
    return A, B, zero_row


@given(sparse_products())
# the rows of B that a coefficient 1 adds come first, where C may share them
@example(([[1, 0, 1, 0], [0, 0, 0, 0]], [[1, 0], [2, 0], [Fraction(1, 3), 0], [4, 0]], 1))
@example(([[0, 0, 0], [1, -1, 0], [0, 1, 0]], [[5, 0, 1], [0, 0, 1], [7, 0, 0]], 0))
@settings(max_examples=150, deadline=None)
def test_matmul_of_mostly_zero_operands_matches_fraction_reference(case):
    A, B, zero_row = case
    MA, MB = rl.mat(A), rl.mat(B)
    before = [list(row) for row in MB.num]
    C = rl.matmul(MA, MB)
    assert C == rl.mat(ref_matmul(A, B))
    assert C.num[zero_row] == [0] * MB.cols
    assert_reduced(C)
    assert MB.num == before  # B's rows may be shared by C, never written


fraction_entries = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def planted_products(draw):
    """((kind_A, kind_B), A, B, (m, k, n)): A m x k and B k x n with dims
    0-5, each factor dense (denominators up to 12), the identity, a scaled
    identity I/d with d > 1, or zero; a planted (scaled) identity is square."""
    kinds = draw(st.tuples(*[st.sampled_from(("dense", "identity", "scaled", "zero"))] * 2))
    m, k, n = draw(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
    m = k if kinds[0] in ("identity", "scaled") else m
    n = k if kinds[1] in ("identity", "scaled") else n

    def build(kind, rows, cols):
        if kind == "dense":
            return draw(matrices_of(rows, cols, fraction_entries))
        if kind == "zero":
            return [[0] * cols for _ in range(rows)]
        d = 1 if kind == "identity" else draw(st.integers(2, 9))
        return [[Fraction(int(i == j), d) for j in range(cols)] for i in range(rows)]

    return kinds, build(kinds[0], m, k), build(kinds[1], k, n), (m, k, n)


@given(planted_products())
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_identity_and_zero_factors_are_handed_back(case):
    kinds, A, B, (m, k, n) = case
    MA, MB = rl.mat(A, m, k), rl.mat(B, k, n)
    C = rl.matmul(MA, MB)
    assert C == rl.mat([[sum((Fraction(A[i][t]) * Fraction(B[t][j]) for t in range(k)), Fraction(0))
                         for j in range(n)] for i in range(m)], m, n)
    assert_reduced(C)
    # I @ X is X; X @ I is X too, but I itself when X is an identity
    for X in (MA, MB):
        I_left, I_right = rl.identity(X.rows), rl.identity(X.cols)
        assert rl.matmul(I_left, X) is X
        assert rl.matmul(X, I_right) is (I_right if X == I_left else X)
    if "zero" in kinds:
        assert C == rl.zeros(m, n) and (C.rows, C.cols) == (m, n)
    if m == k:
        inv = rl.inverse(MA)
        if kinds[0] == "identity":
            assert inv is MA
        if inv is not None:
            assert rl.matmul(MA, inv) == rl.identity(m) == rl.matmul(inv, MA)
        else:
            assert rl.rank(MA) < m


def test_matmul_shape_errors_kept():
    with pytest.raises(ValueError, match="shape mismatch"):
        rl.matmul(rl.mat([[1, 2]]), rl.mat([[1]]))
    # inner dimension 0: the defined 1 x n zero product
    assert rl.matmul(rl.mat([[]]), rl.mat([], 0, 3)) == rl.zeros(1, 3)


@given(st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(
    lambda s: matrices_of(s[0], s[1], st.one_of(st.integers(-3, 3), big_fractions))))
@settings(max_examples=80, deadline=None)
def test_nullspace_against_reference_rank(A):
    n = len(A[0])
    kernel = rl.nullspace(rl.mat(A))
    assert len(kernel) == n - ref_rank(A)
    for vec in kernel:
        assert all(type(x) is Fraction for x in vec)
        assert all(sum(Fraction(r[j]) * vec[j] for j in range(n)) == 0 for r in A)


small_blocks = st.integers(0, 3).flatmap(
    lambda d: matrices_of(d, d, st.one_of(st.integers(-2, 2),
                                          st.fractions(-2, 2, max_denominator=3))))


@given(st.lists(small_blocks, min_size=1, max_size=4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_minimal_polynomial_of_blocks(blocks, repeat_first):
    if repeat_first:
        blocks = blocks + [blocks[0]]  # shared eigenvalues across blocks
    full = ref_block_diag(blocks)
    expected = ref_minimal_polynomial(full)
    assert rl.minimal_polynomial(*map(rl.mat, blocks)) == expected
    assert rl.minimal_polynomial(rl.mat(full)) == expected


def test_minimal_polynomial_of_empty_blocks():
    assert rl.minimal_polynomial(rl.mat([]), rl.mat([])) == [Fraction(1)]
    assert rl.minimal_polynomial(rl.mat([]), rl.mat([[Fraction(3)]]), rl.mat([])) == [Fraction(-3), Fraction(1)]


eigenvalues = st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-5, 3)]))


def conjugator(draw, n):
    """An invertible n x n integer matrix: a unit lower times a unit upper
    triangular one, off-diagonal entries in -2..2."""
    L = [[1 if j == i else draw(st.integers(-2, 2)) if j < i else 0 for j in range(n)]
         for i in range(n)]
    U = [[1 if j == i else draw(st.integers(-2, 2)) if j > i else 0 for j in range(n)]
         for i in range(n)]
    return rl.matmul(rl.mat(L), rl.mat(U))


def jordan_sum(pieces):
    """The block-diagonal matrix of the upper Jordan blocks J_d(lam), as rows."""
    n = sum(d for _, d in pieces)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for lam, d in pieces:
        for i in range(d):
            out[at + i][at + i] = Fraction(lam)
            if i + 1 < d:
                out[at + i][at + i + 1] = Fraction(1)
        at += d
    return out


@st.composite
def planted_operators(draw):
    """(kind, blocks): square blocks whose sum has a known shape, up to 8 x 8:
    a sum of Jordan blocks whose eigenvalues repeat, a scalar matrix, a
    nilpotent one (Jordan blocks at 0), or a list of Jordan sums that share
    eigenvalues, with integer and rational eigenvalues; each block plain or
    conjugated (all of them alike).  A conjugated block's unit vectors are
    generic, a plain one's reach the lcm."""
    kind = draw(st.sampled_from(("jordan", "scalar", "nilpotent", "blocks")))
    if kind == "scalar":
        n = draw(st.integers(1, 8))
        return kind, [rl.scale(rl.identity(n), draw(eigenvalues))]
    shared = draw(st.lists(eigenvalues, min_size=1, max_size=2, unique=True))
    lam = st.just(0) if kind == "nilpotent" else st.sampled_from(shared)
    pieces = draw(st.lists(st.tuples(lam, st.integers(1, 3)), min_size=1, max_size=5))
    while sum(d for _, d in pieces) > 8:
        pieces.pop()
    plain = draw(st.booleans())  # unconjugated, where unit vectors are not generic
    groups = [pieces]
    if kind == "blocks":  # cut in two, the first part repeated when there is room
        k = draw(st.integers(1, len(pieces)))
        groups = [g for g in (pieces[:k], pieces[k:]) if g]
        if 2 * sum(d for _, d in groups[0]) + sum(d for _, d in pieces[k:]) <= 8:
            groups.append(groups[0])
    blocks = []
    for group in groups:
        n = sum(d for _, d in group)
        T = rl.identity(n) if plain else conjugator(draw, n)
        blocks.append(rl.matmul(rl.matmul(T, rl.mat(jordan_sum(group))), rl.inverse(T)))
    return kind, blocks


def minimality_certificate(coeffs, A):
    """coeffs vanishes at A, and coeffs / q does not, for each irreducible q
    dividing it, q the base of a prime-power factor polyfactor.factor gives."""
    from binarycubics import polyfactor

    assert rl.is_zero(rl.eval_poly(coeffs, A))
    t = sympy.Symbol("t")
    f = sympy.Poly(list(reversed(coeffs)), t, domain="QQ")
    for power in polyfactor.factor(coeffs):
        q = sympy.Poly(list(reversed(power)), t, domain="QQ").sqf_part()
        assert q.is_irreducible
        g, r = f.div(q)
        assert r.is_zero
        low = [Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]
        assert not rl.is_zero(rl.eval_poly(low, A))


def test_minimal_polynomial_of_planted_operators_reaches_the_skip_and_the_lcm():
    # the oracle is the power method on the full matrix and the minimality
    # certificate; the run must skip unit vectors the polynomial found
    # already kills and must raise it to an lcm over several unit vectors
    reached = {"skip": 0, "lcm": 0, "deg < n": 0, "size 8": 0}
    kills, annihilator = rl._kills, rl._annihilator
    seen = []

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(planted_operators())
    def check(case):
        kind, blocks = case
        full = ref_block_diag([[list(row) for row in B] for B in blocks])
        expected = ref_minimal_polynomial(full)
        seen.clear()
        got = rl.minimal_polynomial(*blocks)
        reached["skip"] += "kill" in seen
        reached["lcm"] += seen.count("annihilator") > 1
        assert got == expected
        assert rl.minimal_polynomial(rl.mat(full)) == expected
        minimality_certificate(got, rl.mat(full))
        reached["deg < n"] += len(got) - 1 < len(full)
        reached["size 8"] += len(full) == 8

    rl._kills = lambda *a: seen.append("kill") or kills(*a)
    rl._annihilator = lambda members: seen.append("annihilator") or annihilator(members)
    try:
        check()
    finally:
        rl._kills, rl._annihilator = kills, annihilator
    assert min(reached.values()) >= 5, reached


def test_minimal_polynomial_forms_no_matrix_product(monkeypatch):
    def refused(A, B):
        raise AssertionError("minimal_polynomial multiplies no matrices")

    monkeypatch.setattr(rl, "matmul", refused)
    # the companion matrix of t^4 - 2 t^3 + t / 2 - 3 beside 5: that times t - 5
    C = rl.mat([[0, 0, 0, 3], [1, 0, 0, Fraction(-1, 2)], [0, 1, 0, 0], [0, 0, 1, 2]])
    assert rl.minimal_polynomial(C, rl.mat([[5]])) == [
        Fraction(c) for c in (15, Fraction(-11, 2), Fraction(1, 2), 10, -7, 1)]


@given(square_matrices(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_krylov_rows_are_the_columns_of_the_powers(rows, k):
    A = rl.mat(rows)
    n = A.rows
    for j in range(n):
        K = rl.krylov(A, j, k)
        assert (K.rows, K.cols) == (k, n)
        power = rl.identity(n)
        for i in range(k):
            assert K[i] == tuple(row[j] for row in power)
            power = rl.matmul(A, power)
        assert_reduced(K)


def test_is_identity_is_one_comparison_of_the_unit_rows():
    assert rl._is_identity(rl.identity(0)) and rl._is_identity(rl.mat([]))
    assert rl._is_identity(rl.mat([[1, 0], [0, 1]]))  # rows of its own, not shared
    assert rl._is_identity(rl.over([[2, 0], [0, 2]], 2, 2, 2))  # 2 I / 2, reduced to I
    assert not rl._is_identity(rl.mat([[1, 0, 0], [0, 1, 0]]))  # unit rows, not square
    assert not rl._is_identity(rl.mat([[1, 0], [0, 1], [0, 0]]))
    assert not rl._is_identity(rl.zeros(0, 2)) and not rl._is_identity(rl.zeros(2, 0))
    assert not rl._is_identity(rl.mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))  # a permutation
    assert not rl._is_identity(rl.scale(rl.identity(3), Fraction(1, 2)))  # den 2
    assert not rl._is_identity(rl.mat([[Fraction(1, 2), 0], [0, 1]]))
    assert rl.identity(4).num is rl.identity(4).num  # the unit rows are shared


# -- the reduced integer form -------------------------------------------------


def assert_reduced(M):
    """M holds rows lists of cols integers over den > 0 with
    gcd(den, every numerator) = 1, the one form of its value."""
    assert type(M.num) is list and all(type(row) is list for row in M.num)
    assert len(M.num) == M.rows and all(len(row) == M.cols for row in M.num)
    assert all(type(x) is int for row in M.num for x in row)
    assert type(M.den) is int and M.den > 0
    assert gcd(M.den, *(x for row in M.num for x in row)) == 1
    # the same value over a multiple of the denominator reduces to an equal Mat
    assert rl.over([[6 * x for x in row] for row in M.num], 6 * M.den,
                   M.rows, M.cols) == M


@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(st.just(s), matrices_of(*s, entries), matrices_of(*s, entries),
                        entries)))
@settings(max_examples=120, deadline=None)
def test_entrywise_operations_match_fraction_reference(case):
    (m, n), a, b, c = case
    A, B = rl.mat(a, m, n), rl.mat(b, m, n)
    fa = [[Fraction(x) for x in row] for row in a]
    fb = [[Fraction(x) for x in row] for row in b]
    c = Fraction(c)
    cases = [
        (A, fa, (m, n)),
        (rl.mat_add(A, B), [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(fa, fb)], (m, n)),
        (rl.scale(A, c), [[c * x for x in row] for row in fa], (m, n)),
        (rl.hstack(A, B), [ra + rb for ra, rb in zip(fa, fb)], (m, 2 * n)),
        (rl.vstack(A, B), fa + fb, (2 * m, n)),
        (rl.transpose(A), [[fa[i][j] for i in range(m)] for j in range(n)], (n, m)),
    ]
    for M, ref, shape in cases:
        assert (M.rows, M.cols) == shape
        assert list(M) == list(map(tuple, ref))
        assert_reduced(M)
        assert M == rl.mat(ref, *shape)  # equal values, equal Mats
    # values that cancel come back in the zero matrix's one form
    assert rl.mat_add(A, rl.scale(A, -1)) == rl.zeros(m, n)
    assert rl.scale(A, 0) == rl.zeros(m, n) and rl.is_zero(rl.scale(A, 0))
    if c:
        assert rl.scale(rl.scale(A, c), 1 / c) == A


def test_a_mat_is_not_written_in_place():
    M = rl.mat([[1, 2], [3, Fraction(1, 2)]])
    with pytest.raises(TypeError):
        M[0][1] = 5
    assert M == rl.mat([[1, 2], [3, Fraction(1, 2)]])
    assert (M.num, M.den) == ([[2, 4], [6, 1]], 2)


# -- shapes with zero dimensions --------------------------------------------

small_entries = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
shapes = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


def shaped_pair(s):
    m, k, n = s
    return st.tuples(st.just(s), matrices_of(m, k, small_entries), matrices_of(k, n, small_entries))


@given(shapes.flatmap(shaped_pair))
@settings(max_examples=120, deadline=None)
def test_zero_dimension_shapes(case):
    (m, k, n), a, b = case
    A, B = rl.mat(a, m, k), rl.mat(b, k, n)

    C = rl.matmul(A, B)
    assert (C.rows, C.cols) == (m, n)
    assert_reduced(C)
    assert list(C) == [tuple(sum((Fraction(a[i][j]) * Fraction(b[j][l]) for j in range(k)), Fraction(0))
                             for l in range(n)) for i in range(m)]

    D = rl.block_diag(A, B)
    assert (D.rows, D.cols) == (m + k, k + n)
    assert_reduced(D)
    assert list(D) == [tuple([Fraction(x) for x in row] + [Fraction(0)] * n) for row in a] + [
        tuple([Fraction(0)] * k + [Fraction(x) for x in row]) for row in b]
    assert rl.diagonal_blocks(D, [m, k], [k, n]) == [A, B]

    N = rl.nullspace(A)
    assert (N.rows, N.cols) == (k - ref_rank(a), k)
    assert_reduced(N)
    assert rl.matmul(A, rl.transpose(N)) == rl.zeros(m, N.rows)

    X = rl.solve(A, C)  # consistent by construction
    assert X is not None and (X.rows, X.cols) == (k, n)
    assert rl.matmul(A, X) == C
    assert_reduced(X)
    assert list(X) == list(map(tuple, ref_solve(a, list(C), k, n)))

    proj, section = rl.quotient_maps(A)
    q = m - ref_rank(a)
    assert (proj.rows, proj.cols) == (q, m) and (section.rows, section.cols) == (m, q)
    assert_reduced(proj)
    assert_reduced(section)
    assert rl.matmul(proj, A) == rl.zeros(q, k)
    assert rl.matmul(proj, section) == rl.identity(q)


def test_mat_checks_the_shape():
    assert rl.mat([], 0, 3) == rl.zeros(0, 3)
    assert rl.mat([[], []], 2, 0) == rl.zeros(2, 0)
    assert rl.zeros(0, 3) != rl.zeros(3, 0) and rl.zeros(0, 3) != rl.zeros(0, 2)
    for rows, m, n in (([[1, 2]], 0, 2), ([], 2, 0), ([[1, 2], [3]], 2, 2), ([[1]], 1, 2)):
        with pytest.raises(ValueError, match="expected a"):
            rl.mat(rows, m, n)
    Z = rl.zeros(2, 3)
    assert rl.mat(Z, 2, 3) is Z  # a Mat of the right shape passes through
    with pytest.raises(ValueError, match="expected a 3x2 matrix"):
        rl.mat(Z, 3, 2)


def test_mat_takes_only_exact_entries():
    import numpy as np

    assert rl.mat([[np.int64(3), Fraction(1, 10), -2]]) == rl.mat([[3, Fraction(1, 10), -2]])
    assert all(type(x) is Fraction for x in rl.mat([[np.int32(1), 2]])[0])
    # 0.1 would be 3602879701896397/36028797018963968, "1.5" is text, True is not a number
    for bad in (0.1, 2.0, "1.5", "1", True, np.float64(1.0), None):
        with pytest.raises(TypeError, match="not an integer or a Fraction"):
            rl.mat([[1, bad]])
        with pytest.raises(TypeError):
            rl.exact(bad)
        with pytest.raises(TypeError):
            rl.scale(rl.identity(1), bad)
    assert rl.exact(Fraction(2, 3)) == Fraction(2, 3) and rl.exact(np.int8(-4)) == -4


# -- the sparse echelon core against plain Gauss-Jordan ------------------------

# mostly zeros, with integers and fractions of mixed denominators
sparse_cells = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-5, 5),
                         st.fractions(-5, 5, max_denominator=12))


def int_rows(rows):
    """Each row as {column: integer}, scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append({j: int(Fraction(x) * den) for j, x in enumerate(row) if x})
    return out


@st.composite
def elimination_cases(draw):
    """(m, n, rows): 0 x n and m x 0 shapes, wide mostly-zero matrices,
    zero rows and duplicate rows."""
    m = draw(st.integers(0, 6))
    n = draw(st.one_of(st.integers(0, 6), st.integers(7, 24)))
    rows = draw(matrices_of(m, n, sparse_cells))
    if rows and draw(st.booleans()):
        dup = rows[draw(st.integers(0, len(rows) - 1))]
        rows.insert(draw(st.integers(0, len(rows))), list(dup))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return len(rows), n, rows


@given(elimination_cases())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_gauss_jordan_entry_for_entry(case):
    m, n, rows = case
    A = rl.mat(rows, m, n)
    R_ref, pivots_ref = ref_rref(rows, n)
    reduced_ref = R_ref[:len(pivots_ref)]

    R, pivots = rl.rref(A)
    assert pivots == pivots_ref
    assert (R.rows, R.cols) == (len(pivots_ref), n)
    assert list(R) == list(map(tuple, reduced_ref))
    assert_reduced(R)
    assert all(type(x) is Fraction for row in R for x in row)
    assert rl.rank(A) == len(pivots_ref)
    # the rows independent of the rows before them are the pivots of A^T
    assert rl.rank_profiles(A) == (ref_rref([list(c) for c in zip(*rows)], m)[1], pivots_ref)

    # the sparse core itself: pivot rows scaled by their pivot entries
    ech = rl.echelon(int_rows(rows))
    assert [c for c, _ in ech] == pivots_ref
    for (c, row), ref_row in zip(ech, reduced_ref):
        assert all(type(v) is int for v in row.values())
        assert {j: Fraction(v, row[c]) for j, v in row.items()} == {
            j: x for j, x in enumerate(ref_row) if x}

    N = rl.nullspace(A)
    assert (N.rows, N.cols) == (n - len(pivots_ref), n)
    assert list(N) == list(map(tuple, ref_nullspace(rows, n)))
    assert_reduced(N)
    assert all(type(x) is Fraction for row in N for x in row)


def greedy_column_basis(B):
    """Columns of B, in increasing j, each kept when it raises the rank of
    the columns kept so far, with their indices."""
    def columns(idx):
        return rl.mat([[row[c] for c in idx] for row in B], B.rows, len(idx))

    pivots = []
    for j in range(B.cols):
        if rl.rank(columns(pivots + [j])) == len(pivots) + 1:
            pivots.append(j)
    return columns(pivots), pivots


def greedy_complement_columns(B):
    """Unit columns e_i, in increasing i, each kept when it raises the rank
    of the independent columns of B and the unit columns kept so far."""
    n = B.rows
    rows = [list(row) for row in B]
    chosen = []
    current = B.cols
    for i in range(n):
        if current == n:
            break
        candidate = [rows[j] + [Fraction(int(j == i))] for j in range(n)]
        if rl.rank(rl.mat(candidate, n, current + 1)) == current + 1:
            rows = candidate
            chosen.append(i)
            current += 1
    return rl.mat([[int(j == i) for i in chosen] for j in range(n)], n, len(chosen))


def ref_quotient_maps(B):
    """(proj, section) from a column basis of B, the greedy complement and
    the inverse of the two side by side: proj is the rows of the inverse
    that belong to the complement."""
    basis, pivots = greedy_column_basis(B)
    n, r = B.rows, len(pivots)
    comp = greedy_complement_columns(basis)
    if r == n:
        return rl.zeros(0, n), comp
    inv = rl.inverse(rl.hstack(basis, comp))
    return rl.mat(list(inv)[r:], n - r, n), comp


@st.composite
def column_cases(draw):
    """An n x c matrix, mostly zeros, often with a zero column and a
    column that is a multiple of another."""
    n, c = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    cols = draw(st.lists(st.lists(sparse_cells, min_size=n, max_size=n), min_size=c, max_size=c))
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), [0] * n)
    if cols and draw(st.booleans()):
        k = draw(st.integers(-3, 3))
        cols.insert(draw(st.integers(0, len(cols))), [k * Fraction(x) for x in draw(st.sampled_from(cols))])
    return rl.mat([[col[i] for col in cols] for i in range(n)], n, len(cols))


@given(column_cases())
@settings(max_examples=200, deadline=None)
def test_quotient_maps_match_the_greedy_complement(B):
    proj, section = rl.quotient_maps(B)
    assert (proj, section) == ref_quotient_maps(B)
    assert all(type(x) is Fraction for M in (proj, section) for row in M for x in row)
    assert_reduced(proj)
    assert_reduced(section)
    assert rl.complement_columns(B) == section


def test_kernel_basis_checks_every_vector_against_every_row():
    rows = [{0: 1, 1: -1}, {1: 2, 2: -2}]
    # integer vectors with their denominators: (1, 1, 1) / 1
    assert rl.kernel_basis(rows, 3) == [([1, 1, 1], 1)]
    # the rows are left as they are
    assert rows == [{0: 1, 1: -1}, {1: 2, 2: -2}]
    assert rl.kernel_basis([], 2) == [([1, 0], 1), ([0, 1], 1)]
    assert rl.kernel_basis([{0: 3}], 1) == []


@st.composite
def integer_systems(draw):
    """(rows, full): dense integer rows over n <= 7 columns.  A full system
    is the unit rows of the columns it meets, mixed by row operations, with
    combinations of them added and each row scaled: a pivot in every
    column it meets.  Otherwise random rows, with one met column repeated as a
    nonzero multiple in another, so the rank falls short of the columns
    met."""
    n = draw(st.integers(2, 7))
    full = draw(st.booleans())
    small = st.integers(-3, 3)
    if full:
        met = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        rows = [[int(j == c) for j in range(n)] for c in met]
        for _ in range(draw(st.integers(0, 8))):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            if i != j:
                k = draw(small)
                rows[j] = [a + k * b for a, b in zip(rows[j], rows[i])]
        for _ in range(draw(st.integers(0, 3))):
            ks = draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
            rows.insert(draw(st.integers(0, len(rows))),
                        [sum(k * row[j] for k, row in zip(ks, rows)) for j in range(n)])
        rows = [[k * x for x in row] for row, k in zip(rows, draw(
            st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows))))]
    else:
        cells = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
        rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=7))
        c0, c1 = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[0][c0] = rows[0][c0] or 1
        k = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        for row in rows:
            row[c1] = k * row[c0]
    return rows, full


@given(integer_systems())
@settings(max_examples=200, deadline=None)
def test_echelon_agrees_with_sympy_with_and_without_full_column_rank(case):
    # with a pivot in every column the rows meet, echelon returns the unit
    # rows at once; the reduced echelon form is unique, so sympy agrees
    rows, full = case
    n = len(rows[0])
    ech = rl.echelon([{j: x for j, x in enumerate(row) if x} for row in rows])
    R, pivots = sympy.Matrix(rows).rref()
    assert [c for c, _ in ech] == list(pivots)
    for i, (c, row) in enumerate(ech):
        assert [sympy.Rational(row.get(j, 0), row[c]) for j in range(n)] == list(R.row(i))
    met = {j for row in rows for j, x in enumerate(row) if x}
    assert (set(pivots) == met) == full
    if full:
        assert ech == [(c, {c: 1}) for c in sorted(met)]


@given(integer_systems(), st.randoms(use_true_random=False))
@example(([[1, 2], [0, 3]], True), random.Random(0))  # an empty kernel
@settings(max_examples=200, deadline=None)
def test_kernel_form_of_a_recombined_kernel_basis_is_the_kernel_basis(case, rng):
    # the lemma of kernel_form: the reduced echelon form of the kernel,
    # read from the right, is kernel_basis's basis, whatever basis of the
    # kernel it is read from; here a unit triangular mix of kernel_basis's
    # vectors, scaled, shuffled and each over a denominator of its own
    rows, _ = case
    n = len(rows[0])
    basis = rl.kernel_basis([{j: x for j, x in enumerate(row) if x} for row in rows], n)
    k = len(basis)
    mix = [[1 if i == j else rng.randint(-3, 3) if j < i else 0 for j in range(k)]
           for i in range(k)]
    vectors = []
    for i in range(k):
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 5))
        entries = [scale * sum(Fraction(c * ints[j], den) for c, (ints, den) in zip(mix[i], basis))
                   for j in range(n)]
        den = lcm(*[x.denominator for x in entries]) * rng.randint(1, 3)
        vectors.append(([int(x * den) for x in entries], den))
    rng.shuffle(vectors)
    assert rl.kernel_form(vectors, n) == basis


@pytest.mark.parametrize("ncols", range(6))
def test_kernel_basis_of_no_rows_is_the_unit_basis_with_no_elimination(monkeypatch, ncols):
    def refused(rows):
        raise AssertionError("no rows, nothing to eliminate")

    monkeypatch.setattr(rl, "echelon", refused)
    assert rl.kernel_basis([], ncols) == [([int(j == f) for j in range(ncols)], 1)
                                          for f in range(ncols)]


@pytest.mark.parametrize("n", range(6))
def test_the_rank_of_an_identity_takes_no_elimination(monkeypatch, n):
    # I / 2 and I plus one unit entry above the diagonal (2 I for n = 1)
    # are not identities, and are eliminated
    echelon, calls = rl.echelon, []
    monkeypatch.setattr(rl, "echelon", lambda rows: calls.append(len(rows)) or echelon(rows))
    assert rl.rank(rl.identity(n)) == n and calls == []
    if n:
        upper = [[int(i == j) + int((i, j) == (0, n - 1)) for j in range(n)] for i in range(n)]
        assert rl.rank(rl.scale(rl.identity(n), Fraction(1, 2))) == n
        assert rl.rank(rl.mat(upper)) == n
        assert calls == [n, n]


def test_kernel_basis_refuses_vectors_that_fail_a_row(monkeypatch):
    echelon = rl.echelon

    def off_by_one(rows):  # one wrong entry in a free column of the first pivot row
        (c, row), *rest = echelon(rows)
        f = next(j for j in row if j != c)
        return [(c, {**row, f: row[f] + row[c]})] + rest

    monkeypatch.setattr(rl, "echelon", off_by_one)
    with pytest.raises(ArithmeticError, match="fails an equation"):
        rl.kernel_basis([{0: 1, 1: -1}, {1: 2, 2: -2}], 3)


def test_kernel_basis_checks_a_row_that_meets_a_vector_in_one_column(monkeypatch):
    echelon = rl.echelon

    def last_pivot_lost(rows):  # column 2 turns free: its vector e_2 fails the last row
        return echelon(rows)[:-1]

    monkeypatch.setattr(rl, "echelon", last_pivot_lost)
    # e_2 meets the rows only at column 2 of the last row; (1, 1, 0) passes both rows
    with pytest.raises(ArithmeticError, match="fails an equation"):
        rl.kernel_basis([{0: 1, 1: -1}, {2: 3}], 3)


def test_diagonal_blocks_refuse_entries_off_the_blocks():
    A = rl.mat([[2, 0, 0], [0, 3, Fraction(1, 2)], [0, 5, 7]])
    assert rl.diagonal_blocks(A, [1, 2], [1, 2]) == [
        rl.mat([[2]]), rl.mat([[3, Fraction(1, 2)], [5, 7]])]
    assert rl.diagonal_blocks(A, [2, 1], [2, 1]) is None
    with pytest.raises(ValueError, match="do not tile"):
        rl.diagonal_blocks(A, [1, 1], [1, 2])
