"""Exact linear algebra over the rationals.

Matrices are plain lists of rows with Fraction (or int) entries; every
result comes back as Fractions.  The hot paths run on Python integers:

- matmul clears denominators once per row of A and once per column of
  B, takes integer dot products and builds one Fraction per entry of
  the product, instead of a Fraction multiply and add per term;
- elimination clears denominators row by row and runs a fraction-free
  integer reduced echelon with per-row gcd normalization, which keeps
  entry growth tame on the small dense systems that arise from quiver
  representations;
- nullspace reads its basis straight off the integer echelon rows, one
  Fraction per nonzero coordinate;
- minimal_polynomial takes a block-diagonal matrix as its diagonal
  blocks and powers each block on its own.

Shape conventions: an m x 0 matrix is a list of m empty rows, a 0 x n
matrix is the empty list.  Functions that cannot infer a column count
from an empty input take it explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Matrix = list[list[Fraction]]
Vector = list[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mat(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(m: int, n: int) -> Matrix:
    return [[_ZERO] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = _ONE
    return out


def _cleared(entries) -> tuple[list[int], int]:
    """(integers, den) with entries == integers / den, den the lcm of the denominators."""
    den = lcm(*{x.denominator for x in entries})
    if den == 1:
        return [x.numerator for x in entries], 1
    return [x.numerator * (den // x.denominator) for x in entries], den


def matmul(A: Matrix, B: Matrix) -> Matrix:
    if not A:
        return []
    k = len(A[0])
    if k != len(B):
        raise ValueError(f"shape mismatch: {len(A)}x{k} @ {len(B)}x?")
    if k == 0:
        raise ValueError("inner dimension 0: supply the result shape explicitly")
    cols = [_cleared(col) for col in zip(*B)]
    out = []
    for row in A:
        ints, da = _cleared(row)
        out.append([Fraction(sum(map(mul, ints, cb)), da * db) for cb, db in cols])
    return out


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def scale(A: Matrix, c) -> Matrix:
    c = Fraction(c)
    return [[c * x for x in row] for row in A]


def hstack(A: Matrix, B: Matrix) -> Matrix:
    return [ra + rb for ra, rb in zip(A, B)]


def vstack(A: Matrix, B: Matrix) -> Matrix:
    return [row[:] for row in A] + [row[:] for row in B]


def block_diag(A: Matrix, B: Matrix, na: int, nb: int) -> Matrix:
    """Block diagonal of A (?, na) and B (?, nb)."""
    out = [row + [_ZERO] * nb for row in A]
    out += [[_ZERO] * na + row for row in B]
    return out


def is_zero(A: Matrix) -> bool:
    return all(x == 0 for row in A for x in row)


def _int_rows(A: Matrix) -> list[list[int]]:
    rows = []
    for row in A:
        ints, _ = _cleared(row)
        g = 0
        for v in ints:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            ints = [v // g for v in ints]
        rows.append(ints)
    return rows


def _normalize(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return [v // g for v in row]
    return row


def _rref_int(rows: list[list[int]], ncols: int) -> list[int]:
    """In-place integer reduced echelon (rows scaled); returns pivot columns."""
    pivots: list[int] = []
    m = len(rows)
    r = 0
    for c in range(ncols):
        best = -1
        best_val = 0
        for i in range(r, m):
            v = rows[i][c]
            if v and (best < 0 or abs(v) < best_val):
                best, best_val = i, abs(v)
                if best_val == 1:
                    break
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv_row = rows[r]
        pv = piv_row[c]
        for i in range(m):
            if i == r:
                continue
            v = rows[i][c]
            if not v:
                continue
            g = gcd(pv, v)
            a, b = pv // g, v // g
            rows[i] = _normalize([a * x - b * y for x, y in zip(rows[i], piv_row)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def rref(A: Matrix, ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Q (zero rows dropped) and pivot columns."""
    if not A:
        return [], []
    n = ncols if ncols is not None else len(A[0])
    rows = _int_rows(A)
    pivots = _rref_int(rows, n)
    out = []
    for k, c in enumerate(pivots):
        pv = rows[k][c]
        out.append([Fraction(x, pv) for x in rows[k]])
    return out, pivots


def rank(A: Matrix, ncols: int | None = None) -> int:
    if not A:
        return 0
    return len(rref(A, ncols)[1])


def nullspace(A: Matrix, ncols: int) -> list[Vector]:
    """Basis of the right kernel {x : A @ x = 0} as length-ncols vectors."""
    if ncols == 0:
        return []
    if not A:
        return [[_ONE if j == i else _ZERO for j in range(ncols)] for i in range(ncols)]
    rows = _int_rows(A)
    pivots = _rref_int(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[f] = _ONE
        for k, c in enumerate(pivots):
            x = rows[k][f]
            if x:
                v[c] = Fraction(-x, rows[k][c])
        basis.append(v)
    return basis


def solve(A: Matrix, B: Matrix, ncols_a: int | None = None) -> Matrix | None:
    """Some X with A @ X = B (free coordinates zero), or None if inconsistent."""
    m = len(A)
    na = ncols_a if ncols_a is not None else (len(A[0]) if A else 0)
    nb = len(B[0]) if B else 0
    if m == 0:
        return zeros(na, nb)
    aug = [list(A[i]) + list(B[i]) for i in range(m)]
    R, pivots = rref(aug, na + nb)
    X = zeros(na, nb)
    for k, c in enumerate(pivots):
        if c >= na:
            return None
        X[c] = R[k][na:]
    return X


def inverse(A: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(A)
    if n == 0:
        return []
    return solve(A, identity(n), n)


def column_space_basis(A: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Columns of A forming a basis of the column space, with their indices."""
    if not A or ncols == 0:
        return [[] for _ in A], []
    _, pivots = rref(A, ncols)
    return [[row[c] for c in pivots] for row in A], pivots


def complement_columns(B: Matrix, n: int, r: int) -> Matrix:
    """Identity columns extending the r independent columns of B to a basis of Q^n."""
    rows = [list(row) for row in B] if r else [[] for _ in range(n)]
    chosen: list[int] = []
    current = r
    for i in range(n):
        if current == n:
            break
        candidate = [rows[j] + [(_ONE if j == i else _ZERO)] for j in range(n)]
        if rank(candidate, current + 1) == current + 1:
            rows = candidate
            chosen.append(i)
            current += 1
    return [[_ONE if j == i else _ZERO for i in chosen] for j in range(n)]


def quotient_maps(B: Matrix, n: int, ncols_b: int) -> tuple[Matrix, Matrix]:
    """(proj, section) presenting Q^n / col(B).

    proj is q x n with kernel exactly col(B); section is n x q with
    proj @ section = I_q.  q = n - rank(B).
    """
    basis, pivots = column_space_basis(B, ncols_b)
    r = len(pivots)
    comp = complement_columns(basis, n, r)
    q = n - r
    if q == 0:
        return [], [[] for _ in range(n)]
    M = hstack(basis, comp) if r else comp
    Minv = inverse(M)
    assert Minv is not None
    proj = Minv[r:]
    return proj, comp


def minimal_polynomial(*blocks: Matrix) -> list[Fraction]:
    """Monic minimal polynomial, coefficients low to high, of the block-diagonal
    matrix with the given square diagonal blocks (a single matrix is one block).

    The powers of a block-diagonal matrix are the block-diagonal matrices
    of the blocks' powers, so the first power that depends linearly on
    the lower ones is found from the blocks alone; the zero off-diagonal
    blocks never enter.
    """
    n = sum(len(B) for B in blocks)
    if n == 0:
        return [_ONE]
    blocks = tuple(B for B in blocks if B)
    powers = [identity(len(B)) for B in blocks]
    vecs: list[Vector] = []
    for k in range(n + 1):
        vec = [x for P in powers for row in P for x in row]
        if vecs:
            cols = [list(col) for col in zip(*vecs)]
            sol = solve(cols, [[v] for v in vec], len(vecs))
            if sol is not None:
                coeffs = [sol[i][0] for i in range(len(vecs))]
                return [-c for c in coeffs] + [_ONE]
        vecs.append(vec)
        powers = [matmul(P, B) for P, B in zip(powers, blocks)]
    raise AssertionError("minimal polynomial must exist by degree n")


def eval_poly(coeffs: list[Fraction], A: Matrix) -> Matrix:
    """Evaluate a polynomial (coefficients low to high) at a square matrix."""
    n = len(A)
    out = scale(identity(n), coeffs[0]) if coeffs else zeros(n, n)
    power = identity(n)
    for c in coeffs[1:]:
        power = matmul(power, A)
        if c:
            out = mat_add(out, scale(power, c))
    return out
