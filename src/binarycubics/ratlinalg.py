"""Exact linear algebra over the rationals.

Every matrix is a Mat: its shape (rows x cols) plus its entries as a
list of row lists of Fractions.  The shape is part of the value, so an
m x 0 or a 0 x n matrix is as well defined as any other, products with
a zero dimension come out with the right shape, and no function takes a
column count beside its matrix.  mat(x, m, n) is the one boundary
constructor: it takes nested rows (or a Mat) and checks the shape.
The hot paths run on Python integers:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vector = list[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(slots=True, repr=False)
class Mat:
    """A rows x cols rational matrix; data holds rows lists of cols Fractions.

    len(M) is the row count, M[i] is row i (a list) and iteration runs
    over the rows; two matrices are equal when their shapes and entries are.
    """

    rows: int
    cols: int
    data: list[list[Fraction]]

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, i: int) -> list[Fraction]:
        return self.data[i]

    def __iter__(self):
        return iter(self.data)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.data)
        return f"Mat({self.rows}x{self.cols}, [{body}])"


def mat(x, m: int | None = None, n: int | None = None) -> Mat:
    """The m x n matrix given as nested rows or as a Mat; ValueError on another shape.

    An omitted size is read off x: m is its number of rows and n the
    length of its first row (0 when it has none).  A Mat of the right
    shape is returned as it is.
    """
    if isinstance(x, Mat):
        if (m is None or x.rows == m) and (n is None or x.cols == n):
            return x
        raise ValueError(f"expected a {m}x{n} matrix, got {x.rows}x{x.cols}")
    data = [[Fraction(v) for v in row] for row in x]
    if m is None:
        m = len(data)
    if n is None:
        n = len(data[0]) if data else 0
    if len(data) != m or any(len(row) != n for row in data):
        raise ValueError(f"expected a {m}x{n} matrix")
    return Mat(m, n, data)


def zeros(m: int, n: int) -> Mat:
    return Mat(m, n, [[_ZERO] * n for _ in range(m)])


def identity(n: int) -> Mat:
    out = zeros(n, n)
    for i in range(n):
        out.data[i][i] = _ONE
    return out


def transpose(A: Mat) -> Mat:
    return Mat(A.cols, A.rows, [[row[j] for row in A.data] for j in range(A.cols)])


def _cleared(entries) -> tuple[list[int], int]:
    """(integers, den) with entries == integers / den, den the lcm of the denominators."""
    den = lcm(*{x.denominator for x in entries})
    if den == 1:
        return [x.numerator for x in entries], 1
    return [x.numerator * (den // x.denominator) for x in entries], den


def matmul(A: Mat, B: Mat) -> Mat:
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    if not (A.rows and A.cols and B.cols):
        return zeros(A.rows, B.cols)
    cols = [_cleared(col) for col in zip(*B.data)]
    out = []
    for row in A.data:
        ints, da = _cleared(row)
        out.append([Fraction(sum(map(mul, ints, cb)), da * db) for cb, db in cols])
    return Mat(A.rows, B.cols, out)


def mat_add(A: Mat, B: Mat) -> Mat:
    if A.rows != B.rows or A.cols != B.cols:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} + {B.rows}x{B.cols}")
    return Mat(A.rows, A.cols, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A.data, B.data)])


def scale(A: Mat, c) -> Mat:
    c = Fraction(c)
    return Mat(A.rows, A.cols, [[c * x for x in row] for row in A.data])


def hstack(A: Mat, B: Mat) -> Mat:
    if A.rows != B.rows:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} beside {B.rows}x{B.cols}")
    return Mat(A.rows, A.cols + B.cols, [ra + rb for ra, rb in zip(A.data, B.data)])


def vstack(A: Mat, B: Mat) -> Mat:
    if A.cols != B.cols:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} above {B.rows}x{B.cols}")
    return Mat(A.rows + B.rows, A.cols, [row[:] for row in A.data] + [row[:] for row in B.data])


def block_diag(A: Mat, B: Mat) -> Mat:
    out = [row + [_ZERO] * B.cols for row in A.data]
    out += [[_ZERO] * A.cols + row for row in B.data]
    return Mat(A.rows + B.rows, A.cols + B.cols, out)


def is_zero(A: Mat) -> bool:
    return all(x == 0 for row in A.data for x in row)


def _int_rows(A: list[list[Fraction]]) -> list[list[int]]:
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


def rref(A: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form over Q (zero rows dropped) and pivot columns."""
    rows = _int_rows(A.data)
    pivots = _rref_int(rows, A.cols)
    out = []
    for k, c in enumerate(pivots):
        pv = rows[k][c]
        out.append([Fraction(x, pv) for x in rows[k]])
    return Mat(len(out), A.cols, out), pivots


def rank(A: Mat) -> int:
    return len(rref(A)[1])


def nullspace(A: Mat) -> Mat:
    """Basis of the right kernel {x : A @ x = 0}, as the rows of a
    (cols - rank) x cols matrix."""
    n = A.cols
    rows = _int_rows(A.data)
    pivots = _rref_int(rows, n)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [_ZERO] * n
        v[f] = _ONE
        for k, c in enumerate(pivots):
            x = rows[k][f]
            if x:
                v[c] = Fraction(-x, rows[k][c])
        basis.append(v)
    return Mat(len(basis), n, basis)


def solve(A: Mat, B: Mat) -> Mat | None:
    """Some X with A @ X = B (free coordinates zero), or None if inconsistent."""
    na = A.cols
    R, pivots = rref(hstack(A, B))
    X = zeros(na, B.cols)
    for k, c in enumerate(pivots):
        if c >= na:
            return None
        X.data[c] = R[k][na:]
    return X


def inverse(A: Mat) -> Mat | None:
    """Exact inverse of a square matrix, or None when singular."""
    return solve(A, identity(A.rows))


def column_space_basis(A: Mat) -> tuple[Mat, list[int]]:
    """Columns of A forming a basis of the column space, with their indices."""
    _, pivots = rref(A)
    return Mat(A.rows, len(pivots), [[row[c] for c in pivots] for row in A.data]), pivots


def complement_columns(B: Mat) -> Mat:
    """Identity columns extending the independent columns of B (n x r) to a basis of Q^n."""
    n = B.rows
    rows = B.data
    chosen: list[int] = []
    current = B.cols
    for i in range(n):
        if current == n:
            break
        candidate = [rows[j] + [(_ONE if j == i else _ZERO)] for j in range(n)]
        if rank(Mat(n, current + 1, candidate)) == current + 1:
            rows = candidate
            chosen.append(i)
            current += 1
    return Mat(n, len(chosen), [[_ONE if j == i else _ZERO for i in chosen] for j in range(n)])


def quotient_maps(B: Mat) -> tuple[Mat, Mat]:
    """(proj, section) presenting Q^n / col(B) for B with n rows.

    proj is q x n with kernel exactly col(B); section is n x q with
    proj @ section = I_q.  q = n - rank(B).
    """
    basis, pivots = column_space_basis(B)
    n, r = B.rows, len(pivots)
    comp = complement_columns(basis)
    if r == n:
        return zeros(0, n), comp
    Minv = inverse(hstack(basis, comp))
    assert Minv is not None
    return Mat(n - r, n, Minv.data[r:]), comp


def minimal_polynomial(*blocks: Mat) -> list[Fraction]:
    """Monic minimal polynomial, coefficients low to high, of the block-diagonal
    matrix with the given square diagonal blocks (a single matrix is one block).

    The powers of a block-diagonal matrix are the block-diagonal matrices
    of the blocks' powers, so the first power that depends linearly on
    the lower ones is found from the blocks alone; the zero off-diagonal
    blocks never enter.
    """
    n = sum(B.rows for B in blocks)
    if n == 0:
        return [_ONE]
    blocks = tuple(B for B in blocks if B.rows)
    powers = [identity(B.rows) for B in blocks]
    size = sum(B.rows * B.rows for B in blocks)
    vecs: list[Vector] = []
    for k in range(n + 1):
        vec = [x for P in powers for row in P.data for x in row]
        if vecs:
            cols = transpose(Mat(len(vecs), size, vecs))
            sol = solve(cols, Mat(size, 1, [[v] for v in vec]))
            if sol is not None:
                coeffs = [sol[i][0] for i in range(len(vecs))]
                return [-c for c in coeffs] + [_ONE]
        vecs.append(vec)
        powers = [matmul(P, B) for P, B in zip(powers, blocks)]
    raise AssertionError("minimal polynomial must exist by degree n")


def eval_poly(coeffs: list[Fraction], A: Mat) -> Mat:
    """Evaluate a polynomial (coefficients low to high) at a square matrix."""
    n = A.rows
    out = scale(identity(n), coeffs[0]) if coeffs else zeros(n, n)
    power = identity(n)
    for c in coeffs[1:]:
        power = matmul(power, A)
        if c:
            out = mat_add(out, scale(power, c))
    return out
