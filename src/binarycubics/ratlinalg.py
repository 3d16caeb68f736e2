"""Exact linear algebra over the rationals.

Every matrix is a Mat: its shape (rows x cols) plus its entries as a
list of row lists of Fractions.  The shape is part of the value, so an
m x 0 or a 0 x n matrix is as well defined as any other, products with
a zero dimension come out with the right shape, and no function takes a
column count beside its matrix.  mat(x, m, n) is the one boundary
constructor: it takes nested rows (or a Mat) and checks the shape, and
exact(x) admits an entry only if it is an integer or a Fraction.
The hot paths run on Python integers:

- matmul clears denominators once per row of A and once per column of
  B, takes integer dot products and builds one Fraction per entry of
  the product, instead of a Fraction multiply and add per term;
- echelon is the one elimination routine.  It takes sparse rows, each a
  dict from column to integer, and runs a fraction-free reduced echelon
  with pivots on the leading column, per-row gcd normalization and back
  substitution.  The cost follows the nonzero entries, not rows x cols,
  which matters for the wide, mostly-zero intertwining systems of hom
  spaces; rref, rank, nullspace and solve clear the rows of their
  matrix into it, and quiver.hom_basis hands it its equations directly;
- kernel_basis reads a kernel basis straight off the sparse echelon
  rows, one Fraction per nonzero coordinate, and checks every basis
  vector against every input row with integer dot products;
- minimal_polynomial powers the diagonal blocks of a block-diagonal
  matrix on their own and adds one power per degree to one growing
  echelon, through the forward step _reduce that echelon runs too;
- quotient_maps reads both of its maps off one reduced echelon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul

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


def exact(x) -> Fraction:
    """x as a Fraction: x must be a Fraction or an integer (numpy integers too).

    Floats, strings and bools raise TypeError: 0.1 is not 1/10, and
    "1.5" is text, so neither is turned into a number silently.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise TypeError(f"{x!r} is not an integer or a Fraction")
    return Fraction(index(x))


def integer(x) -> int:
    """x as an int if it has __index__ (numpy integers too); a bool, a float or
    anything else raises TypeError, so True is not 1 and 1.0 is not truncated."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise TypeError(f"{x!r} is not an integer")
    return index(x)


def mat(x, m: int | None = None, n: int | None = None) -> Mat:
    """The m x n matrix given as nested rows or as a Mat; ValueError on another shape.

    An omitted size is read off x: m is its number of rows and n the
    length of its first row (0 when it has none).  A Mat of the right
    shape is returned as it is; nested rows go through exact, so an
    entry that is not an integer or a Fraction raises TypeError.
    """
    if isinstance(x, Mat):
        if (m is None or x.rows == m) and (n is None or x.cols == n):
            return x
        raise ValueError(f"expected a {m}x{n} matrix, got {x.rows}x{x.cols}")
    data = [[exact(v) for v in row] for row in x]
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


def cleared(entries) -> tuple[list[int], int]:
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
    cols = [cleared(col) for col in zip(*B.data)]
    out = []
    for row in A.data:
        ints, da = cleared(row)
        out.append([Fraction(sum(map(mul, ints, cb)), da * db) for cb, db in cols])
    return Mat(A.rows, B.cols, out)


def mat_add(A: Mat, B: Mat) -> Mat:
    if A.rows != B.rows or A.cols != B.cols:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} + {B.rows}x{B.cols}")
    return Mat(A.rows, A.cols, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A.data, B.data)])


def scale(A: Mat, c) -> Mat:
    c = exact(c)
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


Row = dict[int, int]


def _normalized(row: Row) -> Row:
    """row with its zero entries dropped and divided by the gcd of the rest."""
    row = {j: v for j, v in row.items() if v}
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _sparse_rows(A: Mat) -> list[Row]:
    """The nonzero rows of A, each cleared of its denominators."""
    rows = []
    for row in A.data:
        cols = [j for j, x in enumerate(row) if x]
        if cols:
            ints, _ = cleared([row[j] for j in cols])
            rows.append(dict(zip(cols, ints)))
    return rows


def _reduce(row: Row, pivots: dict[int, Row]) -> Row:
    """row normalized and reduced on its leading column by the pivot row
    there (pivots maps a column to its row) until that column has none."""
    row = _normalized(row)
    while row:
        c = min(row)
        p = pivots.get(c)
        if p is None:
            break
        g = gcd(p[c], row[c])
        a, b = p[c] // g, row[c] // g
        out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
        for j, v in p.items():
            out[j] = out.get(j, 0) - b * v
        row = _normalized(out)
    return row


def echelon(rows: list[Row]) -> list[tuple[int, Row]]:
    """Reduced row echelon form of sparse integer rows: (pivot column, row) pairs.

    The pivot columns come in increasing order.  Each row is zero at
    every pivot column but its own and gcd-normalized; dividing it by its
    pivot entry gives the reduced echelon row over Q.  Zero rows drop out
    and the input rows are left as they are.

    The elimination is fraction-free.  Forward, _reduce takes each row in
    turn down to a free leading column, where it becomes a pivot row.
    Back substitution then clears, from the last pivot row to the first,
    the other pivot columns of each row with the rows already reduced;
    since those are zero at every pivot column but their own, one common
    multiple of their pivots clears them all in one pass.  The reduced
    echelon form of a matrix is unique, so the rows over Q and the pivots
    do not depend on the order of the rows or on which row becomes the
    pivot of a column: they are those of any Gauss-Jordan elimination.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        row = _reduce(row, pivots)
        if row:
            pivots[min(row)] = row
    order = sorted(pivots)
    for c in reversed(order):
        p = pivots[c]
        hits = [k for k in p if k != c and k in pivots]
        if not hits:
            continue
        den = lcm(*(pivots[k][k] for k in hits))
        out = {j: den * v for j, v in p.items()}
        for k in hits:
            q = pivots[k]
            f = p[k] * (den // q[k])
            for j, v in q.items():
                out[j] = out.get(j, 0) - f * v
        pivots[c] = _normalized(out)
    return [(c, pivots[c]) for c in order]


def kernel_basis(rows: list[Row], ncols: int) -> list[Vector]:
    """Basis of {x in Q^ncols : row . x = 0 for every row}, checked exactly.

    Read off the reduced echelon form: one vector per free column f,
    with 1 at f and minus the reduced echelon entries in column f at the
    pivot columns.  Every vector is cleared of denominators and its
    integer dot product with every input row must vanish; ArithmeticError
    is raised otherwise.
    """
    ech = echelon(rows)
    pivot_set = {c for c, _ in ech}
    free = [f for f in range(ncols) if f not in pivot_set]
    at = {f: k for k, f in enumerate(free)}
    basis = [[_ZERO] * ncols for _ in free]
    for v, f in zip(basis, free):
        v[f] = _ONE
    for c, row in ech:
        pv = row[c]
        for f, x in row.items():
            if f != c:
                basis[at[f]][c] = Fraction(-x, pv)
    for v in basis:
        ints, _ = cleared(v)
        for row in rows:
            if sum(map(mul, row.values(), map(ints.__getitem__, row))):
                raise ArithmeticError("a kernel vector fails an equation of its system")
    return basis


def rref(A: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form over Q (zero rows dropped) and pivot columns."""
    out, pivots = [], []
    for c, row in echelon(_sparse_rows(A)):
        pv = row[c]
        dense = [_ZERO] * A.cols
        for j, x in row.items():
            dense[j] = Fraction(x, pv)
        out.append(dense)
        pivots.append(c)
    return Mat(len(out), A.cols, out), pivots


def rank(A: Mat) -> int:
    return len(echelon(_sparse_rows(A)))


def nullspace(A: Mat) -> Mat:
    """Basis of the right kernel {x : A @ x = 0}, as the rows of a
    (cols - rank) x cols matrix."""
    basis = kernel_basis(_sparse_rows(A), A.cols)
    return Mat(len(basis), A.cols, basis)


def solve(A: Mat, B: Mat) -> Mat | None:
    """Some X with A @ X = B (free coordinates zero), or None if inconsistent."""
    na, nb = A.cols, B.cols
    X = zeros(na, nb)
    for c, row in echelon(_sparse_rows(hstack(A, B))):
        if c >= na:
            return None
        pv = row[c]
        X.data[c] = [Fraction(row[na + j], pv) if na + j in row else _ZERO for j in range(nb)]
    return X


def inverse(A: Mat) -> Mat | None:
    """Exact inverse of a square matrix, or None when singular."""
    return solve(A, identity(A.rows))


def column_space_basis(A: Mat) -> tuple[Mat, list[int]]:
    """Columns of A forming a basis of the column space, with their indices."""
    pivots = [c for c, _ in echelon(_sparse_rows(A))]
    return Mat(A.rows, len(pivots), [[row[c] for c in pivots] for row in A.data]), pivots


def quotient_maps(B: Mat) -> tuple[Mat, Mat]:
    """(proj, section) presenting Q^n / col(B) for B with n rows.

    proj is q x n with kernel exactly col(B); section is n x q with
    proj @ section = I_q, q = n - rank(B).  The section's columns are the
    e_i, in increasing i, with e_i outside col(B) + span(e_0..e_(i-1)).

    Both come from one elimination of the columns of B with coordinate i
    at column n - 1 - i: the rows of proj are the kernel basis of that
    system, {y : y . b = 0 for every column b of B}, reversed back.  The
    vector of the free column n - 1 - f is 1 there, 0 at the other free
    columns and nonzero elsewhere only at pivot columns before it, so,
    reversed back, its first nonzero coordinate is f.  Hence
    proj @ section = I_q, and proj, of rank q and zero on col(B), has
    kernel col(B); with the section, that fixes proj.  The section's
    coordinates are the free ones: col(B) meets span(e_0..e_i) in the
    vectors leading at columns >= n - 1 - i, of dimension the number of
    pivots there, so the meet grows at i, that is e_i lies in
    col(B) + span(e_0..e_(i-1)), exactly when n - 1 - i is a pivot.
    """
    n = B.rows
    flipped = [{n - 1 - i: x for i, x in row.items()} for row in _sparse_rows(transpose(B))]
    rows = [v[::-1] for v in reversed(kernel_basis(flipped, n))]
    free = [next(i for i, x in enumerate(v) if x) for v in rows]
    section = Mat(n, len(free), [[_ONE if i == f else _ZERO for f in free] for i in range(n)])
    return Mat(len(rows), n, rows), section


def complement_columns(B: Mat) -> Mat:
    """Unit columns extending col(B) to Q^n: the section of quotient_maps(B)."""
    return quotient_maps(B)[1]


def minimal_polynomial(*blocks: Mat) -> list[Fraction]:
    """Monic minimal polynomial, coefficients low to high, of the block-diagonal
    matrix with the given square diagonal blocks (a single matrix is one block).

    The powers of a block-diagonal matrix are the block-diagonal matrices
    of the blocks' powers, so only the blocks are powered.  One echelon
    grows with the degree: B^k, its blocks flattened to a vector of length
    size and cleared to integers over den, enters as one row with the tag
    den at column size + k, that is den * (B^k, e_k), and _reduce takes it
    down by the pivot rows of the lower degrees.  The row is then a sum of
    t_j * (B^j, e_j) over j <= k, with t_j at column size + j.  No pivot
    sits at a tag column (the loop stops at the first), so if the row
    leads at a tag column its power part is zero: sum t_j * B^j = 0.  And
    t_k != 0: no pivot row has a tag at size + k, and each step scales the
    row by a nonzero integer.  B^0..B^(k-1) are independent, as their rows
    became pivots, so dividing by t_k gives the minimal polynomial.
    """
    n = sum(B.rows for B in blocks)
    if n == 0:
        return [_ONE]
    blocks = tuple(B for B in blocks if B.rows)
    powers = [identity(B.rows) for B in blocks]
    size = sum(B.rows * B.rows for B in blocks)
    pivots: dict[int, Row] = {}
    for k in range(n + 1):
        ints, den = cleared([x for P in powers for row in P.data for x in row])
        row = {j: v for j, v in enumerate(ints) if v}
        row[size + k] = den
        row = _reduce(row, pivots)
        c = min(row)
        if c >= size:
            return [Fraction(row.get(size + j, 0), row[size + k]) for j in range(k)] + [_ONE]
        pivots[c] = row
        powers = [matmul(P, B) for P, B in zip(powers, blocks)]
    raise ArithmeticError("minimal polynomial must exist by degree n")


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
