"""Exact linear algebra over the rationals.

Every matrix is a Mat: its shape (rows x cols), its integer numerator
rows num and one positive common denominator den, so entry (i, j) is
num[i][j] / den.  A Mat is always reduced, gcd(den, every numerator)
= 1 (a zero matrix has den 1), so equal values give equal Mats and
equality and is_zero compare integers.  The shape is part of the value,
so an m x 0 or a 0 x n matrix is as well defined as any other, products
with a zero dimension come out with the right shape, and no function
takes a column count beside its matrix.  mat(x, m, n) is the one
boundary constructor: it takes nested rows (or a Mat) and checks the
shape, and exact(x) admits an entry only if it is an integer or a
Fraction.  over and stack_rows build a Mat from integers the library
already holds.  Reading M[i] gives row i as a tuple of Fractions, so a
write into it raises TypeError; no Mat, and no list in num, is written
in place once built, so matrices share rows freely.  The hot paths run
on Python integers:

- matmul builds row i of the product over A.den * B.den as the sum of
  a * (row k of B's numerators) over the nonzero numerators a of row i
  of A (Gustavson's row-by-row product), so its cost follows the nonzero
  entries of A, and reduces by one gcd, building no Fraction; mat_add,
  scale and the stacks work over the lcm of the denominators;
- echelon is the one elimination routine.  It takes sparse rows, each a
  dict from column to integer, and runs a fraction-free reduced echelon
  with pivots on the leading column, per-row gcd normalization and back
  substitution, skipped when the forward step leaves a pivot in every
  column the rows meet (the reduced form is then the unit rows).  A
  reduction step drops the entry it cancels, and a row is rebuilt to
  drop zero entries only when it has one.  The cost follows the nonzero
  entries, not rows x cols, which matters for the wide, mostly-zero
  intertwining systems of hom spaces; rref, rank, nullspace and solve
  hand it the numerator rows of their matrix, and quiver.hom_basis hands
  it its equations directly;
- kernel_basis reads a kernel basis straight off the sparse echelon
  rows (with no rows, the unit basis at once), as integer vectors each
  with its denominator, and checks every basis vector against every
  input row with integer dot products, taking only the rows that meet
  the vector's nonzero columns, through an index from each column to its
  rows built once per call (any other row has dot product 0);
- rank_profiles reads the pivot columns and the rows independent of
  the rows before them off echelon's forward step alone;
- minimal_polynomial powers the diagonal blocks of a block-diagonal
  matrix on their own and adds one power per degree to one growing
  echelon, through the forward step _reduce that echelon runs too;
- quotient_maps reads both of its maps off one reduced echelon.

Star arguments are unpacked from lists, never from generators: CPython
builds the argument tuple of a generator in ten slots and shrinks it,
and the shrunk tuples pile up in its per-size tuple free lists, which
raised the peak memory of a verify run by about 0.35 MB.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, islice
from math import gcd, lcm
from operator import add, index, mul

IntRows = list[list[int]]
#: an integer vector and its positive denominator: the rational vector ints / den
IntVector = tuple[list[int], int]

_ONE = Fraction(1)


class Mat:
    """A rows x cols rational matrix: entry (i, j) is num[i][j] / den.

    num holds rows lists of cols integers and den > 0, reduced so that
    gcd(den, every numerator) = 1.  len(M) is the row count, M[i] is row
    i as a tuple of Fractions and iteration runs over the rows; two
    matrices are equal when their shapes and entries are.  A Mat is
    unhashable, and it is never equal to anything but a Mat.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, num: IntRows, den: int):
        self.rows = rows
        self.cols = cols
        self.num = num
        self.den = den

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols and self.den == other.den
                and self.num == other.num)

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.num[i])

    def __iter__(self):
        return map(self.__getitem__, range(self.rows))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self)
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


def over(num: IntRows, den: int, m: int, n: int) -> Mat:
    """The m x n matrix num / den, reduced; num is m lists of n integers, den > 0.

    The integers are taken as they are: mat is the checked constructor.
    """
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            den //= g
            num = [[x // g for x in row] for row in num]
    return Mat(m, n, num, den)


def stack_rows(vectors: list[IntVector], n: int) -> Mat:
    """The matrix whose row i is ints_i / den_i, for (ints_i, den_i) in vectors,
    each ints_i a list of n integers and den_i > 0."""
    den = lcm(*[d for _, d in vectors])
    num = [ints if d == den else [x * (den // d) for x in ints] for ints, d in vectors]
    return over(num, den, len(vectors), n)


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
    ints, den = cleared([v for row in data for v in row])
    it = iter(ints)
    return over([list(islice(it, n)) for _ in range(m)], den, m, n)


def zeros(m: int, n: int) -> Mat:
    return Mat(m, n, [[0] * n] * m, 1)


def identity(n: int) -> Mat:
    return Mat(n, n, [[int(i == j) for j in range(n)] for i in range(n)], 1)


def transpose(A: Mat) -> Mat:
    num = list(map(list, zip(*A.num))) if A.rows else [[] for _ in range(A.cols)]
    return Mat(A.cols, A.rows, num, A.den)


def cleared(entries) -> tuple[list[int], int]:
    """(integers, den) with entries == integers / den, den the lcm of the denominators."""
    den = lcm(*{x.denominator for x in entries})
    if den == 1:
        return [x.numerator for x in entries], 1
    return [x.numerator * (den // x.denominator) for x in entries], den


def _scaled(A: Mat, den: int) -> IntRows:
    """The numerators of A over den, a multiple of A.den.

    Over the lcm of the denominators of reduced matrices the numerators
    stay reduced: a prime power dividing the lcm exactly divides the
    denominator of one of them, whose numerators it does not all divide.
    """
    f = den // A.den
    if f == 1:
        return A.num
    return [[f * x for x in row] for row in A.num]


def flatten(blocks) -> IntVector:
    """The entries of the blocks, row by row and block after block, as integers
    over the lcm of their denominators."""
    blocks = list(blocks)
    den = lcm(*[B.den for B in blocks])
    return list(chain.from_iterable(chain.from_iterable(_scaled(B, den) for B in blocks))), den


def matmul(A: Mat, B: Mat) -> Mat:
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    if not (A.rows and A.cols and B.cols):
        return zeros(A.rows, B.cols)
    zero = [0] * B.cols
    num = []
    for row in A.num:
        out = zero  # the sum of a * B.num[k] over the nonzero a = row[k]
        for a, b in compress(zip(row, B.num), row):
            if out is zero:
                out = b if a == 1 else list(map(a.__mul__, b))
            else:
                out = list(map(add, out, map(a.__mul__, b)))
        num.append(out)
    return over(num, A.den * B.den, A.rows, B.cols)


def mat_add(A: Mat, B: Mat) -> Mat:
    if A.rows != B.rows or A.cols != B.cols:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} + {B.rows}x{B.cols}")
    den = lcm(A.den, B.den)
    num = [list(map(add, ra, rb)) for ra, rb in zip(_scaled(A, den), _scaled(B, den))]
    return over(num, den, A.rows, A.cols)


def scale(A: Mat, c) -> Mat:
    c = exact(c)
    if c == 1:
        return A
    p = c.numerator
    return over([[p * x for x in row] for row in A.num], A.den * c.denominator,
                A.rows, A.cols)


def hstack(A: Mat, B: Mat) -> Mat:
    if A.rows != B.rows:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} beside {B.rows}x{B.cols}")
    den = lcm(A.den, B.den)
    num = [ra + rb for ra, rb in zip(_scaled(A, den), _scaled(B, den))]
    return Mat(A.rows, A.cols + B.cols, num, den)


def vstack(A: Mat, B: Mat) -> Mat:
    if A.cols != B.cols:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} above {B.rows}x{B.cols}")
    den = lcm(A.den, B.den)
    return Mat(A.rows + B.rows, A.cols, _scaled(A, den) + _scaled(B, den), den)


def block_diag(A: Mat, B: Mat) -> Mat:
    den = lcm(A.den, B.den)
    right, left = [0] * B.cols, [0] * A.cols
    num = [row + right for row in _scaled(A, den)] + [left + row for row in _scaled(B, den)]
    return Mat(A.rows + B.rows, A.cols + B.cols, num, den)


def diagonal_blocks(A: Mat, rows: list[int], cols: list[int]) -> list[Mat] | None:
    """The diagonal blocks of A cut into row blocks of the sizes rows and
    column blocks of the sizes cols, or None when A is nonzero off them."""
    if sum(rows) != A.rows or sum(cols) != A.cols or len(rows) != len(cols):
        raise ValueError(f"blocks {rows} x {cols} do not tile a {A.rows}x{A.cols} matrix")
    out = []
    r0 = c0 = 0
    for m, n in zip(rows, cols):
        c1 = c0 + n
        num = []
        for row in A.num[r0:r0 + m]:
            if any(row[:c0]) or any(row[c1:]):
                return None
            num.append(row[c0:c1])
        out.append(over(num, A.den, m, n))
        r0, c0 = r0 + m, c1
    return out


def is_zero(A: Mat) -> bool:
    return not any(map(any, A.num))


Row = dict[int, int]


def _normalized(row: Row) -> Row:
    """row with its zero entries dropped and divided by the gcd of the rest;
    a row with no zero entry is not rebuilt to drop them."""
    if 0 in row.values():
        row = {j: v for j, v in row.items() if v}
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _sparse_rows(A: Mat) -> list[Row]:
    """The nonzero numerator rows of A, as sparse rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in A.num if any(row)]


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
        del out[c]  # a * row[c] - b * p[c] = 0
        row = _normalized(out)
    return row


def _forward(rows: list[Row]) -> tuple[dict[int, Row], list[int]]:
    """The forward step of echelon: each row in turn reduced by _reduce
    and kept as the pivot row of its leading column unless it reduces to
    zero.  Returns the pivot rows by column and the indices of the rows kept."""
    pivots: dict[int, Row] = {}
    kept = []
    for i, row in enumerate(rows):
        row = _reduce(row, pivots)
        if row:
            pivots[min(row)] = row
            kept.append(i)
    return pivots, kept


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

    When every pivot row lies in the pivot columns, the forward step has
    left a pivot in every column the rows meet: the |pivots| independent
    pivot rows span all of Q^pivots, which holds the input rows.  The
    reduced echelon form is then the identity there, and the unit rows
    {c: 1} are returned with no back substitution.
    """
    pivots, _ = _forward(rows)
    order = sorted(pivots)
    if all(map(pivots.keys().__ge__, map(dict.keys, pivots.values()))):
        return [(c, {c: 1}) for c in order]
    for c in reversed(order):
        p = pivots[c]
        hits = [k for k in p if k != c and k in pivots]
        if not hits:
            continue
        den = lcm(*[pivots[k][k] for k in hits])
        out = {j: den * v for j, v in p.items()}
        for k in hits:
            q = pivots[k]
            f = p[k] * (den // q[k])
            for j, v in q.items():
                out[j] = out.get(j, 0) - f * v
        pivots[c] = _normalized(out)
    return [(c, pivots[c]) for c in order]


def _echelon_row(row: Row, c: int, n: int) -> IntVector:
    """The reduced echelon row over Q of a pivot row leading at c: row / row[c]."""
    s = 1 if row[c] > 0 else -1
    dense = [0] * n
    for j, x in row.items():
        dense[j] = s * x
    return dense, s * row[c]


def kernel_basis(rows: list[Row], ncols: int) -> list[IntVector]:
    """Basis of {x in Q^ncols : row . x = 0 for every row}, checked exactly.

    Read off the reduced echelon form: one vector per free column f,
    with 1 at f and minus the reduced echelon entries in column f at the
    pivot columns.  Each comes as (ints, den), the integer vector ints
    with gcd 1 and its denominator den > 0, the entry of ints at f.  The
    integer dot product of every ints with every input row must vanish;
    ArithmeticError is raised otherwise.  A row that meets no nonzero
    column of ints has dot product 0 with it, so each ints is dotted only
    with the rows that meet its nonzero columns, found through one index
    from each column to the rows nonzero there; that is the same check.
    With no rows there is no equation: the basis is the unit vectors, in
    column order.
    """
    if not rows:
        return [([int(j == f) for j in range(ncols)], 1) for f in range(ncols)]
    ech = echelon(rows)
    pivot_set = {c for c, _ in ech}
    hits: dict[int, list[tuple[int, Row]]] = {
        f: [] for f in range(ncols) if f not in pivot_set}
    for c, row in ech:
        for f in row:
            if f != c:
                hits[f].append((c, row))
    basis = []
    for f, column in hits.items():
        den = lcm(*[row[c] for c, row in column])
        v = [0] * ncols
        v[f] = den
        for c, row in column:
            v[c] = -row[f] * den // row[c]
        g = gcd(*v)
        basis.append(([x // g for x in v], den // g))
    if not basis:
        return basis
    meets: list[list[int]] = [[] for _ in range(ncols)]  # column -> the rows nonzero there
    for r, row in enumerate(rows):
        for j in row:
            meets[j].append(r)
    for ints, _ in basis:
        for r in set(chain.from_iterable(compress(meets, ints))):
            row = rows[r]
            if sum(map(mul, row.values(), map(ints.__getitem__, row))):
                raise ArithmeticError("a kernel vector fails an equation of its system")
    return basis


def rref(A: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form over Q (zero rows dropped) and pivot columns."""
    ech = echelon(_sparse_rows(A))
    return stack_rows([_echelon_row(row, c, A.cols) for c, row in ech], A.cols), [c for c, _ in ech]


def rank_profiles(A: Mat) -> tuple[list[int], list[int]]:
    """(rows, cols): the rows of A that are not combinations of the rows
    before them, and the pivot columns of A, both in increasing order.

    Both come from one forward elimination (_forward): _reduce takes row
    i to zero exactly when it lies in the span of the rows before it, so
    the rows kept as pivot rows are those rows, the pivot columns of the
    reduced echelon form of A^T.  The pivot rows are in echelon form with
    the row space of A, so their leading columns are the pivot columns
    of A.
    """
    pivots, rows = _forward([{j: x for j, x in enumerate(row) if x} for row in A.num])
    return rows, sorted(pivots)


def rank(A: Mat) -> int:
    return len(echelon(_sparse_rows(A)))


def nullspace(A: Mat) -> Mat:
    """Basis of the right kernel {x : A @ x = 0}, as the rows of a
    (cols - rank) x cols matrix."""
    return stack_rows(kernel_basis(_sparse_rows(A), A.cols), A.cols)


def solve(A: Mat, B: Mat) -> Mat | None:
    """Some X with A @ X = B (free coordinates zero), or None if inconsistent."""
    na, nb = A.cols, B.cols
    X = [([0] * nb, 1)] * na
    for c, row in echelon(_sparse_rows(hstack(A, B))):
        if c >= na:
            return None
        ints, den = _echelon_row(row, c, na + nb)
        X[c] = ints[na:], den
    return stack_rows(X, nb)


def inverse(A: Mat) -> Mat | None:
    """Exact inverse of a square matrix, or None when singular."""
    return solve(A, identity(A.rows))


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
    rows = [(ints[::-1], den) for ints, den in reversed(kernel_basis(flipped, n))]
    free = [next(i for i, x in enumerate(ints) if x) for ints, _ in rows]
    section = Mat(n, len(free), [[int(i == f) for f in free] for i in range(n)], 1)
    return stack_rows(rows, n), section


def complement_columns(B: Mat) -> Mat:
    """Unit columns extending col(B) to Q^n: the section of quotient_maps(B);
    kept while perfbench's layer trace names it (ROADMAP item 10)."""
    return quotient_maps(B)[1]


def minimal_polynomial(*blocks: Mat) -> list[Fraction]:
    """Monic minimal polynomial, coefficients low to high, of the block-diagonal
    matrix with the given square diagonal blocks (a single matrix is one block).

    The powers of a block-diagonal matrix are the block-diagonal matrices
    of the blocks' powers, so only the blocks are powered.  One echelon
    grows with the degree: B^k, its blocks flattened to a vector of length
    size of integers over den, enters as one row with the tag den at
    column size + k, that is den * (B^k, e_k), and _reduce takes it
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
        ints, den = flatten(powers)
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
