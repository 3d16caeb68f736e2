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
in place once built, so matrices share rows freely, and a function may
return one of its arguments.  The hot paths run on Python integers, and
an identity or a zero operand costs a scan of its integers, no arithmetic:

- matmul hands back the other factor itself when one factor is an
  identity, I B = B and A I = A, and zeros(m, n) when one is zero (or a
  dimension is 0), with no arithmetic.  A reduced Mat is an identity
  exactly when it is square, has den 1 and has the unit rows as its
  numerators, one list comparison against the unit rows that identity
  shares.
  Otherwise it builds row i of the product over A.den * B.den as the
  sum of a * (row k of B's numerators) over the nonzero numerators a of
  row i of A (Gustavson's row-by-row product, ACM TOMS 4, 1978), so its
  cost follows the nonzero entries of A, and reduces by one gcd,
  building no Fraction.  An all-zero row of A is passed by one any and
  gives the shared zero row, the nonzero columns of a row are walked
  through compress, and a coefficient 1 adds row k of B as it is, with
  no multiplication (a first such term is row k itself, shared);
  mat_add, scale and the stacks work over the lcm of the denominators,
  and hstack and vstack take any number of blocks;
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
- kernel_form gives kernel_basis's basis of a span from any spanning
  set, by one echelon of the vectors read from the right;
- rank_profiles reads the pivot columns and the rows independent of
  the rows before them off echelon's forward step alone;
- minimal_polynomial forms no power of its matrix: it takes the
  annihilators of unit vectors from their Krylov vectors, matrix-vector
  products on the integer numerators, in one growing echelon through the
  forward step _reduce that echelon runs too, and skips a unit vector
  that the polynomial found so far kills (krylov gives the same vectors
  as the rows of a Mat);
- rank reads n off an n x n identity, with no elimination;
- inverse hands back an identity as it is, I^-1 = I; otherwise it runs
  one echelon of [A | I] built from the nonzero entries of A, with no
  dense identity block, and reads the inverse off the unit columns;
- quotient_maps reads both of its maps off one reduced echelon.

matmul, the sparse rows of rref, rank, nullspace and solve, kernel_form,
rank_profiles and inverse find the nonzero entries of an integer row by
compress(columns, row), which passes the zeros in C, not by a
Python-level test per entry.

Star arguments are unpacked from lists, never from generators: CPython
builds the argument tuple of a generator in ten slots and shrinks it,
and the shrunk tuples pile up in its per-size tuple free lists, which
raised the peak memory of a verify run by about 0.35 MB.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, repeat
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
        widths = sorted({len(row) for row in data})
        got = (f"{len(data)}x{widths[0] if widths else 0}" if len(widths) < 2
               else f"rows of lengths {widths}")
        raise ValueError(f"expected a {m}x{n} matrix, got {got}")
    ints, den = cleared([v for row in data for v in row])
    it = iter(ints)
    return over([list(islice(it, n)) for _ in range(m)], den, m, n)


def zeros(m: int, n: int) -> Mat:
    return Mat(m, n, [[0] * n] * m, 1)


def _unit(i: int, n: int) -> list[int]:
    """Unit vector i of length n, as integers."""
    return [0] * i + [1] + [0] * (n - 1 - i)


@lru_cache(maxsize=64)
def _unit_rows(n: int) -> IntRows:
    """The unit rows of length n, built once per n and shared (never written)."""
    return [_unit(i, n) for i in range(n)]


def identity(n: int) -> Mat:
    return Mat(n, n, _unit_rows(n), 1)


def _is_identity(A: Mat) -> bool:
    """A is an identity matrix: square, den 1 and the unit rows as its
    numerators (A is reduced, so they are those integers exactly).  One
    list comparison against the shared unit rows, which stops at the first
    row that differs and passes a shared row by identity."""
    return A.den == 1 and A.cols == A.rows and A.num == _unit_rows(A.rows)


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
    if _is_identity(A):
        return B
    if _is_identity(B):
        return A
    if is_zero(A) or is_zero(B):  # also when a dimension is 0
        return zeros(A.rows, B.cols)
    zero, ks, brows = [0] * B.cols, range(A.cols), B.num
    num = []
    for row in A.num:
        if not any(row):
            num.append(zero)
            continue
        out = None  # the sum of a * B.num[k] over the nonzero a = row[k]
        for k in compress(ks, row):
            a, b = row[k], brows[k]
            if out is None:
                out = b if a == 1 else list(map(a.__mul__, b))
            elif a == 1:
                out = list(map(add, out, b))
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


def hstack(*blocks: Mat) -> Mat:
    """The blocks side by side, over the lcm of their denominators."""
    A = blocks[0]
    den = lcm(*[B.den for B in blocks])
    num, cols = _scaled(A, den), A.cols
    for B in blocks[1:]:
        if B.rows != A.rows:
            raise ValueError(f"shape mismatch: {A.rows}x{A.cols} beside {B.rows}x{B.cols}")
        num = list(map(add, num, _scaled(B, den)))
        cols += B.cols
    return Mat(A.rows, cols, num, den)


def vstack(*blocks: Mat) -> Mat:
    """The blocks one above the other, over the lcm of their denominators."""
    A, num = blocks[0], []
    den = lcm(*[B.den for B in blocks])
    for B in blocks:
        if B.cols != A.cols:
            raise ValueError(f"shape mismatch: {A.rows}x{A.cols} above {B.rows}x{B.cols}")
        num += _scaled(B, den)
    return Mat(len(num), A.cols, num, den)


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
    cols = range(A.cols)
    return [{j: row[j] for j in compress(cols, row)} for row in A.num if any(row)]


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
        return [(_unit(f, ncols), 1) for f in range(ncols)]
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


def kernel_form(vectors: list[IntVector], ncols: int) -> list[IntVector]:
    """The basis kernel_basis gives of the span of vectors, if it is the
    kernel of a system: reverse each vector, echelon, reverse back.

    Lemma: the reduced echelon form of a span, read from the right, is
    kernel_basis's basis of it.  kernel_basis gives one vector v_f per
    free column f, 1 at f, 0 at every other free column, and elsewhere
    nonzero only at pivot columns c < f, where a reduced echelon row
    leading at c can be nonzero at f.  So v_f is 1 at its last nonzero
    column f, and every other v_g is 0 there.  Reversed, coordinate j to
    ncols - 1 - j, the v_f lead at the columns ncols - 1 - f with entry
    1 and vanish at each other's leading columns: they are the reduced
    echelon rows of the reversed span, which are unique, so echelon of
    any spanning set gives them.  Reversed back, in increasing f, and as
    (ints, den) with gcd 1 and den the entry at f (_echelon_row), they
    are kernel_basis's vectors, integer for integer.  The denominators
    of vectors play no part: ints spans what ints / den spans.
    """
    cols = range(ncols)
    rows = [{ncols - 1 - j: ints[j] for j in compress(cols, ints)} for ints, _ in vectors]
    return [(ints[::-1], den) for ints, den in reversed(
        [_echelon_row(row, c, ncols) for c, row in echelon(rows)])]


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
    cols = range(A.cols)
    pivots, rows = _forward([{j: row[j] for j in compress(cols, row)} for row in A.num])
    return rows, sorted(pivots)


def rank(A: Mat) -> int:
    """The rank of A; an identity is read as n, with no elimination."""
    return A.rows if _is_identity(A) else len(echelon(_sparse_rows(A)))


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
    """Exact inverse of a square matrix, or None when singular; ValueError
    when A is not square.

    An identity is its own inverse and comes back as it is.  Otherwise
    one echelon of [N | I], N the numerators of A, built as sparse rows
    from the nonzero entries of N and the 1 at column n + i of row i.
    The n rows are independent, so A is invertible exactly when their n
    pivots lie in the columns of N; the reduced form is then [I | N^-1],
    and A^-1 = A.den * N^-1 is read off the unit columns over the lcm of
    the pivot entries.
    """
    n = A.rows
    if A.cols != n:
        raise ValueError(f"inverse of a non-square {n}x{A.cols} matrix")
    if _is_identity(A):
        return A
    cols = range(n)
    ech = echelon([{**{j: row[j] for j in compress(cols, row)}, n + i: 1}
                   for i, row in enumerate(A.num)])
    if any(c >= n for c, _ in ech):
        return None
    den = lcm(*[row[c] for c, row in ech])
    num = [[0] * n for _ in range(n)]
    for c, row in ech:
        f = A.den * (den // row[c])
        for j, x in row.items():
            if j >= n:
                num[c][j - n] = f * x
    return over(num, den, n, n)


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


def _matvec(N: IntRows, v: list[int]) -> list[int]:
    """N v for integer rows N and an integer vector v."""
    return [sum(map(mul, row, v)) for row in N]


def krylov(A: Mat, j: int, k: int) -> Mat:
    """The k x n matrix whose row i is A^i e_j, i < k, for a square A: the
    Krylov vectors of the unit vector e_j, with no power of A.  With A =
    N / den, A^i e_j = N^i e_j / den^i, by matrix-vector products on
    integers."""
    n = A.rows
    v, rows = _unit(j, n), []
    for i in range(k):
        if i:
            v = _matvec(A.num, v)
        rows.append((v, A.den ** i))
    return stack_rows(rows, n)


def _kills(N: IntRows, poly: list[int], j: int) -> bool:
    """poly(N) e_j = 0, poly integer coefficients low to high: Horner,
    deg poly matrix-vector products."""
    v = _unit(j, len(N))
    v[j] = poly[-1]
    for t in reversed(poly[:-1]):
        v = _matvec(N, v)
        v[j] += t
    return not any(v)


def _annihilator(members: list[tuple[IntRows, list[list[int]]]]) -> list[int]:
    """The least-degree integer polynomial T, coefficients low to high,
    gcd 1, with T(N) v = 0 for each member (N, [v, N v, ...]): the
    annihilator of the stacked vector w of the v, on which N acts member
    by member.  One echelon grows with the degree: w_k, the members' N^k v
    side by side, enters as the row (w_k, e_k) with the tag 1 at column
    size + k, and _reduce takes it down by the pivot rows of the lower
    degrees.  The row is then a sum of t_i (w_i, e_i) over i <= k, with
    t_i at column size + i.  No pivot sits at a tag column (the loop stops
    at the first), so if the row leads at a tag column its vector part is
    zero: sum t_i w_i = 0.  And t_k != 0: no pivot row has a tag at size +
    k, and each step scales the row by a nonzero integer.  w_0..w_(k-1)
    are independent, as their rows became pivots, so T = sum t_i t^i has
    the least degree.  Each member's vectors are extended in place as the
    degree grows, and kept for a later call."""
    size = sum(len(N) for N, _ in members)
    pivots: dict[int, Row] = {}
    for k in range(size + 1):
        row: Row = {}
        at = 0
        for N, vectors in members:
            if len(vectors) == k:
                vectors.append(_matvec(N, vectors[-1]))
            for i, x in enumerate(vectors[k]):
                if x:
                    row[at + i] = x
            at += len(N)
        row[size + k] = 1
        row = _reduce(row, pivots)
        c = min(row)
        if c >= size:
            return [row.get(size + i, 0) for i in range(k + 1)]
        pivots[c] = row
    raise ArithmeticError("an annihilator must exist by degree size")


def minimal_polynomial(*blocks: Mat) -> list[Fraction]:
    """Monic minimal polynomial, coefficients low to high, of the block-diagonal
    matrix B with the given square diagonal blocks (a single matrix is one
    block), from Krylov vectors: no power of B is formed.

    Over the lcm den of the blocks' denominators B = N / den with N
    integer, so T(N) = 0 for an integer T = sum t_i t^i exactly when the
    monic t_i den^i / (t_d den^d) give the minimal polynomial of B, d =
    deg T; the work runs on N.  The unit vectors e_j are taken block by
    block, each block's from its last coordinate down (the cyclic vector
    of an upper Jordan block), with the annihilator L of the stacked
    vector (e_j)_{j in S}, S the unit vectors taken so far: an e_j that L
    kills (_kills, Horner) is skipped, and any other joins S, and L is
    recomputed (_annihilator).  The search stops at deg L = n, the size of
    B.

    Lemma.  For vectors v_1, ..., v_s, each acted on by the block of its
    coordinates, the annihilator of the stacked vector (v_1, ..., v_s) is
    lcm(ann v_1, ..., ann v_s): f(N) kills the stacked vector exactly when
    it kills each v_i.  So L = lcm(ann e_j : j in S), which divides the
    minimal polynomial m = lcm(ann e_j : all j), as f(N) = 0 exactly when
    f(N) e_j = 0 for every j.  L only grows, each time by a multiple, so
    an e_j that was killed when it was skipped is killed by the last L,
    and so is every e_j in S: the last L kills every unit vector, so m
    divides it, and L = m.  When deg L reaches n, L is m too: m divides
    the characteristic polynomial (Cayley-Hamilton), of degree n.  L
    grows at most deg m times, so S holds at most deg m unit vectors.
    """
    n = sum(B.rows for B in blocks)
    if n == 0:
        return [_ONE]
    den = lcm(*[B.den for B in blocks])
    units = [(N, j) for N in [_scaled(B, den) for B in blocks if B.rows]
             for j in reversed(range(len(N)))]
    members: list[tuple[IntRows, list[list[int]]]] = []
    poly: list[int] = []
    for N, j in units:
        if len(poly) == n + 1:
            break
        if poly and _kills(N, poly, j):
            continue
        members.append((N, [_unit(j, len(N))]))
        poly = _annihilator(members)
    d = len(poly) - 1
    return [Fraction(t, poly[d] * den ** (d - i)) for i, t in enumerate(poly)]


def eval_poly(coeffs: list[Fraction], A: Mat) -> Mat:
    """Evaluate a polynomial (coefficients low to high) at a square matrix."""
    n = A.rows
    out = scale(identity(n), coeffs[0]) if coeffs else zeros(n, n)
    for c, power in zip(coeffs[1:], accumulate(repeat(A, len(coeffs) - 1), matmul)):
        if c:
            out = mat_add(out, scale(power, c))
    return out
