"""Quivers with relations and their representations over exact rationals.

A quiver is a finite directed multigraph; a relation is a rational
linear combination of length >= 2 paths sharing a source and a target,
and all paths long enough are required to die in the ideal the
relations generate (admissibility), so the quiver algebra is finite
dimensional.  Paths compose left to right: in the product p*q the path
p is traversed first, and a representation sends p = a1 a2 ... ak to
the matrix product V(ak) @ ... @ V(a1).

The engine computes path bases of the quiver algebra degree by degree (row
reduction on each (source, target, length) slice, with monomial relations
short-circuited to subpath exclusion), the simple, projective and injective
representations, morphism spaces by solving the exact intertwining
equations, kernels and cokernels with their induced maps (injectives and
cokernels read through the duality D, dual), the semisimple dimension of
endomorphism algebras (rank of the trace form of V as an End(V)-module,
valid in characteristic zero), exact isomorphism tests (ranks of the trace
pairings of the hom spaces, see is_isomorphic), and decompositions into
indecomposables by splitting along coprime factors of minimal polynomials of
endomorphisms, which polyfactor.factor finds exactly over ℚ, in-house.
Indecomposability is certified when End/rad has dimension one (the
absolutely indecomposable case), or when a four-subspace tube module has
a cyclic operator M of one primary factor, so that End = ℚ[M] is local,
and every tube module is cut into such pieces; otherwise the verdict is
"inconclusive" by design.

A BoundQuiver validates its relations once and keeps the endpoints of
each relation and its one-term vanishing paths, which everything below
reads.  An unknown vertex, or an arrow a relation names that the quiver
lacks, raises KeyError, and a failed exactness condition raises
ArithmeticError, never an assert, so python -O gives the same answers.

decompose_certified first cuts V along its coefficient quiver (Ringel
1998), one node per basis vector and one edge per nonzero matrix entry:
each component spans a subrepresentation, V is their direct sum, and the
summands come part by part, a part of dimension one as a certified leaf
and every other part through the pipeline below, run once on it.

Before its split search, decompose_certified peels off every summand
M_p of a path p: x -> y of length <= 1, with Q at x and at y and p
acting by 1: the simple S_v for the trivial path at each vertex v, then
the two-dimensional module M_a for each arrow a with x != y.  With
Φ = Hom(V, M_p) and K = Hom(M_p, V), read as functionals on V_y and
vectors in V_x, M_p is a summand exactly rank(Φ V_p K) times; for S_v
that is dim K - dim(K ∩ I), K the socle and I the radical of V at v;
one change of basis takes them all off (proofs at decompose_certified).

The split search tries the basis endomorphisms, then one that kills a
unit vector and has nonzero trace, which always splits; every split it
finds is checked exactly.  It reads what it can off the trace form: a
basis element in its radical is never tried, and a part of a split whose
number of summands is bounded by 1 is certified without its hom space
(proofs at decompose_certified).  The split and the peel share one
change of basis per vertex, _cut, which must be invertible and
block-diagonalize every arrow; its parts then satisfy the relations, so
it builds them without Representation's check.  Only conjugate draws at
random.

A four-subspace tube module, on arrows a_i: x_i -> c whose images U_1 + U_2
fill V_c and U_3, U_4 are graphs over U_1, is, through one frame per vertex,
the normal form N(M) of an operator M: Q^n at each x_i, Q^2n at c and the
maps [I; 0], [0; I], [I; I], [I; M] (Gelfand-Ponomarev 1970; Ringel, LNM
1099, 3.2).  A morphism N(M) -> N(M') is one P with PM = M'P at every
vertex, and an M-invariant subspace K spans K at each x_i and K ⊕ K at c.
So decompose_certified cuts such a node, in one cut, along M-invariant
subspaces on each of which M is cyclic of one primary factor, which
certifies it, with no hom space (Jacobson, Basic Algebra I, ch. 3); at the
root this test replaces the peel.  For two such modules hom_basis solves
P M_V = M_W P in place of the intertwining system, lifts each P through
the frames and gives the same basis.  A node in dual form, four arrows
c -> x_i, is read the same way through D.  A root in neither form on which
every length-2 path acts by zero is cut along its separated quiver into its
tops and radicals (Auslander-Reiten-Smalø 1995, X.2); when every part is in
one of the two forms, the parts take the tube route and the root skips the
peel (proofs at decompose_certified).
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress
from math import lcm

from . import ratlinalg as rl
from .polyfactor import factor
from .values import Frozen, Value

Path = tuple[str, ...]  # arrow names in traversal order; () is a trivial path


class NonAdmissibleError(ValueError):
    """Nonzero paths persist at the configured length bound."""


class Arrow(Frozen):
    _fields = ("name", "source", "target")

    def __init__(self, name: str, source: str, target: str):
        vars(self).update(name=name, source=source, target=target)


class Quiver(Frozen):
    _fields = ("vertices", "arrows")

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        vars(self).update(vertices=vertices, arrows=arrows)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vs = set(vertices)
        for a in arrows:
            if a.source not in vs or a.target not in vs:
                raise ValueError(f"arrow {a.name} has endpoints outside the vertex set")

    @cached_property
    def _by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}


def _check_vertices(vertices: tuple[str, ...], *names: str) -> None:
    for v in names:
        if v not in vertices:
            raise KeyError(f"unknown vertex {v!r}")


Relation = tuple[tuple[Fraction, Path], ...]  # rational combination of parallel paths


def _path_vertices(quiver: Quiver, path: Path) -> tuple[str, ...]:
    """The vertices a path passes, its source first and its target last."""
    by_name = quiver._by_name
    for name in path:
        if name not in by_name:
            raise KeyError(f"unknown arrow {name!r}")
    visited = [by_name[path[0]].source]
    for name in path:
        a = by_name[name]
        if a.source != visited[-1]:
            raise ValueError(f"path {path} is not composable at {a.name}")
        visited.append(a.target)
    return tuple(visited)


def _relation_data(rel: Relation) -> list:
    """A relation as quiver_to_dict writes it: [["p/q", [arrow, ...]], ...]."""
    return [[str(c), list(p)] for c, p in rel]


def _bad_relation(rel: Relation, problem: str) -> ValueError:
    import json  # its one use: the package import does not load json

    return ValueError(f"relation {json.dumps(_relation_data(rel))} {problem}")


def monomial_relations(paths) -> tuple[Relation, ...]:
    """Relations declaring each given path to be zero."""
    return tuple(((Fraction(1), tuple(p)),) for p in paths)


class PathBasis(Value):
    """Residue-class representative paths of the quiver algebra.

    by_pair[(x, y)] lists the basis paths x -> y, shortest first; the
    reduction table expresses every enumerated nonzero path as a
    combination of basis paths (paths absent from the table are zero in
    the algebra).
    """

    _fields = ("vertices", "by_pair", "reduction")

    def __init__(self, vertices: tuple[str, ...], by_pair: dict[tuple[str, str], list[Path]],
                 reduction: dict[Path, tuple[tuple[Fraction, Path], ...]]):
        self.vertices, self.by_pair, self.reduction = vertices, by_pair, reduction

    def paths(self, x: str, y: str) -> list[Path]:
        _check_vertices(self.vertices, x, y)
        return self.by_pair.get((x, y), [])

    def reduce(self, path: Path) -> tuple[tuple[Fraction, Path], ...]:
        if not path:
            return ((Fraction(1), path),)
        return self.reduction.get(path, ())

    def action(self, src: list[Path], tgt: list[Path], arrow: str) -> rl.Mat:
        """Matrix of right concatenation p -> reduce(p arrow) from the span of
        the basis paths src to that of tgt."""
        row = {p: i for i, p in enumerate(tgt)}
        M = [[0] * len(src) for _ in tgt]
        for j, p in enumerate(src):
            for coeff, bp in self.reduce(p + (arrow,)):
                M[row[bp]][j] += coeff
        return rl.mat(M, len(tgt), len(src))

    def dimension(self) -> int:
        return sum(len(v) for v in self.by_pair.values())


def _build_path_basis(bq: "BoundQuiver") -> PathBasis:
    quiver = bq.quiver
    zero_lengths = sorted({len(p) for p in bq.zero_paths})
    linear = [(rel, src, tgt) for rel, (src, tgt) in zip(bq.relations, bq.relation_ends)
              if len(rel) > 1]
    arrows_from: dict[str, list[Arrow]] = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        arrows_from[a.source].append(a)

    by_pair: dict[tuple[str, str], list[Path]] = {(v, v): [()] for v in quiver.vertices}
    reduction: dict[Path, tuple[tuple[Fraction, Path], ...]] = {}
    # all non-monomially-killed paths, by length then (source, target)
    levels: list[dict[tuple[str, str], list[Path]]] = [
        {(v, v): [()] for v in quiver.vertices}
    ]

    def killed(path: Path) -> bool:
        # the new arrow is last, so any fresh forbidden factor is a suffix
        return any(path[-k:] in bq.zero_paths for k in zero_lengths if k <= len(path))

    for length in range(1, bq.bound + 1):
        current: dict[tuple[str, str], list[Path]] = {}
        for (src, tgt), plist in levels[-1].items():
            for p in plist:
                for a in arrows_from[tgt]:
                    q = p + (a.name,)
                    if not killed(q):
                        current.setdefault((src, a.target), []).append(q)
        levels.append(current)
        alive = False
        for (src, tgt), plist in sorted(current.items()):
            plist.sort()
            index = {p: i for i, p in enumerate(plist)}
            gens: list[list[Fraction]] = []
            for rel, rel_src, rel_tgt in linear:
                rel_len = len(rel[0][1])
                if rel_len > length:
                    continue
                for i in range(length - rel_len + 1):
                    for u in levels[i].get((src, rel_src), []):
                        for w in levels[length - rel_len - i].get((rel_tgt, tgt), []):
                            row = [Fraction(0)] * len(plist)
                            for coeff, rp in rel:
                                j = index.get(u + rp + w)
                                if j is not None:
                                    row[j] += coeff
                            if any(row):
                                gens.append(row)
            if gens:
                R, pivots = rl.rref(rl.mat(gens, len(gens), len(plist)))
                pivot_set = set(pivots)
                free = [j for j in range(len(plist)) if j not in pivot_set]
                for c, row in zip(pivots, R):
                    reduction[plist[c]] = tuple((-row[j], plist[j]) for j in free if row[j])
                slice_basis = [plist[j] for j in free]
            else:
                slice_basis = list(plist)
            for p in slice_basis:
                reduction[p] = ((Fraction(1), p),)
            if slice_basis:
                by_pair.setdefault((src, tgt), []).extend(slice_basis)
                alive = True
        if not alive:
            return PathBasis(quiver.vertices, by_pair, reduction)
    raise NonAdmissibleError(
        f"nonzero paths remain at length {bq.bound}, the max_path_length bound: the relation "
        "ideal is not admissible, or it needs a larger max_path_length"
    )


class BoundQuiver:
    """A quiver with an admissible relation set and its cached path basis.

    Every relation must be length-homogeneous (the slice-wise reduction
    is graded by path length); all relations arising here are monomial
    of length two.  max_path_length, a positive integer, defaults to
    (#vertices) * max(2, longest relation length); path_basis raises
    NonAdmissibleError when nonzero paths remain at that length.  An
    admissible algebra can need more: Λ(Q^2), one vertex with loops a, b
    and relations a^2, b^2, ab + ba, keeps ba at length 2 and needs
    max_path_length=3.

    It validates the relations once, on construction (ValueError on a
    malformed one, KeyError on an unknown arrow), and keeps the
    (source, target) of each and the paths a one-term relation declares
    zero: the path basis, the peel and the cubics samplers read these.
    A vertex it lacks raises KeyError.
    """

    def __init__(self, quiver: Quiver, relations: tuple[Relation, ...] = (),
                 max_path_length: int | None = None, name: str = "",
                 vertex_labels: dict[str, str] | None = None):
        self.relations: tuple[Relation, ...] = tuple(relations)
        ends = []
        for rel in self.relations:
            if not rel:
                raise ValueError("empty relation")
            lengths = {len(p) for _, p in rel}
            if len(lengths) != 1:
                raise _bad_relation(rel, "mixes path lengths")
            if lengths.pop() < 2:
                raise _bad_relation(rel, "involves a path of length < 2")
            visits = [_path_vertices(quiver, p) for _, p in rel]
            rel_ends = {(vs[0], vs[-1]) for vs in visits}
            if len(rel_ends) != 1:
                raise _bad_relation(rel, "mixes sources/targets")
            if any(c == 0 for c, _ in rel):
                raise _bad_relation(rel, "has a zero coefficient")
            ends.append(rel_ends.pop())
        if max_path_length is None:
            longest = max((len(p) for rel in self.relations for _, p in rel), default=2)
            max_path_length = len(quiver.vertices) * max(2, longest)
        #: the length at which every path must vanish (admissibility); rl.integer
        #: raises TypeError on a bool, a float or a string
        self.bound: int = rl.integer(max_path_length)
        if self.bound < 1:
            raise ValueError(f"max_path_length {max_path_length} is not positive")
        #: (source, target) of each relation, in the order of relations
        self.relation_ends = tuple(ends)
        #: the paths that a one-term relation declares zero
        self.zero_paths = frozenset(rel[0][1] for rel in self.relations if len(rel) == 1)
        self.quiver = quiver
        self.name = name
        #: optional metadata: vertex -> name of the simple module it stands for
        self.vertex_labels = dict(vertex_labels or {})
        self._basis: PathBasis | None = None
        self._opposite: BoundQuiver | None = None

    def path_basis(self) -> PathBasis:
        if self._basis is None:
            self._basis = _build_path_basis(self)
        return self._basis

    def arrow_count(self, x: str, y: str) -> int:
        """Arrows x -> y; equals dim Ext^1 of the simple at x by the simple at y."""
        _check_vertices(self.quiver.vertices, x, y)
        return sum(1 for a in self.quiver.arrows if a.source == x and a.target == y)

    def simple(self, x: str) -> "Representation":
        """S_x: Q at x, 0 elsewhere.  Its relations hold unchecked: a relation
        path has length >= 2, and a module with at most one nonzero arrow, not
        a loop, kills every such path."""
        _check_vertices(self.quiver.vertices, x)
        return self._one_arrow({v: int(v == x) for v in self.quiver.vertices}, None)

    def arrow_module(self, name: str) -> "Representation":
        """M_a for the arrow a called name, x -> y with x != y: Q at x and at y,
        a acting by 1 and every other arrow by 0; the non-split extension of
        the simple at x by the simple at y that a stands for.  KeyError on an
        unknown arrow, ValueError on a loop.  Its relations hold unchecked, as
        for simple."""
        if name not in self.quiver._by_name:
            raise KeyError(f"unknown arrow {name!r}")
        a = self.quiver._by_name[name]
        if a.source == a.target:
            raise ValueError(f"arrow {name} is a loop")
        return self._one_arrow({v: int(v in (a.source, a.target)) for v in self.quiver.vertices},
                               name)

    def _one_arrow(self, dims: dict[str, int], name: str | None) -> "Representation":
        """dims, the arrow called name (none for None) acting by 1, the others by 0."""
        maps = {a.name: rl.identity(1) if a.name == name else rl.zeros(dims[a.target], dims[a.source])
                for a in self.quiver.arrows}
        return Representation._satisfying(self, dims, maps)

    def projective(self, x: str) -> "Representation":
        """Projective cover of the simple at x: the paths out of x, an arrow
        a acting by right concatenation p -> p a."""
        pb = self.path_basis()
        out = {y: pb.paths(x, y) for y in self.quiver.vertices}
        maps = {a.name: pb.action(out[a.source], out[a.target], a.name) for a in self.quiver.arrows}
        return Representation(self, {y: len(ps) for y, ps in out.items()}, maps)

    def injective(self, x: str) -> "Representation":
        """Injective envelope of the simple at x: D of the opposite's projective."""
        return dual(self.opposite().projective(x))

    def opposite(self) -> "BoundQuiver":
        """Every arrow (by name) and relation path reversed, bound and labels kept,
        no name (rep_to_dict writes it inline); built once, its opposite is self."""
        if self._opposite is None:
            arrows = tuple(Arrow(a.name, a.target, a.source) for a in self.quiver.arrows)
            rels = tuple(tuple((c, p[::-1]) for c, p in rel) for rel in self.relations)
            self._opposite = BoundQuiver(Quiver(self.quiver.vertices, arrows), rels, self.bound,
                                         vertex_labels=self.vertex_labels)
            self._opposite._opposite = self
        return self._opposite


class Representation(Value):
    """Vector spaces at the vertices, exact rational matrices on the arrows.

    maps[arrow] has shape (dim target) x (dim source), also when a
    dimension is 0; omitted arrows default to zero.  The vertex and
    arrow names, the shapes and the relations are checked on
    construction.  A dimension must be an integer (numpy integers too)
    and an entry an integer or a Fraction; anything else, a float, a
    string or a bool, raises TypeError rather than being truncated.  A
    dimension below 0 or above sys.maxsize, which no list could hold,
    raises ValueError.

    The relation check runs on every representation built here, except
    where the construction proves the relations: there _satisfying builds
    it, called where the proof is written, by _cut (the parts of _split,
    _peel, TubeForm.cut and _separate), _coordinate_parts, _one_arrow
    (simple, arrow_module), cubics._embed (embed_alpha, embed_beta),
    direct_sum on one bound quiver, conjugate and dual.
    """

    _fields = ("bq", "dims", "maps")

    def __init__(self, bq: BoundQuiver, dims: dict[str, int],
                 maps: dict[str, rl.Mat] | None = None):
        self.bq, self.dims, self.maps = bq, dims, {} if maps is None else maps
        self.__post_init__()

    def __post_init__(self):
        q = self.bq.quiver
        unknown = set(self.dims) - set(q.vertices)
        if unknown:
            raise ValueError(f"dimensions for unknown vertices: {sorted(unknown)}")
        self.dims = {v: rl.integer(self.dims.get(v, 0)) for v in q.vertices}
        if any(d < 0 for d in self.dims.values()):
            raise ValueError("negative dimension")
        if any(d > sys.maxsize for d in self.dims.values()):
            raise ValueError(f"dimension above sys.maxsize ({sys.maxsize})")
        self.maps = _vertexwise(
            self.maps, {a.name: (self.dims[a.target], self.dims[a.source]) for a in q.arrows},
            ("map", "arrows"))
        self._check_relations()

    @classmethod
    def _satisfying(cls, bq: BoundQuiver, dims: dict[str, int],
                    maps: dict[str, rl.Mat]) -> "Representation":
        """The representation with dims (an int per vertex) and maps (a Mat of
        the right shape per arrow) known to satisfy bq's relations."""
        V = cls.__new__(cls)
        V.bq, V.dims, V.maps = bq, dims, maps
        return V

    def _check_relations(self):
        """Every term of every relation multiplied out; rl.matmul returns zeros
        at once for a term whose path passes a zero-dimensional vertex."""
        for rel in self.bq.relations:
            if not rl.is_zero(reduce(rl.mat_add, (
                    rl.scale(self.path_matrix(path), coeff) for coeff, path in rel))):
                raise _bad_relation(rel, "is violated")

    def path_matrix(self, path: Path) -> rl.Mat:
        """Matrix of a path (first arrow applied first)."""
        if not path:
            raise ValueError("trivial path needs a vertex; use identity directly")
        cur = self.maps[path[0]]
        for name in path[1:]:
            cur = rl.matmul(self.maps[name], cur)
        return cur

    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.bq.quiver.vertices)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __repr__(self):
        dims = ", ".join(f"{v}:{d}" for v, d in self.dims.items() if d)
        return f"Representation({self.bq.name or 'quiver'}; {dims or '0'})"


def _vertexwise(given: dict, shapes: dict[str, tuple[int, int]],
                names: tuple[str, str]) -> dict[str, rl.Mat]:
    """One matrix per key of shapes, checked by rl.mat; omitted (or None) keys
    are zero.  names is (noun, keys), ("map", "arrows") or ("block",
    "vertices"): keys that shapes lacks raise ValueError "maps for unknown
    arrows: [...]", and a matrix of the wrong shape ValueError "map alpha1:
    expected a 2x1 matrix, got 3x2"."""
    noun, keys = names
    extra = set(given) - set(shapes)
    if extra:
        raise ValueError(f"{noun}s for unknown {keys}: {sorted(extra)}")
    out = {}
    for key, (m, n) in shapes.items():
        try:
            out[key] = rl.zeros(m, n) if given.get(key) is None else rl.mat(given[key], m, n)
        except ValueError as exc:
            raise ValueError(f"{noun} {key}: {exc}") from None
    return out


class RepMorphism(Value):
    """Vertexwise matrices intertwining two representations of one quiver.

    The blocks are normalized like Representation.maps (by _vertexwise):
    omitted vertices default to zero blocks; unknown vertex names, wrong
    shapes and blocks that do not intertwine raise ValueError.  The
    elements of hom_basis are built by _intertwining, which skips both
    steps: hom_basis builds every block as a Mat of the right shape and
    has already checked every element exactly against the intertwining
    equations, which is the same check: through kernel_basis on the
    system, or, on the Sylvester route, along each arrow nonzero on the
    source or the target, the other arrows giving 0 = 0.
    """

    _fields = ("source", "target", "blocks")

    def __init__(self, source: Representation, target: Representation, blocks: dict[str, rl.Mat]):
        self.source, self.target, self.blocks = source, target, blocks
        self.__post_init__()

    def __post_init__(self):
        V, W = self.source, self.target
        self.blocks = _vertexwise(
            self.blocks, {v: (W.dims[v], V.dims[v]) for v in V.bq.quiver.vertices},
            ("block", "vertices"))
        for a in V.bq.quiver.arrows:
            x, y = a.source, a.target
            left = rl.matmul(self.blocks[y], V.maps[a.name])
            right = rl.matmul(W.maps[a.name], self.blocks[x])
            if left != right:
                raise ValueError(f"blocks do not intertwine along arrow {a.name}")

    @classmethod
    def _intertwining(cls, V: Representation, W: Representation,
                      blocks: dict[str, rl.Mat]) -> "RepMorphism":
        """The morphism with blocks (one Mat per vertex) known to intertwine V and W."""
        f = cls.__new__(cls)
        f.source, f.target, f.blocks = V, W, blocks
        return f


def _equations(rows: list[rl.Row], va: rl.Mat, wa: rl.Mat, at_x: int, at_y: int) -> None:
    """Append to rows the equations of f_y va = wa f_x (see hom_basis), the
    entries of f_x and f_y numbered row-major from at_x and at_y.  A
    coefficient that cancels to 0 is dropped, and an equation left with
    none, 0 = 0, is not appended."""
    dvx, dvy = va.cols, va.rows
    den = lcm(va.den, wa.den)
    va_scale, wa_scale = den // va.den, den // wa.den
    # the nonzero entries of va column j, as (unknown f_y[0][k], va[k][j]),
    # and of wa row i, as (unknown f_x[k][0], -wa[i][k]), listed once
    va_cols = [[(at_y + k, va_scale * v) for k, v in enumerate(col) if v]
               for col in rl.transpose(va).num]
    wa_rows = [[(at_x + k * dvx, -wa_scale * v) for k, v in enumerate(row) if v]
               for row in wa.num]
    # with row i of wa zero, equation (i, j) is empty where column j of va is too
    va_nonzero = [(j, col) for j, col in enumerate(va_cols) if col]
    for i, wa_row in enumerate(wa_rows):
        at = i * dvy
        for j, va_col in enumerate(va_cols) if wa_row else va_nonzero:
            row: rl.Row = {at + k: v for k, v in va_col}
            for k, v in wa_row:
                if (x := row.get(k + j, 0) + v):
                    row[k + j] = x
                else:  # the two sides cancel on this unknown
                    del row[k + j]
            if row:
                rows.append(row)


def _lifts(src: "TubeForm", tgt: "TubeForm") -> list[dict[str, rl.Mat]]:
    """The blocks, at x_1..x_4 and c, of a basis of Hom(src.X, tgt.X) for two
    tube forms on the same arrows: each P with P M_src = M_tgt P, lifted to
    f_v = E^tgt_v P^ (E^src_v)^-1 (decompose_certified, Normal form)."""
    m, n = tgt.M.rows, src.M.rows
    rows: list[rl.Row] = []
    _equations(rows, src.M, tgt.M, 0, 0)
    lifts = []
    for ints, den in rl.kernel_basis(rows, m * n):
        P = rl.over([ints[i * n:(i + 1) * n] for i in range(m)], den, m, n)
        lifts.append({v: rl.matmul(E, rl.matmul(src.hat(v, P), E_inv))
                      for v, E, E_inv in zip(src.verts, tgt.E, src.E_inv)})
    return lifts


def hom_basis(V: Representation, W: Representation) -> list[RepMorphism]:
    """Basis of Hom(V, W), by exact solution of the intertwining system, or,
    for two modules in tube form or two in dual form, of a Sylvester equation.

    The system.  The unknowns are the entries of the blocks f_v, vertex by
    vertex and row-major; each arrow a: x -> y gives one equation per entry
    of f_y V(a) - W(a) f_x (_equations).  The equations go to
    rl.kernel_basis as sparse integer rows, read off the numerators of V(a)
    and W(a) over the lcm of their two denominators: the nonzero entries of
    each column of V(a) and each row of W(a) are listed once per arrow, and
    the equation of entry (i, j) is built from column j of V(a) and row i
    of W(a) alone, so its cost follows their nonzero entries; where both
    are zero the equation is 0 = 0, and the pair (i, j) is skipped.
    kernel_basis checks every basis vector exactly against every row.
    That check is the intertwining equation, so the elements are built
    without RepMorphism's own check of it; each block is the integer slice
    of a basis vector over its denominator.  The basis is the one read off
    the reduced echelon form of the system, which is unique: it does not
    depend on how the elimination runs.

    The Sylvester route (_tube, _lifts), when V and W are both in tube form
    on the same four arrows a_i: x_i -> c, with tube operators M_V and M_W
    and frames E^V and E^W (decompose_certified, Normal form); V's
    dimension is n_V at each x_i, W's n_W.  It has n_V n_W unknowns, against
    sum_v dim V_v dim W_v for the system (Frobenius; Gantmacher, The Theory
    of Matrices, vol. 1, ch. VIII).

    - Lift.  By the lemma of Normal form, f_v = E^W_v P^ (E^V_v)^-1 at
      x_1..x_4 and c, and 0 x 0 blocks elsewhere, is a bijection from the
      n_W x n_V solutions P of P M_V = M_W P onto Hom(V, W), and it is
      linear, so the lifts of a basis of the solutions are a basis of
      Hom(V, W).  The rows of P M_V - M_W P are those of the system for
      one loop acting by M_V and M_W (_equations), and kernel_basis checks
      every P against them.
    - Restore.  Flattened in the numbering of the system (rl.flatten over
      the vertices in order), the lifts span its kernel, so
      rl.kernel_form gives kernel_basis's basis of that kernel (its
      lemma): the basis the system route returns, vector for vector.
    - Check.  Each element f is checked against f_y V(a) = W(a) f_x along
      the four arrows, the arrows nonzero on V or W; along any other both
      sides are 0, so that is the check of every equation.  It takes one
      product per side of an arrow for the whole basis: the blocks f_y
      stacked one above the other times V(a), and W(a) times the blocks
      f_x side by side, each stack over the lcm of its denominators.  Block
      l of a product is f^l_y V(a) or W(a) f^l_x, so comparing them block
      by block checks the same equations for every element.  A mismatch
      raises ArithmeticError naming the arrow, as kernel_basis's check
      raises one.
    - Dual form.  When V and W are both in dual form on the same arrows,
      f -> D(f), the transposed blocks, maps Hom(V, W) onto
      Hom(D(W), D(V)), whose modules are in tube form: the route lifts a
      basis of that space, transposes its blocks, then restores and checks
      as above.

    Any other pair, tube against dual form or a node in neither form,
    takes the system; _tube runs once when W is V.
    """
    if V.bq.quiver != W.bq.quiver:
        raise ValueError("representations live over different quivers")
    src = _tube(V)
    return _hom_basis(V, W, src, src if src is None or W is V else _tube(W))


def _hom_basis(V: Representation, W: Representation, src: TubeForm | None,
               tgt: TubeForm | None) -> list[RepMorphism]:
    """hom_basis(V, W) given _tube(V) as src and _tube(W) as tgt, V and W
    over one quiver; tgt is read only when src is not None."""
    verts = V.bq.quiver.vertices
    offs, total = {}, 0  # where the entries of each block f_v start, and how many there are
    for v in verts:
        offs[v], total = total, total + V.dims[v] * W.dims[v]
    sylvester = src is not None and tgt is not None and tgt.arrows == src.arrows
    if not sylvester:
        rows: list[rl.Row] = []
        for a in V.bq.quiver.arrows:
            _equations(rows, V.maps[a.name], W.maps[a.name], offs[a.source], offs[a.target])
        vectors = rl.kernel_basis(rows, total)
    else:
        if src.X is V:
            lifts = _lifts(src, tgt)
        else:
            lifts = [{v: rl.transpose(g) for v, g in h.items()} for h in _lifts(tgt, src)]
        vectors = rl.kernel_form([rl.flatten([f[v] for v in verts if v in f]) for f in lifts],
                                 total)
    basis = []
    for ints, den in vectors:
        blocks = {}
        for v in verts:
            m, n = W.dims[v], V.dims[v]
            at = offs[v]
            blocks[v] = rl.over([ints[at + i * n: at + (i + 1) * n] for i in range(m)], den, m, n)
        basis.append(RepMorphism._intertwining(V, W, blocks))
    if sylvester and basis:
        for name in src.arrows:
            a = V.bq.quiver._by_name[name]
            m = W.dims[a.target]
            left = rl.matmul(rl.vstack(*[f.blocks[a.target] for f in basis]), V.maps[name])
            right = rl.matmul(W.maps[name], rl.hstack(*[f.blocks[a.source] for f in basis]))
            # left holds the blocks f_y V(a) one above the other, right the
            # blocks W(a) f_x side by side: row i of right is row i of each
            if left.den != right.den or right.num != [
                    list(chain.from_iterable(left.num[i::m])) for i in range(m)]:
                raise ArithmeticError(f"a lifted morphism fails the equations of arrow {name}")
    return basis


def dual(V: Representation) -> Representation:
    """D(V) on V.bq.opposite(): V's dims, V_a^T on each reversed arrow a
    (Assem-Simson-Skowroński 2006, ch. III); D(D(V)) == V.  Representation's checks
    cannot fail, so _satisfying builds it: V_a^T has the reversed shape, and a path
    (a_1, ..., a_k) of the opposite has the matrix V_{a_k}^T ... V_{a_1}^T, the
    transpose of V's of (a_k, ..., a_1): each relation is that of V.bq, transposed."""
    return Representation._satisfying(V.bq.opposite(), dict(V.dims),
                                      {name: rl.transpose(m) for name, m in V.maps.items()})


def kernel(phi: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Vertexwise kernel with its induced maps and the inclusion into the source."""
    V = phi.source
    incl = {v: rl.transpose(rl.nullspace(m)) for v, m in phi.blocks.items()}
    maps = {}
    for a in V.bq.quiver.arrows:
        sol = rl.solve(incl[a.target], rl.matmul(V.maps[a.name], incl[a.source]))
        if sol is None:
            raise ArithmeticError("subspace is not arrow-stable (broken morphism)")
        maps[a.name] = sol
    K = Representation(V.bq, {v: m.cols for v, m in incl.items()}, maps)
    return K, RepMorphism(K, V, incl)


def cokernel(phi: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Vertexwise cokernel with its induced maps and the projection from the
    target, read through D: D(ker Dphi) and the transposed inclusion.  Dphi has
    phi's blocks transposed; it is not re-checked, as they intertwine like phi's."""
    blocks = {v: rl.transpose(m) for v, m in phi.blocks.items()}
    K, incl = kernel(RepMorphism._intertwining(dual(phi.target), dual(phi.source), blocks))
    C, proj = dual(K), {v: rl.transpose(m) for v, m in incl.blocks.items()}
    return C, RepMorphism(phi.target, C, proj)  # also re-verifies that the maps descend


def direct_sum(V: Representation, W: Representation) -> Representation:
    """V ⊕ W on V.bq.  On one bound quiver its relations hold unchecked, as
    its path matrices are block sums of V's and W's; a W on another bound
    quiver over the same quiver may break V.bq's, so they are checked."""
    if V.bq.quiver != W.bq.quiver:
        raise ValueError("representations live over different quivers")
    q = V.bq.quiver
    dims = {v: V.dims[v] + W.dims[v] for v in q.vertices}
    maps = {a.name: rl.block_diag(V.maps[a.name], W.maps[a.name]) for a in q.arrows}
    if V.bq is W.bq:
        return Representation._satisfying(V.bq, dims, maps)
    return Representation(V.bq, dims, maps)


def conjugate(V: Representation, seed: int = 0) -> Representation:
    """V with arrow a: x -> y changed to T_y V_a T_x^-1, T_v the first invertible
    draw from the integer seed (rl.integer) of a matrix with entries in [-3, 3];
    isomorphic to V.  Its relations hold unchecked: its path matrices are V's."""
    rng = random.Random(rl.integer(seed))
    T, T_inv = {}, {}
    for v, d in V.dims.items():
        while T_inv.get(v) is None:
            T[v] = rl.mat([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)], d, d)
            T_inv[v] = rl.inverse(T[v])
    maps = {a.name: rl.matmul(T[a.target], rl.matmul(V.maps[a.name], T_inv[a.source]))
            for a in V.bq.quiver.arrows}
    return Representation._satisfying(V.bq, dict(V.dims), maps)


def _trace_pairing(fs: list[RepMorphism], gs: list[RepMorphism]) -> rl.Mat:
    """Gram matrix of (f, g) -> tr(f∘g) for f in fs (X -> Y) and g in gs (Y -> X).

    tr(f∘g) = tr(g∘f), so the trace may be read over X or over Y.
    """
    if not fs or not gs:
        return rl.zeros(len(fs), len(gs))
    # tr(f∘g) = sum over vertices and (r, c) of f[r][c] * g[c][r]: the product
    # of the row-major flattening of f with the column-major flattening of g
    verts = fs[0].source.bq.quiver.vertices
    flat = [rl.flatten(f.blocks[v] for v in verts) for f in fs]
    flat_t = [rl.flatten(rl.transpose(g.blocks[v]) for v in verts) for g in gs]
    size = len(flat[0][0])
    return rl.matmul(rl.stack_rows(flat, size), rl.transpose(rl.stack_rows(flat_t, size)))


def semisimple_rank(V: Representation) -> int:
    """dim(End(V)/rad) via the module trace form; 1 certifies indecomposability.

    In characteristic zero the pairing (f, g) -> tr_V(f∘g) on End(V) has
    radical exactly rad End(V) (V is a faithful End(V)-module whose
    composition factors exhaust the simple factors of End/rad), so its
    rank is the semisimple dimension, without structure constants.
    """
    return _ssr(hom_basis(V, V))


def _ssr(basis: list[RepMorphism]) -> int:
    """The rank of the trace form on a basis of End(V): the semisimple rank."""
    return rl.rank(_trace_pairing(basis, basis))


def _combination(basis: list[RepMorphism], coeffs) -> dict[str, rl.Mat]:
    """Blocks of the sum of c * b over the coefficients, not all 0."""
    terms = [{v: rl.scale(m, c) for v, m in b.blocks.items()} for c, b in zip(coeffs, basis) if c]
    return reduce(lambda f, g: {v: rl.mat_add(f[v], g[v]) for v in f}, terms)


def _split_candidates(V: Representation, basis: list[RepMorphism]):
    """The blocks of each basis endomorphism, then of the annihilator candidate
    if there is one (see decompose_certified): phi = sum c_i b_i for the first
    c, at the first vertex v and unit vector e_j, with phi e_j = 0 and
    tr phi = sum c_i tr(b_i) != 0.  It intertwines by linearity."""
    for b in basis:
        yield b.blocks
    ident = RepMorphism._intertwining(V, V, {v: rl.identity(d) for v, d in V.dims.items()})
    traces = _trace_pairing(basis, [ident])
    for v in V.bq.quiver.vertices:
        for j in range(V.dims[v]):
            ann = rl.nullspace(rl.mat([[b.blocks[v][r][j] for b in basis] for r in range(V.dims[v])]))
            for c, tr in zip(ann.num, rl.matmul(ann, traces).num):
                if tr[0]:
                    yield _combination(basis, c)
                    return


def _cut(V: Representation, bases: dict[str, list[rl.Mat]]) -> list[Representation]:
    """V cut into parts by one checked change of basis per vertex, each part
    a Representation on V.bq: _split, TubeForm.cut and _separate keep them
    all, _peel only the first.

    The rows of bases[v][i] are a basis of part i at v (the form of
    rl.nullspace); a vertex that bases lacks keeps its basis, all of it in
    the first part.  T_v holds the bases of the parts at v as columns, and
    an arrow a: x -> y becomes C_a = T_y^-1 V_a T_x (no product at a vertex
    left alone), whose diagonal blocks are the maps of the parts.  Only
    the arrows with V_a != 0 are conjugated: for V_a = 0, C_a = 0, so its
    blocks are the zero matrices of the parts' shapes and it is zero off
    them.  Checks, each raising ArithmeticError:

    - T_v is square and invertible: the parts fill V_v.  T_v^-1 is built
      only at a vertex some nonzero arrow enters, the only place a C_a
      uses it; elsewhere rl.rank(T_v) = d_v certifies it;
    - T_v T_v^-1 = I at each vertex where T_v^-1 is built: the inverse is
      right, so T_y C_a = V_a T_x on every nonzero arrow, the check it
      replaces (on a zero arrow both sides are 0);
    - C_a is zero off its diagonal blocks, on every nonzero arrow: each
      part is arrow-stable.

    Once they pass, the parts satisfy the relations, so _satisfying builds
    them.  A path p: x -> y has the matrix C_p = T_y^-1 V_p T_x, the inner
    T_v T_v^-1 cancelling, and C_p is block diagonal with the path matrices
    of the parts as its blocks; a relation sum c_i V_(p_i) is zero on V, so
    sum c_i C_(p_i) is, and with it each of its blocks.
    """
    count = max(map(len, bases.values()), default=1)
    acting = set(_nonzero_arrows(V))
    targets = {a.target for a in acting}
    sizes, T, T_inv = {}, {}, {}
    for v, d in V.dims.items():
        if v not in bases:
            sizes[v] = [d] + [0] * (count - 1)
            continue
        sizes[v] = [B.rows for B in bases[v]]
        T[v] = rl.transpose(rl.vstack(*bases[v]))
        square = T[v].cols == T[v].rows == d
        if v in targets:
            T_inv[v] = rl.inverse(T[v]) if square else None
            filled = T_inv[v] is not None
        else:
            filled = square and rl.rank(T[v]) == d
        if not filled:
            raise ArithmeticError(f"the parts do not fill V at vertex {v}")
        if v in T_inv and rl.matmul(T[v], T_inv[v]) != rl.identity(d):
            raise ArithmeticError(f"the change of basis fails at vertex {v}")
    maps: list[dict[str, rl.Mat]] = [{} for _ in range(count)]
    for a in V.bq.quiver.arrows:
        x, y = a.source, a.target
        if a not in acting:  # V_a = 0, so C_a = 0 and so are its blocks
            blocks = list(map(rl.zeros, sizes[y], sizes[x]))
        else:
            C = rl.matmul(V.maps[a.name], T[x]) if x in T else V.maps[a.name]
            if y in T:
                C = rl.matmul(T_inv[y], C)
            blocks = rl.diagonal_blocks(C, sizes[y], sizes[x])
            if blocks is None:
                raise ArithmeticError(f"a part is not stable under arrow {a.name}")
        for part, block in zip(maps, blocks):
            part[a.name] = block
    return [Representation._satisfying(V.bq, {v: sizes[v][i] for v in V.dims}, part)
            for i, part in enumerate(maps)]


def _split(V: Representation, phi: dict[str, rl.Mat]) -> list[Representation] | None:
    """_cut's parts along the coprime factors of the minimal polynomial of
    phi (one square block per vertex), in the order polyfactor.factor gives
    them; None when that polynomial is a power of one irreducible."""
    verts = V.bq.quiver.vertices
    factors = factor(rl.minimal_polynomial(*[phi[v] for v in verts]))
    if len(factors) < 2:
        return None
    return _cut(V, {v: [rl.nullspace(rl.eval_poly(power, phi[v])) for power in factors]
                    for v in verts})


def _rows(A: rl.Mat, keep: list[int]) -> rl.Mat:
    """The rows of A at the indices keep, in that order."""
    return rl.over([A.num[i] for i in keep], A.den, len(keep), A.cols)


def _functionals(V: Representation, x: str, y: str, p: str | None) -> rl.Mat:
    """Φ of p: x -> y, the arrow called p or None for e_x (see decompose_certified):
    rows, the functionals on V_y that kill every arrow into y but p and, for an
    arrow p, V_p V_c for each arrow c into x with c p not declared zero.  The
    zero maps are dropped, and with none left Φ is I (decompose_certified, Peel)."""
    arrows = V.bq.quiver.arrows
    into = [V.maps[b.name] for b in arrows if b.target == y and b.name != p]
    if p is not None:
        into += [rl.matmul(V.maps[p], V.maps[c.name]) for c in arrows
                 if c.target == x and (c.name, p) not in V.bq.zero_paths]
    into = [A for A in into if not rl.is_zero(A)]
    if not into:
        return rl.identity(V.dims[y])
    return rl.nullspace(rl.transpose(rl.hstack(*into)))


def _peel(V: Representation) -> tuple[Representation, list[Representation]]:
    """(W, peeled) with V = W ⊕ peeled and W without a summand M_p for a path
    p: x -> y of length <= 1 (see decompose_certified): the trivial path at
    each vertex, whose M_p is the simple, then each arrow with x != y, whose
    M_p is its arrow module.  One _cut takes them all off; W is its first
    part, and each M_p, built once, is listed once per copy, in path order.
    W is V when there is none.  At a vertex no nonzero arrow touches, Φ and
    K come back as I with no elimination (see decompose_certified, Peel)."""
    bq = V.bq
    DV = dual(V)
    paths = [(v, v, None) for v in bq.quiver.vertices]
    paths += [(a.source, a.target, a.name) for a in bq.quiver.arrows if a.source != a.target]
    # for each path with a summand: at x (and y), its chosen functionals and its part
    cuts: list[dict[str, tuple[rl.Mat, rl.Mat]]] = []
    peeled = []
    for x, y, p in paths:
        Vp = rl.identity(V.dims[x]) if p is None else V.maps[p]
        if rl.is_zero(Vp):
            continue
        Phi = _functionals(V, x, y, p)
        Phi_p = Phi if p is None else rl.matmul(Phi, Vp)
        if rl.is_zero(Phi_p):
            continue
        K = _functionals(DV, y, x, p)  # rows: vectors of V_x, Hom(M_p, V) = Hom(DV, DM_p)
        rows, cols = rl.rank_profiles(rl.matmul(Phi_p, rl.transpose(K)))
        if not cols:
            continue
        K1 = _rows(K, cols)
        cuts.append({x: (_rows(Phi_p, rows), K1)})
        if p is not None:
            cuts[-1][y] = (_rows(Phi, rows), rl.matmul(K1, DV.maps[p]))
        peeled += [bq.simple(x) if p is None else bq.arrow_module(p)] * len(cols)
    if not cuts:
        return V, []
    # at each vertex a path touches, ker f first, then the part of each path
    bases = {v: [rl.nullspace(rl.vstack(*[c[v][0] for c in cuts if v in c]))]
             + [c[v][1] if v in c else rl.zeros(0, d) for c in cuts]
             for v, d in V.dims.items() if any(v in c for c in cuts)}
    return _cut(V, bases)[0], peeled


def _nonzero_arrows(V: Representation) -> list[Arrow]:
    """The arrows that act on V by a nonzero map, in arrow order: the pattern
    _tube and _separate read before any linear algebra."""
    return [a for a in V.bq.quiver.arrows if not rl.is_zero(V.maps[a.name])]


class TubeForm(Frozen):
    """The tube form of a node V (decompose_certified, Normal form): X, which
    is V in tube form and D(V) when V is in dual form; arrows, the names of
    a_1..a_4; verts, x_1..x_4 and c; E and E_inv, the frames E_v of X at
    verts, with X_a E_x = E_c N(M)_a on each a_i, and their inverses; and M,
    the tube operator of X."""

    _fields = ("X", "arrows", "verts", "E", "E_inv", "M")

    def __init__(self, X: Representation, arrows: tuple[str, ...], verts: tuple[str, ...],
                 E: tuple[rl.Mat, ...], E_inv: tuple[rl.Mat, ...], M: rl.Mat):
        vars(self).update(X=X, arrows=arrows, verts=verts, E=E, E_inv=E_inv, M=M)

    def hat(self, v: str, K: rl.Mat) -> rl.Mat:
        """K^ at the vertex v: K at each x_i, diag(K, K) at c."""
        return rl.block_diag(K, K) if v == self.verts[4] else K

    def cut(self, V: Representation, spaces: list[rl.Mat]) -> list[Representation]:
        """V cut along M-invariant subspaces whose direct sum is Q^n, one
        part per row basis K in spaces, in that order: X cut by _cut with
        the bases K^ E_v^T (Normal form), each part P given back as D(P)
        when X = D(V).  One space is Q^n itself, and V comes back whole,
        with no _cut."""
        if len(spaces) == 1:
            return [V]
        parts = _cut(self.X, {v: [rl.matmul(self.hat(v, K), Et) for K in spaces]
                              for v, Et in zip(self.verts, map(rl.transpose, self.E))})
        return parts if self.X is V else [dual(P) for P in parts]


def _tube(V: Representation) -> TubeForm | None:
    """The TubeForm of V (see decompose_certified), or None.  The arrow
    pattern and the dimensions are read on V, so a V in neither form builds
    no D(V)."""
    arrows = _nonzero_arrows(V)
    if len(arrows) != 4:
        return None
    if all(a.target == arrows[0].target for a in arrows):
        xs, c = [a.source for a in arrows], arrows[0].target
    elif all(a.source == arrows[0].source for a in arrows):
        xs, c = [a.target for a in arrows], arrows[0].source
    else:
        return None
    n = V.dims[xs[0]]
    shape = {**dict.fromkeys(xs, n), c: 2 * n}
    if n == 0 or len(shape) != 5 or any(d != shape.get(v, 0) for v, d in V.dims.items()):
        return None
    X = V if arrows[0].target == c else dual(V)
    W1, W2, W3, W4 = (X.maps[a.name] for a in arrows)
    T_inv = rl.inverse(rl.hstack(W1, W2))
    if T_inv is None:
        return None
    top, bottom = list(range(n)), list(range(n, 2 * n))
    A3, B3, A4, B4 = [_rows(S, half) for S in (rl.matmul(T_inv, W3), rl.matmul(T_inv, W4))
                      for half in (top, bottom)]
    A3_inv, B3_inv, A4_inv = inverses = [rl.inverse(B) for B in (A3, B3, A4)]
    if any(B is None for B in inverses):
        return None
    G3, G3_inv, I = rl.matmul(B3, A3_inv), rl.matmul(A3, B3_inv), rl.identity(n)
    # E_c = T diag(I, G_3) and E_c^-1 = diag(I, G_3^-1) T^-1
    E = (I, G3, A3_inv, A4_inv, rl.hstack(W1, rl.matmul(W2, G3)))
    E_inv = (I, G3_inv, A3, A4,
             rl.vstack(_rows(T_inv, top), rl.matmul(G3_inv, _rows(T_inv, bottom))))
    return TubeForm(X, tuple(a.name for a in arrows), (*xs, c), E, E_inv,
                    rl.matmul(G3_inv, rl.matmul(B4, A4_inv)))


def _pieces(M: rl.Mat) -> list[rl.Mat]:
    """Row bases of M-invariant subspaces whose direct sum is Q^n, with M
    cyclic of one primary factor on each (see decompose_certified, Pieces):
    for each factor q of the minimal polynomial, in the order
    polyfactor.factor gives them, the generalized kernel ker q(M) when its
    dimension is deg q, else _primary's pieces of M on it."""
    factors = factor(rl.minimal_polynomial(M))
    if len(factors) == 1:
        return _primary(M, len(factors[0]) - 1, rl.identity(M.rows))
    pieces = []
    for q in factors:
        K = rl.nullspace(rl.eval_poly(q, M))
        pieces += [K] if K.rows == len(q) - 1 else _primary(_restricted(M, K), len(q) - 1, K)
    return pieces


def _restricted(M: rl.Mat, K: rl.Mat) -> rl.Mat:
    """M on the M-invariant subspace with row basis K, in K's coordinates:
    the R with M K^T = K^T R, exact, unique as the rows of K are
    independent; ArithmeticError when there is none."""
    Kt = rl.transpose(K)
    R = rl.solve(Kt, rl.matmul(M, Kt))
    if R is None:
        raise ArithmeticError("a piece of Q^n is not M-invariant")
    return R


def _primary(M: rl.Mat, e: int, B: rl.Mat) -> list[rl.Mat]:
    """The cyclic pieces of M, of minimal polynomial p^k of degree e, as row
    bases in Q^n, B the row basis in Q^n of the space M acts on (see
    decompose_certified, Pieces): while e < dim, Z, the span of the Krylov
    vectors of the first unit vector e_j with e independent ones, and then
    the same on C, the common kernel of e_r, e_r M, ..., e_r M^(e - 1) for
    the first unit row e_r whose pairing with Z is invertible, with M on C
    in C's coordinates; then the last space itself.  Both read Krylov
    vectors, e_r M^k as the M^T-Krylov vectors of e_r: no power of M is
    formed."""
    pieces = []
    while e < M.rows:
        n, Mt = M.rows, rl.transpose(M)
        Z = next(K for K in (rl.krylov(M, j, e) for j in range(n)) if rl.rank(K) == e)
        C = rl.nullspace(next(F for F in (rl.krylov(Mt, r, e) for r in range(n))
                              if rl.rank(rl.matmul(F, rl.transpose(Z))) == e))
        pieces.append(rl.matmul(Z, B))
        M, B = _restricted(M, C), rl.matmul(C, B)
        e = len(rl.minimal_polynomial(M)) - 1
    return pieces + [B]


def _separate(V: Representation) -> list[tuple[Representation, TubeForm]] | None:
    """V cut along its separated quiver, each part with its _tube form, or None
    (see decompose_certified).  The sides (v, 0), the top, and (v, 1), the
    radical, of the vertices are joined by each nonzero arrow a: x -> y, from
    (x, 0) to (y, 1), with a union-find.  It declines before any linear
    algebra unless there are two components or more, each of four arrows with
    one common target or one common source; then when a length-2 path of
    nonzero arrows that bq does not declare zero acts on V by a nonzero map;
    then when a top is left to no component or a part is in neither form.
    The parts come in the order of the first arrow of each component."""
    arrows = _nonzero_arrows(V)
    root: dict[tuple[str, int], tuple[str, int]] = {}

    def find(u):
        while root.get(u, u) != u:
            u = root[u]
        return u

    for a in arrows:
        root[find((a.source, 0))] = find((a.target, 1))
    comps: dict[tuple[str, int], list[Arrow]] = {}
    for a in arrows:
        comps.setdefault(find((a.target, 1)), []).append(a)
    if len(comps) < 2 or any(len(c) != 4 or (len({a.source for a in c}) > 1
                                             and len({a.target for a in c}) > 1)
                             for c in comps.values()):
        return None
    if any(a.target == b.source and (a.name, b.name) not in V.bq.zero_paths
           and not rl.is_zero(rl.matmul(V.maps[b.name], V.maps[a.name]))
           for a in arrows for b in arrows):
        return None
    index = {key: i for i, key in enumerate(comps)}
    bases: dict[str, list[rl.Mat]] = {}
    for v, d in V.dims.items():
        if not d:
            continue
        # the images of the arrows into v, as rows: their independent rows span
        # rad_v, and the unit rows off their leading columns span a top_v
        images = rl.transpose(rl.hstack(rl.zeros(d, 0),
                                        *[V.maps[a.name] for a in arrows if a.target == v]))
        kept, lead = rl.rank_profiles(images)
        free = sorted(set(range(d)).difference(lead))
        sides = (_rows(rl.identity(d), free), _rows(images, kept))
        bases[v] = [rl.zeros(0, d)] * len(comps)
        for side, B in enumerate(sides):
            if B.rows:
                i = index.get(find((v, side)))
                if i is None:  # a top at a vertex no nonzero arrow leaves
                    return None
                bases[v][i] = rl.vstack(bases[v][i], B)
    parts = _cut(V, bases)
    tubes = [_tube(P) for P in parts]
    return None if any(t is None for t in tubes) else list(zip(parts, tubes))


def _coordinate_parts(V: Representation) -> list[Representation] | None:
    """V cut along the components of its coefficient quiver, or None when
    that is connected (see decompose_certified, Coordinate parts).  The
    nodes are the pairs (v, i), i < dim V_v, numbered in vertex order, and
    each nonzero entry (i, j) of V_a, a: x -> y, joins (y, i) to (x, j), by
    a union-find that stops as soon as one component is left.  The parts
    come in the order of their first node; a part has the coordinates of
    its component at each vertex, in increasing order, and the submatrices
    of V's maps on them."""
    offs, count = {}, 0
    for v, d in V.dims.items():
        offs[v], count = count, count + d
    if count == 1:
        return None
    root = list(range(count))

    def find(u):
        while root[u] != u:
            root[u] = u = root[root[u]]
        return u

    for a in V.bq.quiver.arrows:
        at_x, at_y = offs[a.source], offs[a.target]
        cols = range(at_x, at_x + V.dims[a.source])
        for i, row in enumerate(V.maps[a.name].num):
            u = find(at_y + i)
            for j in compress(cols, row):
                if (w := find(j)) != u:
                    root[w] = u
                    count -= 1
                    if count == 1:
                        return None
    index: dict[int, int] = {}
    coords: list[dict[str, list[int]]] = []
    for v, at in offs.items():
        for i in range(V.dims[v]):
            part = index.setdefault(find(at + i), len(coords))
            if part == len(coords):
                coords.append({w: [] for w in V.dims})
            coords[part][v].append(i)
    parts = []
    for c in coords:
        maps = {}
        for a in V.bq.quiver.arrows:
            A, rows, cols = V.maps[a.name], c[a.target], c[a.source]
            maps[a.name] = rl.over([[A.num[i][j] for j in cols] for i in rows], A.den,
                                   len(rows), len(cols))
        parts.append(Representation._satisfying(V.bq, {v: len(ks) for v, ks in c.items()}, maps))
    return parts


def decompose_certified(V: Representation) -> list[tuple[Representation, bool]]:
    """Indecomposable summands of V, each flagged certified/uncertified.

    Splits repeatedly along coprime factors of minimal polynomials of
    endomorphisms; a summand is certified when it is known to be
    indecomposable: End/rad has dimension one, or it is a tube node whose
    M is cyclic of one primary factor.  An uncertified summand resisted
    all splitting attempts but its endomorphism ring is not known to be
    local (e.g. a sum X ⊕ X that no candidate splits, or a module off
    the tube route whose End is a field larger than Q).

    Coordinate parts (_coordinate_parts).  The coefficient quiver of V
    (Ringel, "Exceptional modules are tree modules", 1998) has one node
    (v, i) per basis vector, i < dim V_v, and one edge per nonzero entry
    (i, j) of V_a, a: x -> y, joining (y, i) to (x, j).  When it has two
    components or more, V is cut along them before any linear algebra: a
    part has the coordinates of its component at each vertex, in
    increasing order, and the submatrices of V's maps on them; the parts
    come in the order of their first node, vertex by vertex.

    - Subrepresentations.  An entry (i, j) of V_a with (x, j) and (y, i)
      in different components is zero, or it would join them.  So V_a
      maps the coordinates of a component C at x into those of C at y,
      each component spans a subrepresentation, and V is their direct
      sum, as the components partition the basis.  Reordered by parts,
      every V_a is block diagonal, with the maps of the parts as blocks.
    - Relations.  A path matrix is a product of block-diagonal V_a, so it
      is block diagonal with the path matrices of the parts as blocks; a
      relation is zero on V, so it is zero on each block, and
      _satisfying builds the parts.
    - Summands.  By Krull-Schmidt the summands of V are those of its
      parts together.  A part of dimension one has End = Q, so it is a
      certified leaf and takes no peel; every other part takes the root
      pipeline below (_tube, _separate, _peel, the stack) once, and its
      summands come out together, in that pipeline's order.  A part is
      never searched again: its own search would find it whole.  A root
      whose coefficient quiver is connected takes the pipeline itself.
      The search cannot see a sum in a basis that mixes its summands, a
      conjugated one; the tube route, _separate and the peel cut those.

    The peel (_peel).  First every summand M_p of a path p: x -> y of
    length <= 1, with Q at x and at y and p acting by 1, is split off, all
    of them by one change of basis; their copies come out as certified
    leaves (End(M_p) = Q) ahead of the other summands of the root (of
    the part, for a root cut by its coefficient quiver).  The paths are the
    trivial path e_v at each vertex v, in vertex order, with x = y = v,
    V_p the identity and M_p the simple S_v (bq.simple); then each arrow
    a: x -> y with x != y, in arrow order, with M_p the module M_a
    (bq.arrow_module).  The argument is the one for Hom spaces of
    Assem-Simson-Skowroński 2006, ch. III.

    - Hom spaces.  A morphism V -> M_p is a functional φ on V_y, with
      φ V_p at x; it intertwines exactly when φ kills V_b for every arrow
      b into y other than p and, when p is an arrow, φ V_p V_c = 0 for
      every arrow c into x with c p not declared zero.  These φ form Φ.
      A morphism M_p -> V is a vector v in V_x, with V_p v at y, and
      Hom(M_p, V) = Hom(DV, DM_p) (dual), DM_p the M_p of the reversed
      path p: y -> x of the opposite quiver, which reverses the zero
      pairs.  So these v form K, the Φ of D(V) for p: y -> x.
    - Multiplicity.  The composite M_p -> V -> M_p of v and φ is the
      scalar φ V_p v, and M_p is a summand of V exactly m = rank(Φ V_p K)
      times.  Over V = ⊕ X_i the hom spaces split and a morphism through
      X_i composed with one from X_j (i != j) is zero, so the rank is the
      sum of the ranks for the X_i.  M_p gives 1.  Any other
      indecomposable X gives 0: were φ V_p v != 0, then v: M_p -> X would
      be split by φ / (φ V_p v), and M_p would be a summand of X.  For
      p = e_v, Φ is the annihilator of the radical I of V at v (the sum
      of the images of the arrows into v) and K its socle (the common
      kernel of the arrows out of v), so m = dim K - dim(K ∩ I).
    - One change of basis.  Every path is read on V itself.  For each p
      with m_p > 0, the m_p pivot columns K'_p of the pairing matrix and
      its m_p rows Φ'_p independent of the rows before them
      (rl.rank_profiles, one elimination) meet in an invertible minor
      Φ'_p V_p K'_p.  The K'_p make a morphism g: ⊕ M_p^{m_p} -> V and
      the Φ'_p one f: V -> ⊕ M_p^{m_p}.  f g is invertible, as it is
      modulo the radical of End(⊕ M_p^{m_p}): its diagonal blocks
      Φ'_p V_p K'_p are invertible, and its off-diagonal blocks are maps
      between the non-isomorphic bricks M_p and M_q, so they lie in that
      radical.  So V = im g ⊕ ker f, both subrepresentations; g is an
      injective morphism, so each im g_p is M_p^{m_p} exactly in the
      basis K'_p at x, V_p K'_p at y, and the copies are emitted as
      bq.simple(v) or bq.arrow_module(a), each built once.

    _cut makes this change of basis at the vertices the peeled paths
    touch, and checks it.  There the first part is ker f, the common
    kernel of the chosen Φ'_p at y and Φ'_p V_p at x, which the split
    search gets; each peeled path adds the part im g_p, empty elsewhere.
    A path is skipped when V_p = 0 (for e_v, when V_v = 0), when
    Φ V_p = 0 (Φ is computed first, and then the pairing is zero; for
    e_v, when the arrows into v span V_v), or when the pairing has rank
    0 (for e_v, when K ⊆ I); with nothing peeled, the split search
    starts from V itself.  _functionals leaves out the zero maps, which
    every functional kills, and with none left returns I, the unit basis
    rl.nullspace gives for a zero matrix, with no elimination.  So at a
    vertex v no nonzero arrow touches, Φ = K = I, the pairing I I^T = I
    costs no product and S_v is peeled d_v times; the bases and the cut
    are those the eliminations gave.

    The split search.  Each node carries an upper bound s on the number
    of its indecomposable summands (Krull-Schmidt); the root has none.
    Once its hom basis is computed, s is lowered to dim End when that is
    smaller, and once it is ranked, s becomes its semisimple rank ssr:
    the rank of its trace form (the Gram matrix of semisimple_rank).
    Both bound that number: for V the sum of the X_i^(m_i), X_i
    indecomposable and pairwise non-isomorphic with End(X_i)/rad of
    dimension d_i, dim End >= ssr = sum m_i^2 d_i >= sum m_i
    (is_isomorphic).  The cyclic certificate and the bound of a part
    (below) are the other two.  A node is a certified leaf exactly when
    s = 1: it is indecomposable, so End is local, every endomorphism is
    invertible or nilpotent (Fitting), and no candidate splits.  A node
    whose inherited bound is not 1 computes its hom basis, tries the
    first basis endomorphism, and is ranked only when that does not
    split it; then the search goes on with the rest of the basis and the
    annihilator candidate.  Ranking first would change nothing: the
    candidates tried, the summands and the flags are the same in either
    order, and a summand that the first candidate splits is never
    ranked.  Two facts spare most of the rest of the work:

    - Radical candidates.  After the ranking, a basis element whose row
      of the Gram matrix is zero is not tried.  The radical of the trace
      form is rad End(V) (semisimple_rank), so that element is
      nilpotent, its minimal polynomial is t^k, and it splits nothing,
      so the first candidate that splits is the one the full search finds.
    - A bound on the summands.  Let V split into k parts P_i, with s
      its bound at that point.  By Krull-Schmidt the summands of V are
      those of the P_i together, and each P_i has at least one, so P_i
      has at most s - (k - 1): the bound P_i gets.  A part whose bound is
      1 is indecomposable, so it is a certified leaf without its hom
      basis; no candidate could split it.

    The annihilator candidate (_split_candidates): phi in End(V) with
    phi e_j = 0 for a unit vector e_j and tr phi != 0.  phi is not
    invertible, as it kills e_j, nor nilpotent, as tr phi != 0.  So its
    minimal polynomial is t^k g with k >= 1, g(0) != 0 and deg g >= 1,
    and V = ker phi^k ⊕ ker g(phi) with both parts nonzero (Fitting):
    phi splits V, and _cut checks the cut.  A node with no such phi and
    no splitting basis element is left uncertified.

    One change of basis per split (_split).  For each factor p^k of the
    minimal polynomial of an endomorphism phi, the part at a vertex v is
    spanned by the columns of K_v, the basis of the kernel of p^k(phi_v)
    that rl.nullspace gives, which is the basis kernel() takes; _cut
    changes the basis with these parts and checks it.  Then
    K_y B = V_a K_x for the diagonal block B of a part, so B is the
    unique solution that kernel() solves for, and each part equals
    kernel(p^k(phi))[0], Mat for Mat.  For an endomorphism phi the checks
    cannot fail: the generalized kernels of the coprime factors of its
    minimal polynomial are subrepresentations, and V is their direct sum.

    The tube route (_tube, TubeForm.cut, _pieces).  A node W is in tube
    form when its nonzero arrows are exactly four, a_i: x_i -> c in arrow
    order, with x_1..x_4, c distinct; its dimension is n >= 1 at each x_i,
    2n at c and 0 elsewhere; T = [W_a1 | W_a2] is invertible; and with
    T^-1 W_a3 = [A_3; B_3], T^-1 W_a4 = [A_4; B_4], A_3, B_3 and A_4 are
    invertible.  Its tube operator is M = G_3^-1 G_4, with G_3 = B_3 A_3^-1
    and G_4 = B_4 A_4^-1.

    - Normal form.  N(M) has Q^n at each x_i, Q^2n at c and the maps
      [I; 0], [0; I], [I; I] and [I; M] on a_1..a_4 (Gelfand-Ponomarev 1970;
      Ringel, LNM 1099, 3.2).  The frames E_v, which are I, G_3, A_3^-1 and
      A_4^-1 at x_1..x_4 and E_c = T diag(I, G_3) = [W_a1 | W_a2 G_3] at c,
      are invertible, with W_a E_x = E_c N(M)_a on each a_i; on a_3 and a_4
      both sides are T [I; G_3] and T [I; G_4] = E_c [I; M].  So E is an
      isomorphism N(M) -> W, and _tube keeps M, the E_v and the E_v^-1.
      Lemma: a morphism N(M) -> N(M') is (P, P, P, P, diag(P, P)) with
      PM = M'P, and each such tuple is one.  Along a_1 and a_2,
      f_c = diag(P, Q) with P, Q the blocks at x_1, x_2; a_3 gives P = Q
      at x_3, and a_4 gives P at x_4 and PM = M'P.  An M-invariant K
      (a row basis) spans (K, K, K, K, K ⊕ K), in whose basis the maps
      are those of N(M_K), M_K the matrix of M on K; subspaces whose direct
      sum is Q^n cut N(M) into the direct sum of theirs.  Both facts carry
      over to W through the frames.  Write P^ and K^ for P and K at each
      x_i and diag(P, P) and diag(K, K) at c.  Hom(W, W') is the
      E'_v P^ E_v^-1 with PM = M'P, so End(W) is the centralizer of M
      (hom_basis lifts through this, _lifts); and K cuts W along the row
      bases K^ E_v^T (TubeForm.cut), which _cut checks, into the part
      N(M_K) itself.
    - Certificate.  When the minimal polynomial f of M is a power of one
      irreducible p and deg f = n, M is cyclic, so End(W), its
      centralizer, is Q[M] = Q[t]/(f) (a matrix that commutes with a
      cyclic one is a polynomial in it).  That ring is local, with
      End/rad = Q[t]/(p), so W is indecomposable and s = 1.
    - Pieces.  The subspaces come from f, which rl.minimal_polynomial
      reads off Krylov vectors of unit vectors, with no power of M.  With
      two or more factors q,
      coprime powers of irreducibles, they are the generalized kernels
      ker q(M), in the order polyfactor.factor gives them; M has the
      minimal polynomial q on ker q, so its part is certified when
      deg q = dim ker q, and else cut further as below, with M on ker q
      in its coordinates.  With f = p^k of degree n, Q^n itself is
      certified.  With f = p^k of degree e < n, they are Z and then C:
      - Z.  v = e_j, for the first j whose Krylov vectors v, Mv, ...,
        M^(e-1) v (rl.krylov, by matrix-vector products) have rank e, and
        Z is their span, M-invariant as f(M) v = 0, with M cyclic on it.
        Such a j exists: p^(k-1)(M) != 0 has a nonzero column j, and then
        the annihilator of e_j is p^k.
      - C.  φ = e_r, for the first unit row whose e x e pairing
        G_ab = φ M^(a+b) v has rank e, and C is the common kernel of φ,
        φM, ..., φM^(e-1), the Krylov vectors of e_r under M^T.  Such an
        r exists: any r with (p^(k-1)(M) v)_r != 0.  Were G c = 0 for some
        c != 0, the w in Z killed by every φ M^a (every a, as φ f(M) = 0)
        would make a nonzero M-invariant subspace of Z ≅ Q[t]/(p^k), which
        holds p^(k-1)(M) v; but φ does not kill that.  C is M-invariant, since
        φ f(M) = 0 puts φ M^e in the span of the rows before it, and
        dim C >= n - e.  G invertible gives Z ∩ C = 0, as w = sum c_b M^b v
        in C has G c = 0, so Q^n = Z ⊕ C.
      Z is certified.  M on C, of minimal polynomial p^k' (k' <= k), is
      read in C's coordinates (_restricted: the R with M C^T = C^T R,
      solved exactly; R's invariant subspaces, mapped by C, are M's), and
      the step repeats on it until M is cyclic there (_primary).  Each
      piece K found in coordinates B is mapped to Q^n as K B, so W is cut
      once, by one TubeForm.cut, into certified leaves, the cyclic
      primary summands Q[t]/(p^k) of the Q[t]-module (Q^n, M) (Jacobson,
      Basic Algebra I, ch. 3).  No node in tube or dual form takes a hom
      space, a candidate or a trace form.
    - Peel skip.  In N(M) the a_i are injective, so no S_{x_i} is a
      summand, and any three of the four images hold two of [I; 0],
      [0; I] and [I; I], which span Q^2n: so the radical at c is all of it
      and S_c is not one, and for M_{a_i} the other arrows into c fill it,
      so Φ = 0; every other arrow is zero.  So a root in tube form skips
      _peel.

    The dual form.  A node W is in dual form when its four nonzero arrows
    go the other way, a_i: c -> x_i, with the same dimensions, so that
    D(W) = dual(W) on bq.opposite() has the arrows a_i: x_i -> c; W takes
    the tube route when D(W) is in tube form, with D(W)'s M.  These are
    the α-zero nodes of big_component, the β-images embed_beta(R_n(λ)).

    - Cut.  D is additive and D(D(X)) = X on V.bq, as opposite() is
      built once, so D(W) = P_1 ⊕ ... ⊕ P_j exactly when
      W = D(P_1) ⊕ ... ⊕ D(P_j): TubeForm.cut cuts D(W) as above and
      gives each part P back as dual(P), of the dims of P.
    - Certificate.  f -> D(f), the transposed blocks, is an
      anti-isomorphism End(W) -> End(D(W)), so End(W) ≅ End(D(W))^op,
      which is local when D(W)'s M is cyclic of one primary factor.
    - Peel skip.  D(S_v) is the simple at v of the opposite and D(M_a)
      is the arrow module of the reversed arrow a, so a summand S_v or
      M_a of W would give one of D(W), which has none (above).

    The separated parts (_separate).  A root in neither form is cut along
    the separated quiver of rad^2 = 0 (Auslander-Reiten-Smalø 1995, X.2)
    when every part that gives is in tube or dual form.  At each vertex v,
    rad_v is the sum of the images of the nonzero arrows into v, and top_v
    is spanned by the unit vectors off the leading columns of an echelon
    basis of rad_v (rl.rank_profiles, one elimination), so V_v = top_v ⊕
    rad_v.  Each nonzero arrow a: x -> y joins the sides (x, top) and
    (y, rad), and the part of a component C at v is top_v if (v, top) is
    in C, plus rad_v if (v, rad) is.  On big_component the parts are
    A' = (top_1..top_4, rad_5), with beta = 0, and B' = (rad_1..rad_4,
    top_5), with alpha = 0, so embed_alpha(X) ⊕ embed_beta(Y) comes apart
    into the two images.

    - Subrepresentations.  The first check is that every path b a of two
      nonzero arrows, b first, that bq does not declare zero has
      V_a V_b = 0; the declared ones are zero on V.  Then every arrow
      kills rad V: an arrow a out of x kills the image of each arrow b
      into x.  So V_a is zero on rad_x and maps top_x into rad_y, and
      (y, rad) lies in the component of (x, top).  Each part is a
      subrepresentation and V is their direct sum; _cut checks both.
    - Summands.  By Krull-Schmidt the summands of V are those of its parts
      together.  Each part is in tube or dual form (its _tube is checked
      after the cut), so it has no summand S_v or M_a (Peel skip, above),
      and neither has V: the peel would find nothing.  The parts go on the
      stack with their tube forms and no bound, as the root has none.
    - Declines.  Before any linear algebra, the nonzero arrows must make
      two components or more, each of four arrows with one common target
      or one common source, the arrows of a part in tube or dual form; one
      component would be V itself, which _tube has declined.  A nonzero
      length-2 path declines (on big_component a diagonal beta_j alpha_i:
      then the projective-injective P_i is a summand, see
      cubics._tame_cases), as does a nonzero top_v at a vertex that no
      nonzero arrow leaves (it holds a summand S_v) and a part in neither
      form.  A declined root takes the peel and the split search as if
      the separation were not there.
    """
    if V.total_dim() == 0:
        return []
    parts = _coordinate_parts(V)
    if parts is None:
        return _decompose_root(V)
    return [leaf for P in parts
            for leaf in ([(P, True)] if P.total_dim() == 1 else _decompose_root(P))]


def _decompose_root(V: Representation) -> list[tuple[Representation, bool]]:
    """The summands of a nonzero root V, read with no coordinate search:
    its tube form, its separated parts or its peel, then the stack (see
    decompose_certified)."""
    tube = _tube(V)
    separated = None if tube else _separate(V)
    W, peeled = (V, []) if tube or separated else _peel(V)
    out: list[tuple[Representation, bool]] = [(M, True) for M in peeled]
    # s: an upper bound on the number of summands of the node; the root has none
    stack: list[tuple[Representation, int | None, TubeForm | None]] = (
        [(P, None, form) for P, form in separated] if separated
        else [(W, None, tube)] if W.total_dim() else [])
    while stack:
        cur, s, tube = stack.pop()
        if tube:  # certified leaves (Pieces), last part first, as split parts leave the stack
            out += [(P, True) for P in reversed(tube.cut(cur, _pieces(tube.M)))]
            continue
        if s != 1:
            basis = hom_basis(cur, cur)
            s = len(basis) if s is None else min(s, len(basis))
        if s != 1:
            candidates = enumerate(_split_candidates(cur, basis))
            parts = _split(cur, next(candidates)[1])
            if parts is None:
                gram = _trace_pairing(basis, basis)
                s = rl.rank(gram)  # ssr, a bound on the summands
                if s != 1:
                    # a basis element with a zero Gram row lies in the radical
                    parts = next(filter(None, (_split(cur, phi) for i, phi in candidates
                                               if i >= len(basis) or any(gram.num[i]))), None)
        if s == 1:
            out.append((cur, True))
        elif parts is None:
            out.append((cur, False))
        else:
            bound = s - len(parts) + 1
            stack.extend((part, bound, None if bound == 1 else _tube(part)) for part in parts)
    return out


def decompose(V: Representation) -> list[Representation]:
    return [rep for rep, _ in decompose_certified(V)]


def is_indecomposable(V: Representation) -> str:
    """'yes', 'no', or 'inconclusive' (End/rad too big but no split found).

    Read off decompose_certified: no summand (V = 0) or several give
    "no", one certified summand "yes", one uncertified "inconclusive".
    """
    summands = decompose_certified(V)
    if len(summands) != 1:
        return "no"
    return "yes" if summands[0][1] else "inconclusive"


def is_isomorphic(V: Representation, W: Representation) -> bool:
    """Whether V and W are isomorphic, decided exactly from trace forms.

    Criterion: V ≅ W if and only if ssr(V) + ssr(W) = 2 * rank(B), where
    ssr is semisimple_rank and B is the Gram matrix of the pairing
    (f, g) -> tr_V(g∘f) for f in a basis of Hom(V, W) and g in a basis
    of Hom(W, V).

    Proof.  By Krull-Schmidt write V ≅ ⊕ X_i^{m_i} and W ≅ ⊕ X_i^{n_i}
    with pairwise non-isomorphic indecomposables X_i.  Each End(X_i) is
    local; let D_i = End(X_i)/rad, a division algebra, and
    d_i = dim_Q D_i.

    1. The pairing vanishes when f or g lies in the radical of the
       category: then g∘f lies in rad End(V), a nilpotent ideal, so g∘f
       is nilpotent and has trace 0.  The pairing therefore factors
       through Hom(V, W)/rad × Hom(W, V)/rad, which is
       ⊕_i M_{n_i×m_i}(D_i) × M_{m_i×n_i}(D_i); pieces with different i
       compose to zero.
    2. Filter X_i by the submodules rad^k End(X_i) · X_i.  End(X_i) acts
       on each layer through D_i, and each layer is a free D_i-module,
       so tr_{X_i}(φ) = r_i · T_i(φ mod rad), with r_i = dim_{D_i} X_i
       = dim_Q X_i / d_i ≥ 1 and T_i the regular trace of D_i over Q.
       Summed over the diagonal of V, the pairing is
       Σ_i r_i · T_i(tr G_i F_i) on the pieces (F_i, G_i).
    3. T_i is nondegenerate in characteristic 0, since
       T_i(x · x⁻¹) = T_i(1) = d_i ≠ 0.  If F_i has an entry x ≠ 0 at
       (a, b), then G_i = x⁻¹ E_{ba} pairs with F_i to r_i · d_i ≠ 0.
       So the i-th piece is a nondegenerate pairing of two spaces of
       dimension m_i n_i d_i, and rank(B) = Σ_i m_i n_i d_i.
    4. For W = V this is the form semisimple_rank uses, so
       ssr(V) = Σ_i m_i² d_i and ssr(W) = Σ_i n_i² d_i.  Hence
       ssr(V) + ssr(W) − 2 rank(B) = Σ_i d_i (m_i − n_i)², which is zero
       exactly when m_i = n_i for every i, that is, when V ≅ W.

    On two modules in tube form, or two in dual form, on the same arrows,
    all four hom spaces take hom_basis's Sylvester route.  Each tube form
    is read once, and each End basis is built once, for its ssr.
    """
    if V.bq.quiver != W.bq.quiver:
        raise ValueError("representations live over different quivers")
    if V.dim_vector() != W.dim_vector():
        return False
    tube_V, tube_W = _tube(V), _tube(W)
    pairing = _trace_pairing(_hom_basis(V, W, tube_V, tube_W), _hom_basis(W, V, tube_W, tube_V))
    ssr = _ssr(_hom_basis(V, V, tube_V, tube_V)) + _ssr(_hom_basis(W, W, tube_W, tube_W))
    return ssr == 2 * rl.rank(pairing)


# ---------------------------------------------------------------------------
# Representation files: {"quiver": name-or-inline, "dims": {...}, "maps": {...}}
# with matrix entries written as integers or exact strings "p/q" (decimal-free).
# Reading checks the shapes and raises ValueError (or KeyError, whose message
# names a missing key or an unknown named quiver) on anything else.

_EXACT_ENTRY = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _fraction_from(x, entry: str) -> Fraction:
    """An exact entry: a JSON integer or a "p" / "p/q" string, never a decimal;
    entry names it in the error, as in "map alpha1: entry (0, 1)" or
    "relation 0: term 1: coefficient"."""
    if _is_int(x) or (isinstance(x, str) and _EXACT_ENTRY.fullmatch(x)):
        return Fraction(x)
    raise ValueError(f"{entry} {x!r} is not an integer or a \"p/q\" string")


def _is_list_of(x, check) -> bool:
    return isinstance(x, list) and all(check(item) for item in x)


def _is_names(x) -> bool:
    return _is_list_of(x, lambda name: isinstance(name, str))


def _is_term(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and _is_names(x[1])


def quiver_to_dict(bq: BoundQuiver) -> dict:
    """bq as an inline quiver; "vertex_labels" is written when bq has any."""
    out = {
        "vertices": list(bq.quiver.vertices),
        "arrows": [[a.name, a.source, a.target] for a in bq.quiver.arrows],
        "relations": [_relation_data(rel) for rel in bq.relations],
        "max_path_length": bq.bound,
    }
    if bq.vertex_labels:
        out["vertex_labels"] = dict(bq.vertex_labels)
    return out


def _require(data: dict, *keys: str) -> None:
    for key in keys:
        if key not in data:
            raise KeyError(f'missing key "{key}"')


def quiver_from_dict(data: dict) -> BoundQuiver:
    if not isinstance(data, dict):
        raise ValueError("an inline quiver must be an object")
    _require(data, "vertices", "arrows")
    if not _is_names(data["vertices"]):
        raise ValueError('"vertices" must be a list of names')
    if not _is_list_of(data["arrows"], lambda a: _is_names(a) and len(a) == 3):
        raise ValueError('"arrows" must be a list of [name, source, target]')
    if not _is_list_of(data.get("relations", []), lambda rel: _is_list_of(rel, _is_term)):
        raise ValueError('"relations" must be a list of lists of [coefficient, [arrow, ...]]')
    bound = data.get("max_path_length")
    if bound is not None and not _is_int(bound):
        raise ValueError('"max_path_length" must be an integer')
    labels = data.get("vertex_labels", {})
    if not isinstance(labels, dict) or not all(
            v in data["vertices"] and isinstance(name, str) for v, name in labels.items()):
        raise ValueError('"vertex_labels" must map vertices of the quiver to names')
    quiver = Quiver(
        tuple(data["vertices"]),
        tuple(Arrow(name, src, tgt) for name, src, tgt in data["arrows"]),
    )
    relations = tuple(tuple((_fraction_from(c, f"relation {r}: term {t}: coefficient"), tuple(p))
                            for t, (c, p) in enumerate(rel))
                      for r, rel in enumerate(data.get("relations", [])))
    return BoundQuiver(quiver, relations, bound, vertex_labels=labels)


def rep_to_dict(V: Representation) -> dict:
    """V as a representation file: the quiver by name when the name resolves to
    V.bq itself among cubics.named_quivers(), so rep_from_dict reads it back,
    and inline otherwise (a quiver of the user's naming or an equal copy)."""
    from .cubics import named_quivers  # cubics imports this module
    named = V.bq.name and named_quivers().get(V.bq.name) is V.bq
    out = {
        "quiver": V.bq.name if named else quiver_to_dict(V.bq),
        "dims": {v: V.dims[v] for v in V.bq.quiver.vertices},
        "maps": {},
    }
    for a in V.bq.quiver.arrows:
        out["maps"][a.name] = [[str(x) for x in row] for row in V.maps[a.name]]
    return out


def rep_from_dict(data: dict, named_quivers: dict[str, BoundQuiver] | None = None) -> Representation:
    if not isinstance(data, dict):
        raise ValueError("a representation must be an object")
    _require(data, "quiver", "dims")
    ref = data["quiver"]
    if isinstance(ref, str):
        if not named_quivers or ref not in named_quivers:
            raise KeyError(f"unknown quiver {ref!r}; expected one of {', '.join(named_quivers or ())}")
        bq = named_quivers[ref]
    else:
        bq = quiver_from_dict(ref)
    dims = data["dims"]
    if not isinstance(dims, dict) or not all(_is_int(d) for d in dims.values()):
        raise ValueError('"dims" must map each vertex to an integer')
    rows_of = data.get("maps", {})
    if not isinstance(rows_of, dict) or not all(
            _is_list_of(rows, lambda row: isinstance(row, list)) for rows in rows_of.values()):
        raise ValueError('"maps" must map each arrow to a list of rows')
    maps = {name: [[_fraction_from(x, f"map {name}: entry ({i}, {j})") for j, x in enumerate(row)]
                   for i, row in enumerate(rows)]
            for name, rows in rows_of.items()}
    return Representation(bq, dims, maps)
