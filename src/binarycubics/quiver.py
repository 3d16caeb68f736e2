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
a cyclic operator M of one primary factor, so that End = ℚ[M] is local;
otherwise the verdict is "inconclusive" by design.

A BoundQuiver validates its relations once and keeps the endpoints of
each relation and its one-term vanishing paths, which everything below
reads.  An unknown vertex, or an arrow a relation names that the quiver
lacks, raises KeyError, and a failed exactness condition raises
ArithmeticError, never an assert, so python -O gives the same answers.

Before its split search, decompose_certified peels off every summand
M_p of a path p: x -> y of length <= 1, with Q at x and at y and p
acting by 1: the simple S_v for the trivial path at each vertex v, then
the two-dimensional module M_a for each arrow a with x != y.  With
Φ = Hom(V, M_p) and K = Hom(M_p, V), read as functionals on V_y and
vectors in V_x, M_p is a summand exactly rank(Φ V_p K) times; for S_v
that is dim K - dim(K ∩ I), K the socle and I the radical of V at v;
one change of basis takes them all off (proofs at decompose_certified).

The split search is the only randomized step.  It draws from a fixed
internal generator, so the summands and verdicts depend on V alone, and
every split it finds is checked exactly.  It reads what it can off the
trace form: a basis element in its radical is never tried, and a part
of a split whose number of summands is bounded by 1 is certified without
its hom space (proofs at decompose_certified).  The split and the peel
share one change of basis per vertex, _cut, which must be invertible
and block-diagonalize every arrow; its parts then satisfy the
relations, so it builds them without Representation's check.  Only
conjugate takes a seed.

A four-subspace tube module, on arrows a_i: x_i -> c whose images U_1 + U_2
fill V_c and U_3, U_4 are graphs over U_1, is the normal form of an operator
M, and End(V) is the centralizer of M (Gelfand-Ponomarev 1970; Ringel, LNM
1099, 3.2).  decompose_certified splits such a node along the primary
decomposition of M, or certifies it when M is cyclic, with no hom space; at
the root this test replaces the peel.  A node in dual form, four arrows
c -> x_i, is read the same way through D (proofs at decompose_certified).
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cached_property, reduce
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
    string or a bool, raises TypeError rather than being truncated.

    The relation check runs on every representation built here, except
    where the construction proves the relations: there _satisfying builds
    it, called where the proof is written, by _cut (the parts of _split,
    _peel and _tube_split), _one_arrow (simple, arrow_module), direct_sum
    on one bound quiver, conjugate and dual.
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
        self.maps = _vertexwise(
            self.maps, {a.name: (self.dims[a.target], self.dims[a.source]) for a in q.arrows},
            "maps for unknown arrows")
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

    def arrow_rank(self, name: str) -> int:
        return rl.rank(self.maps[name])

    def __repr__(self):
        dims = ", ".join(f"{v}:{d}" for v, d in self.dims.items() if d)
        return f"Representation({self.bq.name or 'quiver'}; {dims or '0'})"


def _vertexwise(given: dict, shapes: dict[str, tuple[int, int]], unknown: str) -> dict[str, rl.Mat]:
    """One matrix per key of shapes, checked by rl.mat; omitted (or None) keys
    are zero, and keys that shapes lacks raise ValueError headed by unknown."""
    extra = set(given) - set(shapes)
    if extra:
        raise ValueError(f"{unknown}: {sorted(extra)}")
    return {key: rl.zeros(m, n) if given.get(key) is None else rl.mat(given[key], m, n)
            for key, (m, n) in shapes.items()}


class RepMorphism(Value):
    """Vertexwise matrices intertwining two representations of one quiver.

    The blocks are normalized like Representation.maps (by _vertexwise):
    omitted vertices default to zero blocks; unknown vertex names, wrong
    shapes and blocks that do not intertwine raise ValueError.  The
    elements of hom_basis are built by _intertwining, which skips both
    steps: hom_basis builds every block as a Mat of the right shape and
    has already checked every element exactly against the intertwining
    equations, which is the same check.
    """

    _fields = ("source", "target", "blocks")

    def __init__(self, source: Representation, target: Representation, blocks: dict[str, rl.Mat]):
        self.source, self.target, self.blocks = source, target, blocks
        self.__post_init__()

    def __post_init__(self):
        V, W = self.source, self.target
        self.blocks = _vertexwise(
            self.blocks, {v: (W.dims[v], V.dims[v]) for v in V.bq.quiver.vertices},
            "blocks for unknown vertices")
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


def hom_basis(V: Representation, W: Representation) -> list[RepMorphism]:
    """Basis of Hom(V, W), by exact solution of the intertwining system.

    The unknowns are the entries of the blocks f_v, vertex by vertex and
    row-major; each arrow a: x -> y gives one equation per entry of
    f_y V(a) - W(a) f_x.  The equations go to rl.kernel_basis as sparse
    integer rows, read off the numerators of V(a) and W(a) over the lcm
    of their two denominators: the nonzero entries of each column of
    V(a) and each row of W(a) are listed once per arrow, and the
    equation of entry (i, j) is built from column j of V(a) and row i of
    W(a) alone, so its cost follows their nonzero entries.  kernel_basis
    checks every basis vector exactly against every row.  That check is
    the intertwining equation, so the elements are built without
    RepMorphism's own check of it; each block is the integer slice of a
    basis vector over its denominator.  The basis is the one read off
    the reduced echelon form of the system, which is unique: it does not
    depend on how the elimination runs.
    """
    if V.bq.quiver != W.bq.quiver:
        raise ValueError("representations live over different quivers")
    offs, total = {}, 0  # where the entries of each block f_v start, and how many there are
    for v in V.bq.quiver.vertices:
        offs[v], total = total, total + V.dims[v] * W.dims[v]
    rows: list[rl.Row] = []
    for a in V.bq.quiver.arrows:
        x, y = a.source, a.target
        dvx, dvy = V.dims[x], V.dims[y]
        va, wa = V.maps[a.name], W.maps[a.name]
        den = lcm(va.den, wa.den)
        va_scale, wa_scale = den // va.den, den // wa.den
        # the nonzero entries of V(a) column j, as (unknown f_y[0][k], V(a)[k][j]),
        # and of W(a) row i, as (unknown f_x[k][0], -W(a)[i][k]), listed once
        va_cols = [[(offs[y] + k, va_scale * v) for k, v in enumerate(col) if v]
                   for col in rl.transpose(va).num]
        wa_rows = [[(offs[x] + k * dvx, -wa_scale * v) for k, v in enumerate(row) if v]
                   for row in wa.num]
        for i, wa_row in enumerate(wa_rows):
            at = i * dvy
            for j, va_col in enumerate(va_cols):
                row: rl.Row = {at + k: v for k, v in va_col}
                for k, v in wa_row:
                    row[k + j] = row.get(k + j, 0) + v
                if row:
                    rows.append(row)
    basis = []
    for ints, den in rl.kernel_basis(rows, total):
        blocks = {}
        for v in V.bq.quiver.vertices:
            m, n = W.dims[v], V.dims[v]
            at = offs[v]
            blocks[v] = rl.over([ints[at + i * n: at + (i + 1) * n] for i in range(m)], den, m, n)
        basis.append(RepMorphism._intertwining(V, W, blocks))
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
    """V with arrow a: x -> y changed to T_y V_a T_x^-1, T_v the first
    invertible draw of a matrix with entries in [-3, 3]; isomorphic to V.
    Its relations hold unchecked: its path matrices are V's, conjugated."""
    rng = random.Random(seed)
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
    basis = hom_basis(V, V)
    return rl.rank(_trace_pairing(basis, basis))


def _combination(basis: list[RepMorphism], coeffs) -> dict[str, rl.Mat] | None:
    """Blocks of the sum of c * b over the nonzero coefficients; None when all are 0."""
    out = None
    for c, b in zip(coeffs, basis):
        if c:
            scaled = {v: rl.scale(m, c) for v, m in b.blocks.items()}
            out = scaled if out is None else {v: rl.mat_add(out[v], scaled[v]) for v in out}
    return out


#: random endomorphisms a split attempt tries after the basis elements
SPLIT_TRIALS = 40


def _split_candidates(basis: list[RepMorphism], rng: random.Random):
    """The blocks of each basis endomorphism, then of SPLIT_TRIALS random
    integer combinations of them (all-zero draws skipped).  A combination
    is not re-checked as a morphism: it intertwines by linearity, and
    _split checks whatever it cuts along exactly."""
    for b in basis:
        yield b.blocks
    d = len(basis)
    for _ in range(SPLIT_TRIALS):
        blocks = _combination(basis, [rng.randint(-5, 5) for _ in range(d)])
        if blocks is not None:
            yield blocks


def _cut(V: Representation, bases: dict[str, list[rl.Mat]]) -> list[Representation]:
    """V cut into parts by one checked change of basis per vertex, each part
    a Representation on V.bq: _split and _tube_split keep them all, _peel
    only the first.

    The rows of bases[v][i] are a basis of part i at v (the form of
    rl.nullspace); a vertex that bases lacks keeps its basis, all of it in
    the first part.  T_v holds the bases of the parts at v as columns, and
    an arrow a: x -> y becomes C_a = T_y^-1 V_a T_x (no product at a vertex
    left alone), whose diagonal blocks are the maps of the parts.  Checks,
    each raising ArithmeticError:

    - T_v is square and invertible: the parts fill V_v;
    - T_v T_v^-1 = I, once per vertex: the inverse is right, so
      T_y C_a = V_a T_x on every arrow, the check it replaces;
    - C_a is zero off its diagonal blocks: each part is arrow-stable.

    Once they pass, the parts satisfy the relations, so _satisfying builds
    them.  A path p: x -> y has the matrix C_p = T_y^-1 V_p T_x, the inner
    T_v T_v^-1 cancelling, and C_p is block diagonal with the path matrices
    of the parts as its blocks; a relation sum c_i V_(p_i) is zero on V, so
    sum c_i C_(p_i) is, and with it each of its blocks.
    """
    count = max(map(len, bases.values()), default=1)
    sizes, T, T_inv = {}, {}, {}
    for v, d in V.dims.items():
        if v not in bases:
            sizes[v] = [d] + [0] * (count - 1)
            continue
        sizes[v] = [B.rows for B in bases[v]]
        T[v] = rl.transpose(reduce(rl.vstack, bases[v]))
        T_inv[v] = rl.inverse(T[v]) if T[v].cols == T[v].rows == d else None
        if T_inv[v] is None:
            raise ArithmeticError(f"the parts do not fill V at vertex {v}")
        if rl.matmul(T[v], T_inv[v]) != rl.identity(d):
            raise ArithmeticError(f"the change of basis fails at vertex {v}")
    maps: list[dict[str, rl.Mat]] = [{} for _ in range(count)]
    for a in V.bq.quiver.arrows:
        x, y = a.source, a.target
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
    arrow p, V_p V_c for each arrow c into x with c p not declared zero."""
    arrows = V.bq.quiver.arrows
    into = [V.maps[b.name] for b in arrows if b.target == y and b.name != p]
    if p is not None:
        into += [rl.matmul(V.maps[p], V.maps[c.name]) for c in arrows
                 if c.target == x and (c.name, p) not in V.bq.zero_paths]
    return rl.nullspace(rl.transpose(reduce(rl.hstack, into, rl.zeros(V.dims[y], 0))))


def _peel(V: Representation) -> tuple[Representation, list[Representation]]:
    """(W, peeled) with V = W ⊕ peeled and W without a summand M_p for a path
    p: x -> y of length <= 1 (see decompose_certified): the trivial path at
    each vertex, whose M_p is the simple, then each arrow with x != y, whose
    M_p is its arrow module.  One _cut takes them all off; W is its first
    part, and each M_p, built once, is listed once per copy, in path order.
    W is V when there is none."""
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
    bases = {v: [rl.nullspace(reduce(rl.vstack, [c[v][0] for c in cuts if v in c]))]
             + [c[v][1] if v in c else rl.zeros(0, d) for c in cuts]
             for v, d in V.dims.items() if any(v in c for c in cuts)}
    return _cut(V, bases)[0], peeled


def _tube(V: Representation) -> tuple | None:
    """The tube form of V or of D(V) (see decompose_certified), or None: X, the
    vertices x_1..x_4 and c, T^T, G_3^T, A_3^-T, A_4^-T and the tube operator M
    of X, where X is V in tube form and D(V) when V is in dual form.  The
    arrow pattern and the dimensions are read on V, so a V in neither form
    builds no D(V)."""
    arrows = [a for a in V.bq.quiver.arrows if not rl.is_zero(V.maps[a.name])]
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
    T = rl.hstack(W1, W2)
    T_inv = rl.inverse(T)
    if T_inv is None:
        return None
    A3, B3, A4, B4 = [_rows(rl.matmul(T_inv, Wi), list(half)) for Wi in (W3, W4)
                      for half in (range(n), range(n, 2 * n))]
    A3_inv, B3_inv, A4_inv = inverses = [rl.inverse(B) for B in (A3, B3, A4)]
    if any(B is None for B in inverses):
        return None
    M = rl.matmul(rl.matmul(A3, B3_inv), rl.matmul(B4, A4_inv))
    return (X, xs + [c], rl.transpose(T), rl.transpose(rl.matmul(B3, A3_inv)),
            rl.transpose(A3_inv), rl.transpose(A4_inv), M)


def _tube_split(V: Representation, tube: tuple, factors: list) -> list[Representation]:
    """V cut along the factors of the minimal polynomial of the tube operator M
    of _tube's X, in the order polyfactor.factor gives them: X cut by _cut into
    the generalized kernels of M, and for a V in dual form, X = D(V), each
    part P of X comes back as D(P) (see decompose_certified)."""
    X, verts, Tt, G3t, A3_invt, A4_invt, M = tube
    bases: dict[str, list[rl.Mat]] = {v: [] for v in verts}
    for power in factors:
        K = rl.nullspace(rl.eval_poly(power, M))
        KG = rl.matmul(K, G3t)
        for v, B in zip(verts, (K, KG, rl.matmul(K, A3_invt), rl.matmul(K, A4_invt),
                                rl.matmul(rl.block_diag(K, KG), Tt))):
            bases[v].append(B)
    parts = _cut(X, bases)
    return parts if X is V else [dual(P) for P in parts]


def decompose_certified(V: Representation) -> list[tuple[Representation, bool]]:
    """Indecomposable summands of V, each flagged certified/uncertified.

    Splits repeatedly along coprime factors of minimal polynomials of
    endomorphisms; a summand is certified when it is known to be
    indecomposable: End/rad has dimension one, or it is a tube node whose
    M is cyclic of one primary factor.  An uncertified summand resisted
    all splitting attempts but its endomorphism ring is not known to be
    local (e.g. a sum X ⊕ X that no candidate splits, or a module off
    the tube route whose End is a field larger than Q).

    The peel (_peel).  First every summand M_p of a path p: x -> y of
    length <= 1, with Q at x and at y and p acting by 1, is split off, all
    of them by one change of basis; their copies come out as certified
    leaves (End(M_p) = Q) ahead of the other summands.  The paths are the
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
    starts from V itself.

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
    SPLIT_TRIALS random combinations.
    Ranking first would change nothing: the candidates tried, the draws
    of the generator, the summands and the flags are the same in either
    order, and a summand that the first candidate splits is never
    ranked.  Two facts spare most of the rest of the work:

    - Radical candidates.  After the ranking, a basis element whose row
      of the Gram matrix is zero is not tried.  The radical of the trace
      form is rad End(V) (semisimple_rank), so that element is
      nilpotent, its minimal polynomial is t^k, and it splits nothing.
      The random combinations are drawn as before, so the first
      candidate that splits is the one the full search finds.
    - A bound on the summands.  Let V split into k parts P_i, with s
      its bound at that point.  By Krull-Schmidt the summands of V are
      those of the P_i together, and each P_i has at least one, so P_i
      has at most s - (k - 1): the bound P_i gets.  A part whose bound is
      1 is indecomposable, so it is a certified leaf without its hom
      basis; no candidate could split it, so no draw of the generator is
      skipped.

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

    The tube route (_tube, _tube_split).  A node W is in tube form when its
    nonzero arrows are exactly four, a_i: x_i -> c in arrow order, with
    x_1..x_4, c distinct; its dimension is n >= 1 at each x_i, 2n at c and
    0 elsewhere; T = [W_a1 | W_a2] is invertible; and with
    T^-1 W_a3 = [A_3; B_3], T^-1 W_a4 = [A_4; B_4], A_3, B_3 and A_4 are
    invertible.  Its tube operator is M = A_3 B_3^-1 B_4 A_4^-1.

    - Normal form.  In the basis T, U_1 = im a_1 is Q^n + 0, U_2 is 0 + Q^n,
      and U_3, U_4 are the graphs of G_3 = B_3 A_3^-1 and G_4 = B_4 A_4^-1
      over U_1, with M = G_3^-1 G_4.  Every a_i is injective.
    - End = centralizer of M.  f in End(W) is fixed by f_c, as the a_i are
      injective, and f_c keeps each U_i: diag(P, Q) in the basis T, with
      Q = G_3 P G_3^-1 (U_3) and then PM = MP (U_4).  Conversely a P that
      commutes with M acts by P, G_3 P G_3^-1, A_3^-1 P A_3, A_4^-1 P A_4
      at x_1..x_4 and T diag(P, G_3 P G_3^-1) T^-1 at c.
    - Split.  Take P = M: for a factor q of its minimal polynomial, a
      power of one irreducible, the generalized kernel is K = ker q(M) at
      x_1 and G_3 K, A_3^-1 K, A_4^-1 K, T(K + G_3 K) at x_2, x_3, x_4, c.
      Their bases are the rows of K (from rl.nullspace), K G_3^T,
      K A_3^-T, K A_4^-T and [K 0; 0 K G_3^T] T^T, which _cut checks.  A
      part has tube operator M on K, of minimal polynomial q: it is a
      certified leaf (below) when deg q = dim K, else it gets the bound
      s - (j - 1) for j parts, or none at the root.  A tube node draws
      nothing from the generator.
    - Certificate.  When the minimal polynomial f of M is a power of one
      irreducible p and deg f = n, M is cyclic, so End(W), its
      centralizer, is Q[M] = Q[t]/(f) (a matrix that commutes with a
      cyclic one is a polynomial in it).  That ring is local, with
      End/rad = Q[t]/(p), so W is indecomposable and s = 1.  Any other M
      of one primary factor goes to the split search.
    - Peel skip.  The a_i are injective, so no S_{x_i} is a summand; the
      radical U_1 + U_2 at c is W_c, so S_c is not one; for M_{a_i} the
      other arrows into c span U_2 + U_3, U_1 + U_3 or U_1 + U_2, which is
      W_c, so Φ = 0; every other arrow is zero.  So a root in tube form
      skips _peel.

    The dual form.  A node W is in dual form when its four nonzero arrows
    go the other way, a_i: c -> x_i, with the same dimensions, so that
    D(W) = dual(W) on bq.opposite() has the arrows a_i: x_i -> c; W takes
    the tube route when D(W) is in tube form, with D(W)'s M.  These are
    the α-zero nodes of big_component, the β-images embed_beta(R_n(λ)).

    - Split.  D is additive and D(D(X)) = X on V.bq, as opposite() is
      built once, so D(W) = P_1 ⊕ ... ⊕ P_j exactly when
      W = D(P_1) ⊕ ... ⊕ D(P_j): _tube_split cuts D(W) as above and
      gives each part P back as dual(P), of the dims of P.
    - Certificate.  f -> D(f), the transposed blocks, is an
      anti-isomorphism End(W) -> End(D(W)), so End(W) ≅ End(D(W))^op,
      which is local when D(W)'s M is cyclic of one primary factor.
    - Peel skip.  D(S_v) is the simple at v of the opposite and D(M_a)
      is the arrow module of the reversed arrow a, so a summand S_v or
      M_a of W would give one of D(W), which has none (above).
    """
    if V.total_dim() == 0:
        return []
    rng = random.Random(0)  # fixed, so the summands depend on V alone
    tube = _tube(V)
    W, peeled = (V, []) if tube else _peel(V)
    out: list[tuple[Representation, bool]] = [(M, True) for M in peeled]
    # s: an upper bound on the number of summands of the node; the root has none
    stack: list[tuple[Representation, int | None, tuple | None]] = (
        [(W, None, tube)] if W.total_dim() else [])
    while stack:
        cur, s, tube = stack.pop()
        parts = None
        if s != 1 and tube:
            factors = factor(rl.minimal_polynomial(tube[-1]))
            if len(factors) == 1 and len(factors[0]) == tube[-1].rows + 1:
                s = 1  # M is cyclic of one primary factor
            elif len(factors) > 1:
                parts = _tube_split(cur, tube, factors)
                bound = None if s is None else s - len(parts) + 1
                # each part is in the node's form, and its M has the minimal polynomial
                # its factor q, so it is cyclic when deg q = dim K
                stack.extend((P, 1 if len(q) == P.dims[tube[1][0]] + 1 else bound, None)
                             for P, q in zip(parts, factors))
                continue
        if s != 1:
            basis = hom_basis(cur, cur)
            s = len(basis) if s is None else min(s, len(basis))
        if s != 1:
            candidates = enumerate(_split_candidates(basis, rng))
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
    """
    if V.bq.quiver != W.bq.quiver:
        raise ValueError("representations live over different quivers")
    if V.dim_vector() != W.dim_vector():
        return False
    pairing = _trace_pairing(hom_basis(V, W), hom_basis(W, V))
    return semisimple_rank(V) + semisimple_rank(W) == 2 * rl.rank(pairing)


# ---------------------------------------------------------------------------
# Representation files: {"quiver": name-or-inline, "dims": {...}, "maps": {...}}
# with matrix entries written as integers or exact strings "p/q" (decimal-free).
# Reading checks the shapes and raises ValueError (or KeyError, whose message
# names a missing key or an unknown named quiver) on anything else.

_EXACT_ENTRY = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _fraction_from(x) -> Fraction:
    """An exact entry: a JSON integer or a "p" / "p/q" string, never a decimal."""
    if _is_int(x) or (isinstance(x, str) and _EXACT_ENTRY.fullmatch(x)):
        return Fraction(x)
    raise ValueError(f"entry {x!r} is not an integer or a \"p/q\" string")


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
    relations = tuple(tuple((_fraction_from(c), tuple(p)) for c, p in rel)
                      for rel in data.get("relations", []))
    return BoundQuiver(quiver, relations, bound, vertex_labels=labels)


def rep_to_dict(V: Representation) -> dict:
    out = {
        "quiver": V.bq.name if V.bq.name else quiver_to_dict(V.bq),
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
    maps = {name: [[_fraction_from(x) for x in row] for row in rows]
            for name, rows in rows_of.items()}
    return Representation(bq, dims, maps)
