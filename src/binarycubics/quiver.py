"""Quivers with relations and their representations over exact rationals.

A quiver is a finite directed multigraph; a relation is a rational
linear combination of length >= 2 paths sharing a source and a target,
and all paths long enough are required to die in the ideal the
relations generate (admissibility), so the quiver algebra is finite
dimensional.  Paths compose left to right: in the product p*q the path
p is traversed first, and a representation sends p = a1 a2 ... ak to
the matrix product V(ak) @ ... @ V(a1).

The engine computes path bases of the quiver algebra degree by degree
(row reduction on each (source, target, length) slice, with monomial
relations short-circuited to subpath exclusion), the simple, projective
and injective representations, morphism spaces by solving the exact
intertwining equations, kernels and cokernels with their induced
maps, the semisimple dimension of endomorphism algebras (rank
of the trace form of V as an End(V)-module, valid in characteristic
zero), exact isomorphism tests (ranks of the trace pairings of the hom
spaces, see is_isomorphic), and decompositions into indecomposables by
splitting along coprime factors of minimal polynomials of
endomorphisms, which polyfactor.factor finds exactly over ℚ, in-house.
Indecomposability is certified only in the absolutely indecomposable
case End/rad of dimension one; otherwise the verdict is "inconclusive"
by design.

A BoundQuiver validates its relations once and keeps the endpoints of
each relation and its one-term vanishing paths, which everything below
reads.  An unknown vertex, or an arrow a relation names that the
quiver lacks, raises KeyError, and a failed exactness condition raises
ArithmeticError, never an assert, so python -O gives the same answers.

Before its split search, decompose_certified peels off every simple
summand in one pass.  At a vertex v the common kernel K of the arrows
out of v is the socle of V there and the sum I of the images of the
arrows into v its radical, so S_v is a summand exactly
dim K - dim(K ∩ I) times.  A complement C of K ∩ I in K is killed by
every arrow out of v, and a complement of C that contains I holds the
image of every arrow into v, so both are subrepresentations (proof at
decompose_certified).

The split search is the only randomized step.  It draws from a fixed
internal generator, so the summands and verdicts depend on V alone, and
every split it finds is checked exactly.  The split, the peel and
conjugate share one change of basis per vertex, _cut, which must be
invertible and block-diagonalize every arrow.  Only conjugate takes a
seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm

from . import ratlinalg as rl
from .polyfactor import factor

Path = tuple[str, ...]  # arrow names in traversal order; () is a trivial path


class NonAdmissibleError(ValueError):
    """Nonzero paths persist at the configured length bound."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vs = set(self.vertices)
        for a in self.arrows:
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


def _path_endpoints(quiver: Quiver, path: Path) -> tuple[str, str]:
    by_name = quiver._by_name
    for name in path:
        if name not in by_name:
            raise KeyError(f"unknown arrow {name!r}")
    src = by_name[path[0]].source
    cur = src
    for name in path:
        a = by_name[name]
        if a.source != cur:
            raise ValueError(f"path {path} is not composable at {a.name}")
        cur = a.target
    return src, cur


def _relation_data(rel: Relation) -> list:
    """A relation as quiver_to_dict writes it: [["p/q", [arrow, ...]], ...]."""
    return [[str(c), list(p)] for c, p in rel]


def _bad_relation(rel: Relation, problem: str) -> ValueError:
    return ValueError(f"relation {json.dumps(_relation_data(rel))} {problem}")


def monomial_relations(paths) -> tuple[Relation, ...]:
    """Relations declaring each given path to be zero."""
    return tuple(((Fraction(1), tuple(p)),) for p in paths)


@dataclass
class PathBasis:
    """Residue-class representative paths of the quiver algebra.

    by_pair[(x, y)] lists the basis paths x -> y, shortest first; the
    reduction table expresses every enumerated nonzero path as a
    combination of basis paths (paths absent from the table are zero in
    the algebra).
    """

    vertices: tuple[str, ...]
    by_pair: dict[tuple[str, str], list[Path]]
    reduction: dict[Path, tuple[tuple[Fraction, Path], ...]]

    def paths(self, x: str, y: str) -> list[Path]:
        _check_vertices(self.vertices, x, y)
        return self.by_pair.get((x, y), [])

    def reduce(self, path: Path) -> tuple[tuple[Fraction, Path], ...]:
        if not path:
            return ((Fraction(1), path),)
        return self.reduction.get(path, ())

    def action(self, src: list[Path], tgt: list[Path], extend) -> rl.Mat:
        """Matrix of p -> reduce(extend(p)) from the span of the basis paths
        src to that of tgt."""
        row = {p: i for i, p in enumerate(tgt)}
        M = [[0] * len(src) for _ in tgt]
        for j, p in enumerate(src):
            for coeff, bp in self.reduce(extend(p)):
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
                            hit = False
                            for coeff, rp in rel:
                                j = index.get(u + rp + w)
                                if j is not None:
                                    row[j] += coeff
                                    hit = True
                            if hit and any(row):
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
    zero: the path basis, Representation's relation check and the cubics
    samplers read these.  A vertex it lacks raises KeyError.
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
            rel_ends = {_path_endpoints(quiver, p) for _, p in rel}
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

    def path_basis(self) -> PathBasis:
        if self._basis is None:
            self._basis = _build_path_basis(self)
        return self._basis

    def arrow_count(self, x: str, y: str) -> int:
        """Arrows x -> y; equals dim Ext^1 of the simple at x by the simple at y."""
        _check_vertices(self.quiver.vertices, x, y)
        return sum(1 for a in self.quiver.arrows if a.source == x and a.target == y)

    def simple(self, x: str) -> "Representation":
        _check_vertices(self.quiver.vertices, x)
        dims = {v: (1 if v == x else 0) for v in self.quiver.vertices}
        return Representation(self, dims, {})

    def projective(self, x: str) -> "Representation":
        """Projective cover of the simple at x: the paths out of x, an arrow
        a acting by right concatenation p -> p a."""
        pb = self.path_basis()
        out = {y: pb.paths(x, y) for y in self.quiver.vertices}
        maps = {a.name: pb.action(out[a.source], out[a.target], lambda p, a=a: p + (a.name,))
                for a in self.quiver.arrows}
        return Representation(self, {y: len(ps) for y, ps in out.items()}, maps)

    def injective(self, x: str) -> "Representation":
        """Injective envelope of the simple at x: the duals of the paths
        into x, an arrow a acting by the transpose of left concatenation
        p -> a p."""
        pb = self.path_basis()
        into = {y: pb.paths(y, x) for y in self.quiver.vertices}
        maps = {a.name: rl.transpose(pb.action(into[a.target], into[a.source],
                                               lambda p, a=a: (a.name,) + p))
                for a in self.quiver.arrows}
        return Representation(self, {y: len(ps) for y, ps in into.items()}, maps)


@dataclass
class Representation:
    """Vector spaces at the vertices, exact rational matrices on the arrows.

    maps[arrow] has shape (dim target) x (dim source), also when a
    dimension is 0; omitted arrows default to zero.  The vertex and
    arrow names, the shapes and the relations are checked on
    construction.  A dimension must be an integer (numpy integers too)
    and an entry an integer or a Fraction; anything else, a float, a
    string or a bool, raises TypeError rather than being truncated.
    """

    bq: BoundQuiver
    dims: dict[str, int]
    maps: dict[str, rl.Mat] = field(default_factory=dict)

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

    def _check_relations(self):
        for rel, (src, tgt) in zip(self.bq.relations, self.bq.relation_ends):
            if self.dims[tgt] == 0 or self.dims[src] == 0:
                continue
            total = reduce(rl.mat_add, (rl.scale(self.path_matrix(path), coeff)
                                        for coeff, path in rel))
            if not rl.is_zero(total):
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


@dataclass
class RepMorphism:
    """Vertexwise matrices intertwining two representations of one quiver.

    The blocks are normalized like Representation.maps (by _vertexwise):
    omitted vertices default to zero blocks; unknown vertex names, wrong
    shapes and blocks that do not intertwine raise ValueError.  The
    elements of hom_basis are built by _intertwining, which skips both
    steps: hom_basis builds every block as a Mat of the right shape and
    has already checked every element exactly against the intertwining
    equations, which is the same check.
    """

    source: Representation
    target: Representation
    blocks: dict[str, rl.Mat]

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
    of their two denominators, and kernel_basis checks every basis
    vector exactly against every row.  That check is the intertwining
    equation, so the elements are built without RepMorphism's own check
    of it; each block is the integer slice of a basis vector over its
    denominator.  The basis is the one read off the reduced echelon form
    of the system, which is unique: it does not depend on how the
    elimination runs.
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
        va_cols = rl.transpose(va).num
        for i, wa_row in enumerate(wa.num):
            for j, va_col in enumerate(va_cols):
                row: rl.Row = {}
                at = offs[y] + i * dvy
                for k, v in enumerate(va_col):
                    if v:
                        row[at + k] = va_scale * v
                at = offs[x] + j
                for k, v in enumerate(wa_row):
                    if v:
                        row[at + k * dvx] = row.get(at + k * dvx, 0) - wa_scale * v
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


def kernel(phi: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Vertexwise kernel with its induced maps and the inclusion into the source;
    kept as the tests' oracle of _split and a perfbench layer-trace target."""
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
    """Vertexwise cokernel with its induced maps and the projection from the target."""
    W = phi.target
    q = W.bq.quiver
    proj = {}
    section = {}
    dims = {}
    for v in q.vertices:
        proj[v], section[v] = rl.quotient_maps(phi.blocks[v])
        dims[v] = proj[v].rows
    maps = {}
    for a in q.arrows:
        mid = rl.matmul(W.maps[a.name], section[a.source])
        maps[a.name] = rl.matmul(proj[a.target], mid)
    C = Representation(W.bq, dims, maps)
    out = RepMorphism(W, C, proj)  # also re-verifies that the maps descend
    return C, out


def direct_sum(V: Representation, W: Representation) -> Representation:
    if V.bq.quiver != W.bq.quiver:
        raise ValueError("representations live over different quivers")
    q = V.bq.quiver
    dims = {v: V.dims[v] + W.dims[v] for v in q.vertices}
    maps = {a.name: rl.block_diag(V.maps[a.name], W.maps[a.name]) for a in q.arrows}
    return Representation(V.bq, dims, maps)


def conjugate(V: Representation, seed: int = 0) -> Representation:
    """V with arrow a: x -> y changed to T_y V_a T_x^-1 by _cut, T_v the first
    invertible draw of a matrix with entries in [-3, 3]; isomorphic to V."""
    rng = random.Random(seed)
    bases = {}
    for v, d in V.dims.items():
        while v not in bases:
            inv = rl.inverse(rl.mat([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)], d, d))
            if inv is not None:
                bases[v] = [rl.transpose(inv)]
    return _cut(V, bases)[0]


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


def semisimple_rank(V: Representation, basis: list[RepMorphism] | None = None) -> int:
    """dim(End(V)/rad) via the module trace form; 1 certifies indecomposability.

    In characteristic zero the pairing (f, g) -> tr_V(f∘g) on End(V) has
    radical exactly rad End(V) (V is a faithful End(V)-module whose
    composition factors exhaust the simple factors of End/rad), so its
    rank is the semisimple dimension, without structure constants.
    """
    if basis is None:
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
    """V cut into parts by one checked change of basis per vertex.

    The rows of bases[v][i] are a basis of part i at v (the form of
    rl.nullspace); a vertex that bases lacks keeps its basis, all of it in
    the first part.  T_v holds the bases of the parts at v as columns, and
    an arrow a: x -> y becomes C_a = T_y^-1 V_a T_x (no product at a vertex
    left alone), whose diagonal blocks are the maps of the parts.  Checks:

    - T_v is square and invertible: the parts fill V_v;
    - V_a T_x = T_y C_a on every arrow: the inverse is right;
    - C_a is zero off its diagonal blocks: each part is arrow-stable;
    - each part is built as a Representation, which checks the relations.

    The first three raise ArithmeticError.  The last raises ValueError and
    cannot fail once they pass: V satisfies the relations, and the path
    matrices of the parts are the diagonal blocks of T_y^-1 V_p T_x.
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
    maps: list[dict[str, rl.Mat]] = [{} for _ in range(count)]
    for a in V.bq.quiver.arrows:
        x, y = a.source, a.target
        C = moved = rl.matmul(V.maps[a.name], T[x]) if x in T else V.maps[a.name]
        if y in T:
            C = rl.matmul(T_inv[y], moved)
            if rl.matmul(T[y], C) != moved:
                raise ArithmeticError(f"the change of basis fails along arrow {a.name}")
        blocks = rl.diagonal_blocks(C, sizes[y], sizes[x])
        if blocks is None:
            raise ArithmeticError(f"a part is not stable under arrow {a.name}")
        for part, block in zip(maps, blocks):
            part[a.name] = block
    return [Representation(V.bq, {v: sizes[v][i] for v in V.dims}, part)
            for i, part in enumerate(maps)]


def _split(V: Representation, phi: dict[str, rl.Mat]) -> list[Representation] | None:
    """V cut by _cut along the coprime factors of the minimal polynomial of
    phi (one square block per vertex), in the order polyfactor.factor gives
    them; None when that polynomial is a power of one irreducible."""
    verts = V.bq.quiver.vertices
    factors = factor(rl.minimal_polynomial(*[phi[v] for v in verts]))
    if len(factors) < 2:
        return None
    return _cut(V, {v: [rl.nullspace(rl.eval_poly(power, phi[v])) for power in factors]
                    for v in verts})


def _peel_simples(V: Representation) -> tuple[Representation, list[Representation]]:
    """(W, simples) with V = W ⊕ simples and W without a simple summand, cut
    by _cut at each vertex with a simple summand (see decompose_certified);
    W is V itself when there is none."""
    q = V.bq.quiver
    bases = {}
    for v in q.vertices:
        d = V.dims[v]
        if d == 0:
            continue
        out = reduce(rl.vstack, (V.maps[a.name] for a in q.arrows if a.source == v),
                     rl.zeros(0, d))
        K = rl.transpose(rl.nullspace(out))  # columns: a basis of the socle at v
        if K.cols == 0:
            continue
        into = reduce(rl.hstack, (V.maps[a.name] for a in q.arrows if a.target == v),
                      rl.zeros(d, 0))
        proj, _ = rl.quotient_maps(into)  # kernel: I, the radical at v
        K_mod_I = rl.matmul(proj, K)
        if rl.is_zero(K_mod_I):  # K inside I, also when I is all of V_v
            continue
        # K ∩ I in the coordinates of K, and the section spanning a complement
        _, section = rl.quotient_maps(rl.transpose(rl.nullspace(K_mod_I)))
        C = rl.matmul(K, section)
        I = rl.transpose(rl.nullspace(proj))
        _, D = rl.quotient_maps(rl.hstack(I, C))
        bases[v] = [rl.transpose(rl.hstack(I, D)), rl.transpose(C)]
    if not bases:
        return V, []
    W, socle = _cut(V, bases)
    if not all(map(rl.is_zero, socle.maps.values())):
        raise ArithmeticError("an arrow does not kill a peeled simple")
    return W, [V.bq.simple(v) for v, c in socle.dims.items() for _ in range(c)]


def decompose_certified(V: Representation) -> list[tuple[Representation, bool]]:
    """Indecomposable summands of V, each flagged certified/uncertified.

    Splits repeatedly along coprime factors of minimal polynomials of
    endomorphisms; a summand is certified when End/rad has dimension
    one.  An uncertified summand resisted all splitting attempts but
    its endomorphism ring is not known to be local (e.g. a rational
    form of a pair of conjugate complex indecomposables).

    Peeling the simples (_peel_simples).  First every simple summand is
    split off, by one change of basis at each vertex that has one; each
    copy of S_v comes out as bq.simple(v), a certified leaf, vertex by
    vertex ahead of the other summands.  At a vertex v let K be the
    common kernel of the arrows out of v and I the sum of the images of
    the arrows into v: the socle and the radical of V at v
    (Assem-Simson-Skowroński 2006, ch. III).

    - Multiplicity.  S_v is a summand of V exactly dim K - dim(K ∩ I)
      times.  K and I are additive over a decomposition V = ⊕ X_i, so
      this is the sum of the same numbers for the X_i.  S_v gives
      1 - 0 = 1.  Any other indecomposable X gives 0: were x in K(X)
      outside I(X), then t -> t x is a morphism S_v -> X (the arrows out
      of v kill x), and a functional f on X_v with f(I(X)) = 0 and
      f(x) = 1 is a morphism X -> S_v (the arrows into v land in I(X)),
      so f splits t -> t x and S_v would be a summand of X.
    - Complement.  Let C be a complement of K ∩ I in K and W_v ⊇ I with
      V_v = W_v ⊕ C (C ∩ I = 0, as C lies in K).  C, placed at v, is a
      subrepresentation: C ⊆ K is killed by every arrow out of v.  W,
      which is W_v at each peeled vertex v and V elsewhere, is one too:
      every arrow into v lands in I ⊆ W_v.  So V = W ⊕ ⊕_v C, with each
      C ≅ S_v^(dim C), and W has no simple summand left.  Peeling once
      is enough: by Krull-Schmidt the parts of a split of W have no
      simple summand either.

    K is the null space of the arrows out of v, stacked.  proj, from
    rl.quotient_maps of the arrows into v side by side, has kernel I, so
    in the coordinates of the basis of K, K ∩ I is the null space of
    proj K, and the section of quotient_maps of that null space spans
    C = K section.  W_v is I (the null space of proj) beside the
    standard vectors that quotient_maps adds to I + C.  _cut changes the
    basis, with W_v and C as the parts at each peeled vertex, and checks
    it; the peel checks on top that every map of the C part is zero
    (ArithmeticError).  A vertex is skipped without a change of basis
    when V_v = 0, when K = 0 (the arrows out of v are jointly injective)
    or when proj K = 0 (K ⊆ I, which holds when the arrows into v span
    V_v); with no vertex peeled, the loop below starts from V itself.

    Deferred certification.  A summand whose End has dimension one is a
    certified leaf.  Any other first tries the first basis endomorphism
    and computes semisimple_rank only when that does not split it: rank
    one makes it a certified leaf, and otherwise the search goes on with
    the rest of the basis and then the SPLIT_TRIALS random combinations.
    Ranking first would change nothing.  Rank one means End is local, so
    every endomorphism is c * id plus a nilpotent, its minimal
    polynomial is a power of t - c, and no candidate splits; so the
    candidates tried, the draws of the generator, the summands and the
    flags are the same in either order, and a summand that the first
    candidate splits is never ranked.

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
    """
    if V.total_dim() == 0:
        return []
    rng = random.Random(0)  # fixed, so the summands depend on V alone
    W, simples = _peel_simples(V)
    out: list[tuple[Representation, bool]] = [(S, True) for S in simples]
    stack = [W] if W.total_dim() else []
    while stack:
        cur = stack.pop()
        basis = hom_basis(cur, cur)
        if len(basis) == 1:
            out.append((cur, True))
            continue
        candidates = _split_candidates(basis, rng)
        parts = _split(cur, next(candidates))
        if parts is None:
            if semisimple_rank(cur, basis) == 1:
                out.append((cur, True))
                continue
            parts = next(filter(None, (_split(cur, phi) for phi in candidates)), None)
        if parts is None:
            out.append((cur, False))
        else:
            stack.extend(parts)
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
    return {
        "vertices": list(bq.quiver.vertices),
        "arrows": [[a.name, a.source, a.target] for a in bq.quiver.arrows],
        "relations": [_relation_data(rel) for rel in bq.relations],
        "max_path_length": bq.bound,
    }


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
    quiver = Quiver(
        tuple(data["vertices"]),
        tuple(Arrow(name, src, tgt) for name, src, tgt in data["arrows"]),
    )
    relations = tuple(tuple((_fraction_from(c), tuple(p)) for c, p in rel)
                      for rel in data.get("relations", []))
    return BoundQuiver(quiver, relations, bound)


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
