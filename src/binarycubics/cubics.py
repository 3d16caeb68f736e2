"""Quivers attached to the category of equivariant D-modules on binary cubics.

The category of GL2-equivariant coherent D-modules on the space of
binary cubic forms is equivalent to representations of a 14-vertex
quiver whose relations are all 2-cycles and every path through the
central vertex p not joining Fourier partners.  This module builds that
quiver ("paper_full"), its 5-vertex big component ("big_component"),
the extended Dynkin quiver of the four subspace problem ("d4hat") and
the 2-vertex component ("two_vertex_pair"), together with the two
embeddings of four-subspace representations into the big component,
the one-parameter families R_n(lambda), the injective envelope of the
middle simple P, and the randomized checks of the classification
(domestic tame type), which read each summand's case off its own maps
by an exact rule: a summand of a random big-component representation
has all beta maps zero or all alpha maps zero, as the images of
four-subspace representations under the embeddings do, or else is the
projective-injective P_i, which holds exactly when it has dimension 1
at i, 5 and j, 0 elsewhere, for (i, j) in _DIAGONAL, and beta_j alpha_i
!= 0; a two_vertex_pair summand is a simple or has dimension vector
(1, 1) with exactly one of a and b nonzero.  Their seed draws the
samples only: _complete solves each quiver's zero relations for the
arrows left after the free ones, and decompositions take no seed.

In big_component the vertices 1, ..., 5 stand for S, E, D0, Q0 and P.

_bound states the two vanishing rules once for every named quiver, on
its vertex labels: all 2-cycles vanish, and a path through P vanishes
unless catalog.fourier_partner pairs the simples at its two ends, so
alpha then beta survives only from S to E, E to S, D0 to Q0 and Q0 to
D0 (_DIAGONAL in big_component).  A failed exactness condition raises
ArithmeticError, never an assert, so python -O gives the same answers.
"""

from __future__ import annotations

import random

from . import ratlinalg as rl
from .catalog import fourier_partner
from .quiver import (
    Arrow,
    BoundQuiver,
    Quiver,
    RepMorphism,
    Representation,
    cokernel,
    decompose_certified,
    direct_sum,
    dual,
    is_isomorphic,
    monomial_relations,
)

#: the big component's vertices and the simples they stand for
_BIG_LABELS = {"1": "S", "2": "E", "3": "D0", "4": "Q0", "5": "P"}
#: alpha_i then beta_j is nonzero exactly for these (i, j): Fourier partners
_DIAGONAL = {(int(i), int(j)) for i, s in _BIG_LABELS.items() for j, t in _BIG_LABELS.items()
             if s != "P" and fourier_partner(s) == t}
_ALPHAS = [Arrow(f"alpha{i}", str(i), "5") for i in (1, 2, 3, 4)]

_cache: dict[str, BoundQuiver] = {}


def build(name: str) -> BoundQuiver:
    """The named quiver with its relations (instances are shared)."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown quiver {name!r}; expected one of {', '.join(NAMED_QUIVERS)}")
    if name not in _cache:
        _cache[name] = _BUILDERS[name]()
    return _cache[name]


def named_quivers() -> dict[str, BoundQuiver]:
    return {name: build(name) for name in NAMED_QUIVERS}


def _bound(name: str, vertices, arrows, labels: dict[str, str] | None = None) -> BoundQuiver:
    """The quiver bound by the two vanishing rules.

    Every 2-cycle vanishes.  With labels, which name the simple at each
    vertex, a path a b through the vertex labelled P vanishes unless
    fourier_partner pairs the labels at its two ends.
    """
    quiver = Quiver(tuple(vertices), tuple(arrows))
    zero = [(a.name, b.name) for a in quiver.arrows for b in quiver.arrows
            if a.target == b.source and b.target == a.source]
    zero += [(a.name, b.name) for a in quiver.arrows for b in quiver.arrows
             if labels and a.target == b.source and labels[a.target] == "P"
             and fourier_partner(labels[a.source]) != labels[b.target]]
    return BoundQuiver(quiver, monomial_relations(dict.fromkeys(zero)), name=name,
                       vertex_labels=labels)


def _paper_full() -> BoundQuiver:
    labels = {
        "s": "S", "d0": "D0", "p": "P", "q0": "Q0", "e": "E",
        "g1": "G1", "d1": "D1", "g-1": "G-1", "d2": "D2",
        "q1": "Q1", "q2": "Q2", "g2": "G2", "g3": "G3", "g4": "G4",
    }
    outer = {1: "s", 2: "d0", 3: "e", 4: "q0"}
    arrows = [Arrow(f"alpha{i}", outer[i], "p") for i in (1, 2, 3, 4)]
    arrows += [Arrow(f"beta{i}", "p", outer[i]) for i in (1, 2, 3, 4)]
    arrows += [
        Arrow("gamma1", "g1", "d1"), Arrow("delta1", "d1", "g1"),
        Arrow("gamma-1", "g-1", "d2"), Arrow("delta-1", "d2", "g-1"),
    ]
    return _bound("paper_full", labels, arrows, labels)


_BUILDERS = {
    "paper_full": _paper_full,
    "big_component": lambda: _bound(
        "big_component", _BIG_LABELS,
        _ALPHAS + [Arrow(f"beta{i}", "5", str(i)) for i in (1, 2, 3, 4)], _BIG_LABELS),
    "d4hat": lambda: _bound("d4hat", ("1", "2", "3", "4", "5"), _ALPHAS),
    "two_vertex_pair": lambda: _bound(
        "two_vertex_pair", ("1", "2"), [Arrow("a", "1", "2"), Arrow("b", "2", "1")]),
}

NAMED_QUIVERS = tuple(_BUILDERS)


def _embed(V: Representation, side: str, W: Representation) -> Representation:
    """W's alpha maps on big_component's side1..side4 and zeros on the other
    side's arrows; W is V or D(V), V on d4hat.  Its relations hold unchecked,
    so Representation._satisfying builds it: every relation of big_component
    is a length-2 path through one alpha and one beta (a 2-cycle, or a path
    through P), so its matrix has a zero factor."""
    if V.bq is not build("d4hat"):
        raise ValueError(f"embed_{side} expects a representation of d4hat")
    big = build("big_component")
    maps = {a.name: W.maps[f"alpha{a.name[-1]}"] if a.name.startswith(side)
            else rl.zeros(V.dims[a.target], V.dims[a.source]) for a in big.quiver.arrows}
    return Representation._satisfying(big, dict(V.dims), maps)


def embed_alpha(V: Representation) -> Representation:
    """Four-subspace representation placed on the alpha arrows (betas zero)."""
    return _embed(V, "alpha", V)


def embed_beta(V: Representation) -> Representation:
    """D(V) on the beta arrows (alphas zero): beta_i carries V(alpha_i)^T."""
    return _embed(V, "beta", dual(V))


def jordan_block(n: int, lam) -> rl.Mat:
    """The upper n x n Jordan block with eigenvalue lam, an integer or a Fraction,
    built on integers: lam = p / q gives p on the diagonal and q above it,
    over q."""
    lam = rl.exact(lam)
    p, q = lam.numerator, lam.denominator
    return rl.over([[p if j == i else q if j == i + 1 else 0 for j in range(n)] for i in range(n)],
                   q, n, n)


def rn_family(n: int, lam) -> Representation:
    """The one-parameter family R_n(lambda) of four-subspace indecomposables.

    Dimension vector (n, n, n, n, 2n); the four subspaces of C^(2n) are
    the column spans of [I;0], [0;I], [I;I] and [I;J_n(lambda)] with
    J_n(lambda) the upper Jordan block.  lambda must be an integer or a
    Fraction (TypeError otherwise).
    """
    if n < 1:
        raise ValueError("n must be positive")
    bq = build("d4hat")
    I = rl.identity(n)
    Z = rl.zeros(n, n)
    J = jordan_block(n, lam)
    maps = {
        "alpha1": rl.vstack(I, Z),
        "alpha2": rl.vstack(Z, I),
        "alpha3": rl.vstack(I, I),
        "alpha4": rl.vstack(I, J),
    }
    dims = {"1": n, "2": n, "3": n, "4": n, "5": 2 * n}
    return Representation(bq, dims, maps)


def injective_envelope_of_P() -> Representation:
    """Cokernel of the diagonal embedding of P into the two rank-one
    extensions over the discriminant hypersurface.

    H has one-dimensional spaces at p, d0, e with alpha2 = alpha3 = 1;
    its Fourier image has them at p, s, q0 with alpha1 = alpha4 = 1.
    P embeds diagonally at p, and the cokernel is checked to be the
    injective envelope of the simple at p.
    """
    bq = build("paper_full")
    one = [[1]]
    H = Representation(bq, {"p": 1, "d0": 1, "e": 1}, {"alpha2": one, "alpha3": one})
    FH = Representation(bq, {"p": 1, "s": 1, "q0": 1}, {"alpha1": one, "alpha4": one})
    both = direct_sum(H, FH)
    P = bq.simple("p")
    diag = RepMorphism(P, both, {"p": [[1], [1]]})
    I_P, _ = cokernel(diag)
    if not is_isomorphic(I_P, bq.injective("p")):
        raise ArithmeticError("cokernel must be the injective envelope")
    return I_P


def _complete(rng: random.Random, bq: BoundQuiver, dims: dict[str, int],
              free: set[str]) -> Representation:
    """Random representation of bq: free arrows get small-integer
    matrices, the others are sampled from the zero relations f c = 0.

    The free arrows are drawn first, then each other arrow c in arrow
    order as L @ R @ proj, the general solution once the free arrows are
    fixed: proj kills the images of the free f with f c = 0, the columns
    of L span the common kernel of the free g with c g = 0, and R is a
    random small-integer matrix.  Other relations are left to
    Representation, which raises ValueError if they fail.  A sampling
    heuristic, not uniform on the relation variety.
    """
    arrows = bq.quiver.arrows
    zero = bq.zero_paths
    maps = {}
    for a in arrows:
        if a.name in free:
            maps[a.name] = _small(rng, dims[a.target], dims[a.source], 3)
    for c in arrows:
        if c.name in free:
            continue
        killed = rl.zeros(dims[c.source], 0)
        kernel_of = rl.zeros(0, dims[c.target])
        for f in arrows:
            if (f.name, c.name) in zero:
                killed = rl.hstack(killed, maps[f.name])
            if (c.name, f.name) in zero:
                kernel_of = rl.vstack(kernel_of, maps[f.name])
        proj, _ = rl.quotient_maps(killed)
        ker = rl.nullspace(kernel_of)
        R = _small(rng, ker.rows, proj.rows, 2)
        maps[c.name] = rl.matmul(rl.matmul(rl.transpose(ker), R), proj)
    return Representation(bq, dims, maps)


def _small(rng: random.Random, m: int, n: int, bound: int) -> rl.Mat:
    """An m x n matrix of integers drawn uniformly from [-bound, bound], row by row."""
    return rl.over([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], 1, m, n)


def random_big_component_rep(rng: random.Random) -> Representation:
    """Seeded random representation of the big component.

    Each outer vertex gets a dimension in [0, 3] and the center one in
    [0, 6].  One side of the arrows (alphas or betas, chosen per sample)
    is free; _complete samples the other side from the relations.
    """
    dims = {str(i): rng.randint(0, 3) for i in (1, 2, 3, 4)}
    dims["5"] = rng.randint(0, 6)
    side = "alpha" if rng.random() < 0.5 else "beta"
    return _complete(rng, build("big_component"), dims, {f"{side}{i}" for i in (1, 2, 3, 4)})


def _classify(samples, seed, draw, keys, cases) -> tuple[dict, int]:
    """Both checks' loop: decompose samples draws from the integer seed and
    count each summand W under every key in cases(W), read off W's own maps
    (none: a violation).  Returns the report and the uncertified count.
    samples must be an int (TypeError on a bool or a float) and >= 0."""
    if (samples := rl.integer(samples)) < 0:
        raise ValueError(f"samples {samples} is negative")
    rng = random.Random(rl.integer(seed))
    report = {"samples": samples, "summands": 0, **dict.fromkeys(keys, 0), "violations": []}
    uncertified = 0
    for k in range(samples):
        for W, certified in decompose_certified(draw(rng)):
            report["summands"] += 1
            uncertified += not certified
            for key in (found := cases(W)):
                report[key] += 1
            if not found:
                report["violations"].append({"sample": k, "dim_vector": list(W.dim_vector())})
    return report, uncertified


def _tame_cases(W: Representation) -> list[str]:
    """The cases of a big-component W: all beta maps zero, all alpha maps
    zero (both for a simple), or the projective-injective P_i.

    W is isomorphic to P_i exactly when, for some (i, j) in _DIAGONAL, it
    has dimension 1 at i, 5 and j, 0 elsewhere, and beta_j alpha_i != 0.
    P_i (basis e_i, alpha_i, beta_j alpha_i) is such a W.  Conversely, on
    such a W alpha_i and beta_j are nonzero scalars, so the 2-cycles
    alpha_i beta_i = 0 and beta_j alpha_j = 0 force beta_i = alpha_j = 0,
    every other arrow meets a zero space, and rescaling W at 5 and j gives
    P_i.  So the rule is exact for every W, certified or not; it is only
    tried when neither side is zero, as beta_j alpha_i != 0 needs both.
    """
    found = [f"case_{side}_zero" for side in ("beta", "alpha")
             if all(rl.is_zero(W.maps[f"{side}{i}"]) for i in (1, 2, 3, 4))]
    if not found and any(W.dim_vector() == tuple(int(v in (i, j, 5)) for v in range(1, 6))
                         and not rl.is_zero(W.path_matrix((f"alpha{i}", f"beta{j}")))
                         for i, j in _DIAGONAL):
        found.append("case_projective_injective")
    return found


def _two_vertex_cases(W: Representation) -> list[str]:
    """The case of a two_vertex_pair W, read from (dims, a != 0, b != 0)."""
    table = {((1, 0), False, False): "simple_1", ((0, 1), False, False): "simple_2",
             ((1, 1), True, False): "arrow_a", ((1, 1), False, True): "arrow_b"}
    key = (W.dim_vector(), not rl.is_zero(W.maps["a"]), not rl.is_zero(W.maps["b"]))
    return [table[key]] if key in table else []


def check_tame_classification(samples: int = 100, seed: int = 0) -> dict:
    """Randomized check that big-component indecomposables fall into the
    three classified cases.

    Decomposes random representations drawn from the integer seed and
    verifies every summand (i) has all beta maps zero, (ii) has all alpha
    maps zero, or (iii) is a projective-injective: for some (i, j) in
    _DIAGONAL it has dimension 1 at i, 5 and j, 0 elsewhere, and
    beta_j alpha_i != 0 (exact, proof at _tame_cases).  Summands whose
    indecomposability could not be certified are counted separately as
    inconclusive (their case classification is still checked).
    """
    report, uncertified = _classify(
        samples, seed, random_big_component_rep,
        ("case_projective_injective", "case_beta_zero", "case_alpha_zero"), _tame_cases)
    report["inconclusive"] = uncertified
    report["inconclusive_rate"] = uncertified / report["summands"] if report["summands"] else 0.0
    return report


def check_two_vertex_component(samples: int = 50, seed: int = 0) -> dict:
    """Randomized check that the 2-cycle quiver has only four indecomposables.

    Every summand of a random representation must be one of the two
    simples (dimension vector (1, 0) or (0, 1)) or one of their two
    projective covers (dimension vector (1, 1), exactly one of a and b
    nonzero).  Each vertex gets a dimension in [0, 4].
    """
    bq = build("two_vertex_pair")
    return _classify(
        samples, seed,
        lambda rng: _complete(rng, bq, {"1": rng.randint(0, 4), "2": rng.randint(0, 4)}, {"a"}),
        ("simple_1", "simple_2", "arrow_a", "arrow_b"), _two_vertex_cases)[0]
