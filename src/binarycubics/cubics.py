"""Quivers attached to the category of equivariant D-modules on binary cubics.

The category of GL2-equivariant coherent D-modules on the space of
binary cubic forms is equivalent to representations of a 14-vertex
quiver whose relations are all 2-cycles and all non-diagonal
compositions through the central vertex p.  This module builds that
quiver ("paper_full"), its 5-vertex big component ("big_component"),
the extended Dynkin quiver of the four subspace problem ("d4hat") and
the 2-vertex component ("two_vertex_pair"), together with the two
embeddings of four-subspace representations into the big component,
the one-parameter families R_n(lambda), the injective envelope of the
middle simple P, and the randomized checks of the classification
(domestic tame type): every summand of a random big-component
representation has all beta maps zero or all alpha maps zero, as the
images of four-subspace representations under the embeddings do, or
else is isomorphic to one of the four projective-injectives.  Their
seed draws the samples only: _complete solves each quiver's zero
relations for the arrows left after the free ones, and decompositions
take no seed.

In big_component the outer vertices are numbered so that the surviving
diagonal compositions are 1 -> 2, 2 -> 1, 3 -> 4, 4 -> 3; the simples
they correspond to are 1 = S, 2 = E, 3 = D0, 4 = Q0, 5 = P (the pairs
exchanged by the Fourier transform sit opposite each other).

_bound states the two vanishing rules once for every named quiver: all
2-cycles vanish, and alpha_i beta_j vanishes unless (i, j) is in
_DIAGONAL, read in the big-component numbering (paper_full's s, d0, e,
q0 through their labels).  A failed exactness condition raises
ArithmeticError, never an assert, so python -O gives the same answers.
"""

from __future__ import annotations

import random

from . import ratlinalg as rl
from .quiver import (
    Arrow,
    BoundQuiver,
    Quiver,
    RepMorphism,
    Representation,
    cokernel,
    decompose_certified,
    direct_sum,
    is_isomorphic,
    monomial_relations,
)

#: surviving diagonal pairs of the big component: alpha_i then beta_j is
#: nonzero exactly for these (i, j)
_DIAGONAL = {(1, 2), (2, 1), (3, 4), (4, 3)}

#: the big component's vertices and the simples they stand for
_BIG_LABELS = {"1": "S", "2": "E", "3": "D0", "4": "Q0", "5": "P"}
_BIG_OUTER = {i: _BIG_LABELS[str(i)] for i in (1, 2, 3, 4)}
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


def _bound(name: str, vertices, arrows, outer: dict[int, str] | None = None,
           labels: dict[str, str] | None = None) -> BoundQuiver:
    """The quiver bound by the two vanishing rules.

    Every 2-cycle vanishes.  With outer, which names the simple at the
    outer end of alpha_i and beta_i, alpha_i beta_j vanishes unless the
    big-component numbers of outer[i] and outer[j] are a pair in _DIAGONAL.
    """
    quiver = Quiver(tuple(vertices), tuple(arrows))
    zero = [(a.name, b.name) for a in quiver.arrows for b in quiver.arrows
            if a.target == b.source and b.target == a.source]
    if outer:
        number = {s: int(v) for v, s in _BIG_LABELS.items()}
        zero += [(f"alpha{i}", f"beta{j}") for i in outer for j in outer
                 if (number[outer[i]], number[outer[j]]) not in _DIAGONAL]
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
    return _bound("paper_full", labels, arrows, {i: labels[v] for i, v in outer.items()}, labels)


_BUILDERS = {
    "paper_full": _paper_full,
    "big_component": lambda: _bound(
        "big_component", _BIG_LABELS,
        _ALPHAS + [Arrow(f"beta{i}", "5", str(i)) for i in _BIG_OUTER], _BIG_OUTER, _BIG_LABELS),
    "d4hat": lambda: _bound("d4hat", ("1", "2", "3", "4", "5"), _ALPHAS),
    "two_vertex_pair": lambda: _bound(
        "two_vertex_pair", ("1", "2"), [Arrow("a", "1", "2"), Arrow("b", "2", "1")]),
}

NAMED_QUIVERS = tuple(_BUILDERS)


def embed_alpha(V: Representation) -> Representation:
    """Four-subspace representation placed on the alpha arrows (betas zero)."""
    if V.bq is not build("d4hat"):
        raise ValueError("embed_alpha expects a representation of d4hat")
    bq = build("big_component")
    dims = dict(V.dims)
    maps = {f"alpha{i}": V.maps[f"alpha{i}"] for i in (1, 2, 3, 4)}
    return Representation(bq, dims, maps)


def embed_beta(V: Representation) -> Representation:
    """Dualized four-subspace representation on the beta arrows (alphas zero).

    Spaces are replaced by their duals in the standard basis, so each
    beta_i carries the transpose of V(alpha_i).
    """
    if V.bq is not build("d4hat"):
        raise ValueError("embed_beta expects a representation of d4hat")
    bq = build("big_component")
    maps = {f"beta{i}": rl.transpose(V.maps[f"alpha{i}"]) for i in (1, 2, 3, 4)}
    return Representation(bq, dict(V.dims), maps)


def jordan_block(n: int, lam) -> rl.Mat:
    """The upper n x n Jordan block with eigenvalue lam, an integer or a Fraction."""
    lam = rl.exact(lam)
    return rl.mat([[lam if j == i else int(j == i + 1) for j in range(n)] for i in range(n)], n, n)


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
    return rl.mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], m, n)


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


def check_tame_classification(samples: int = 100, seed: int = 0) -> dict:
    """Randomized check that big-component indecomposables fall into the
    three classified cases.

    Decomposes seeded random representations and verifies every summand
    is (i) one of the four projective-injectives, (ii) has all beta
    maps zero, or (iii) has all alpha maps zero.  Summands whose
    indecomposability could not be certified are counted separately as
    inconclusive (their case classification is still checked).
    """
    bq = build("big_component")
    rng = random.Random(seed)
    proj_inj = [bq.projective(str(i)) for i in (1, 2, 3, 4)]
    report = {
        "samples": samples,
        "summands": 0,
        "case_projective_injective": 0,
        "case_beta_zero": 0,
        "case_alpha_zero": 0,
        "violations": [],
        "inconclusive": 0,
    }
    for k in range(samples):
        V = random_big_component_rep(rng)
        for W, certified in decompose_certified(V):
            report["summands"] += 1
            if not certified:
                report["inconclusive"] += 1
            beta_zero = all(rl.is_zero(W.maps[f"beta{i}"]) for i in (1, 2, 3, 4))
            alpha_zero = all(rl.is_zero(W.maps[f"alpha{i}"]) for i in (1, 2, 3, 4))
            if beta_zero:
                report["case_beta_zero"] += 1
            if alpha_zero:
                report["case_alpha_zero"] += 1
            if beta_zero or alpha_zero:
                continue
            if any(is_isomorphic(W, P) for P in proj_inj if W.dim_vector() == P.dim_vector()):
                report["case_projective_injective"] += 1
            else:
                report["violations"].append(
                    {"sample": k, "dim_vector": list(W.dim_vector())}
                )
    report["inconclusive_rate"] = (
        report["inconclusive"] / report["summands"] if report["summands"] else 0.0
    )
    return report


def check_two_vertex_component(samples: int = 50, seed: int = 0) -> dict:
    """Randomized check that the 2-cycle quiver has only four indecomposables.

    Every summand of a random representation must be one of the two
    simples or one of their two projective covers (one arrow carrying an
    isomorphism, the other zero).  Each vertex gets a dimension in [0, 4].
    """
    bq = build("two_vertex_pair")
    rng = random.Random(seed)
    report = {"samples": samples, "summands": 0,
              "simple_1": 0, "simple_2": 0, "arrow_a": 0, "arrow_b": 0,
              "violations": []}
    for k in range(samples):
        dims = {"1": rng.randint(0, 4), "2": rng.randint(0, 4)}
        for W, _certified in decompose_certified(_complete(rng, bq, dims, {"a"})):
            report["summands"] += 1
            dv = W.dim_vector()
            ra, rb = W.arrow_rank("a"), W.arrow_rank("b")
            if dv == (1, 0):
                report["simple_1"] += 1
            elif dv == (0, 1):
                report["simple_2"] += 1
            elif dv == (1, 1) and ra == 1 and rb == 0:
                report["arrow_a"] += 1
            elif dv == (1, 1) and ra == 0 and rb == 1:
                report["arrow_b"] += 1
            else:
                report["violations"].append({"sample": k, "dim_vector": list(dv)})
    return report
