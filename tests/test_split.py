"""The split step of decompose_certified: one checked change of basis per
summand, against the kernel() route it replaced, the deferred
semisimple_rank, and the peel of simple summands before the split search."""

import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import islice
from pathlib import Path

import pytest

from binarycubics import cubics
from binarycubics import quiver as qv
from binarycubics import ratlinalg as rl
from binarycubics.polyfactor import factor

ROOT = Path(__file__).resolve().parent.parent


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  ROOT / "perfbench" / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kernel_route_split(V, phi):
    """The parts of V along the factors of the minimal polynomial of phi
    (one block per vertex), each cut out by kernel(); None when there is
    one factor."""
    verts = V.bq.quiver.vertices
    factors = factor(rl.minimal_polynomial(*[phi[v] for v in verts]))
    if len(factors) < 2:
        return None
    return [qv.kernel(qv.RepMorphism(V, V, {v: rl.eval_poly(power, phi[v])
                                            for v in verts}))[0]
            for power in factors]


def kernel_route_decompose(V):
    """decompose_certified with semisimple_rank computed before any candidate
    and every split cut out by kernel()."""
    if V.total_dim() == 0:
        return []
    rng = random.Random(0)
    out, stack = [], [V]
    while stack:
        cur = stack.pop()
        basis = qv.hom_basis(cur, cur)
        if len(basis) == 1 or qv.semisimple_rank(cur, basis) == 1:
            out.append((cur, True))
            continue
        parts = next(filter(None, (kernel_route_split(cur, phi)
                                   for phi in qv._split_candidates(basis, rng))), None)
        if parts is None:
            out.append((cur, False))
        else:
            stack.extend(parts)
    return out


def oracle_inputs():
    rng = random.Random(5)
    reps = [cubics.random_big_component_rep(rng) for _ in range(12)]
    two = cubics.build("two_vertex_pair")
    for _ in range(8):
        dims = {"1": rng.randint(0, 4), "2": rng.randint(0, 4)}
        reps.append(cubics._complete(rng, two, dims, {"a"}))
    for n, lam, mu in ((1, 0, 1), (2, 1, 3), (2, -4, Fraction(1, 2)), (3, 2, -5)):
        reps.append(qv.direct_sum(cubics.rn_family(n, lam), cubics.rn_family(n, mu)))
    return reps


def test_split_equals_the_kernel_route_part_for_part():
    splits = 0
    for V in oracle_inputs():
        if V.total_dim() == 0:
            continue
        basis = qv.hom_basis(V, V)
        for phi in islice(qv._split_candidates(basis, random.Random(1)), len(basis) + 4):
            want = kernel_route_split(V, phi)
            assert qv._split(V, phi) == want
            splits += want is not None
    assert splits >= 50, splits


def test_decompose_certified_matches_the_kernel_route_on_the_benchmark_inputs():
    worker = load_worker()
    inputs = {op for k in range(2) for op in worker.decompose_inputs(0, k) if op[0] != "end"}
    inputs.add(("d4hat", 2, 1, 3))
    for kind, n, lam, mu in sorted(inputs):
        if kind == "d4hat":
            V = qv.direct_sum(cubics.rn_family(n, lam), cubics.rn_family(n, mu))
        else:
            V = qv.direct_sum(cubics.embed_alpha(cubics.rn_family(n, lam)),
                              cubics.embed_beta(cubics.rn_family(n, mu)))
        got = qv.decompose_certified(V)
        assert got == kernel_route_decompose(V)
        assert [certified for _, certified in got] == [True, True]


def paired_up_to_isomorphism(got, want):
    """Whether the (summand, certified) lists got and want pair up one to
    one, with equal flags and isomorphic summands."""
    unpaired = list(want)
    for W, certified in got:
        match = next((i for i, (X, c) in enumerate(unpaired)
                      if c == certified and X.dim_vector() == W.dim_vector()
                      and qv.is_isomorphic(W, X)), None)
        if match is None:
            return False
        unpaired.pop(match)
    return not unpaired


def test_decompose_certified_matches_the_kernel_route_on_random_reps():
    # the peel puts the simple summands first and the rest comes out in
    # other bases, so the two routes agree up to isomorphism
    peeled = 0
    for V in oracle_inputs():
        got = qv.decompose_certified(V)
        assert paired_up_to_isomorphism(got, kernel_route_decompose(V))
        peeled += len(qv._peel_simples(V)[1]) if V.total_dim() else 0
    assert peeled >= 20, peeled


def not_intertwining():
    """A d4hat representation and vertexwise blocks with minimal polynomial
    (t - 1)(t - 2) that do not commute with its arrows."""
    V = qv.direct_sum(cubics.rn_family(1, 0), cubics.rn_family(1, 1))
    phi = {v: rl.identity(V.dims[v]) for v in V.bq.quiver.vertices}
    phi["5"] = rl.mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return V, phi


def test_a_non_intertwining_phi_raises():
    V, phi = not_intertwining()
    assert len(factor(rl.minimal_polynomial(*phi.values()))) == 2
    with pytest.raises(ArithmeticError, match="not stable under arrow"):
        qv._split(V, phi)


def test_a_singular_change_of_basis_raises(monkeypatch):
    V = qv.direct_sum(cubics.rn_family(2, 1), cubics.rn_family(2, 3))
    phi = next(f for f in qv.hom_basis(V, V) if qv._split(V, f.blocks) is not None)
    nullspace = rl.nullspace
    zeroed = []

    def first_center_vector_zeroed(A):
        # the first kernel basis at the center vertex 5, the only 8 x 8 block,
        # loses its first vector to a zero one: T_5 stays square
        N = nullspace(A)
        if A.rows == V.dims["5"] and not zeroed:
            zeroed.append(N)
            return rl.vstack(rl.zeros(1, N.cols), rl.mat(list(N)[1:], N.rows - 1, N.cols))
        return N

    monkeypatch.setattr(rl, "nullspace", first_center_vector_zeroed)
    with pytest.raises(ArithmeticError, match="do not fill V at vertex 5"):
        qv._split(V, phi.blocks)
    assert zeroed and zeroed[0].rows > 0


NOT_INTERTWINING_UNDER_O = """
import json, sys
from binarycubics import cubics, quiver as qv, ratlinalg as rl

def raised(cut):
    try:
        cut()
    except ArithmeticError as exc:
        return str(exc)

V = qv.direct_sum(cubics.rn_family(1, 0), cubics.rn_family(1, 1))
phi = {v: rl.identity(V.dims[v]) for v in V.bq.quiver.vertices}
phi["5"] = rl.mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
split = raised(lambda: qv._split(V, phi))
# the failing peel of test_a_peeled_vector_that_an_arrow_does_not_kill_raises
bq = cubics.build("two_vertex_pair")
S_P = qv.direct_sum(bq.simple("1"), bq.projective("1"))
nullspace, calls = rl.nullspace, []
def whole_space_first(A):
    calls.append(A)
    return rl.identity(A.cols) if len(calls) == 1 else nullspace(A)
rl.nullspace = whole_space_first
peel = raised(lambda: qv._peel_simples(S_P))
print(json.dumps({"optimize": sys.flags.optimize, "split": split, "peel": peel}))
"""


def test_a_non_intertwining_phi_raises_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", NOT_INTERTWINING_UNDER_O], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["optimize"] == 1
    assert "not stable under arrow" in report["split"]
    assert report["peel"] == "a part is not stable under arrow a"


def ranked_during_decompose(monkeypatch, V):
    """The dimension vectors of the representations decompose_certified(V) ranks."""
    ranked = []
    semisimple_rank = qv.semisimple_rank

    def spy(W, basis=None):
        ranked.append(W.dim_vector())
        return semisimple_rank(W, basis)

    monkeypatch.setattr(qv, "semisimple_rank", spy)
    out = qv.decompose_certified(V)
    assert [(W.dim_vector(), certified) for W, certified in out] == [((2, 2, 2, 2, 4), True)] * 2
    return ranked


def test_a_sum_split_by_the_first_candidate_is_never_ranked(monkeypatch):
    V = qv.conjugate(qv.direct_sum(cubics.rn_family(2, 1), cubics.rn_family(2, 3)), seed=1)
    assert ranked_during_decompose(monkeypatch, V) == [(2, 2, 2, 2, 4)] * 2


def test_a_sum_is_ranked_when_the_first_candidate_does_not_split_it(monkeypatch):
    # the first basis endomorphism of the plain sum is the nilpotent of
    # R_2(1), minimal polynomial t^2, so the sum is ranked (rank 2) before
    # the second one splits it
    V = qv.direct_sum(cubics.rn_family(2, 1), cubics.rn_family(2, 3))
    assert qv._split(V, qv.hom_basis(V, V)[0].blocks) is None
    assert ranked_during_decompose(monkeypatch, V) == [(4, 4, 4, 4, 8)] + [(2, 2, 2, 2, 4)] * 2


def test_a_random_candidate_splits_a_sum_no_basis_element_splits(monkeypatch):
    # End(X + X) is M_2(Q) for X = R_1(0); after this change of basis no
    # basis endomorphism has two coprime factors, but a random one does
    V = qv.conjugate(qv.direct_sum(cubics.rn_family(1, 0), cubics.rn_family(1, 0)), 0)
    basis = qv.hom_basis(V, V)
    assert len(basis) == 4
    assert all(qv._split(V, b.blocks) is None for b in basis)
    tried = []
    split = qv._split
    monkeypatch.setattr(qv, "_split", lambda W, phi: tried.append(W.dim_vector()) or split(W, phi))
    out = qv.decompose_certified(V)
    assert [(W.dim_vector(), certified) for W, certified in out] == [((1, 1, 1, 1, 2), True)] * 2
    # the 4 basis elements, then random combinations until the 18th splits
    assert tried.count(V.dim_vector()) == 4 + 18
    monkeypatch.setattr(qv, "SPLIT_TRIALS", 0)
    out = qv.decompose_certified(V)
    assert [(W.dim_vector(), certified) for W, certified in out] == [((2, 2, 2, 2, 4), False)]


#: parts of a direct sum on each named quiver, and the vertices of its
#: simple summands in the order the peel returns them
PEEL_CASES = {
    "big_component": (lambda bq: [bq.simple("1"), bq.simple("1"), bq.simple("5"),
                                  bq.projective("1"), cubics.embed_alpha(cubics.rn_family(2, 0))],
                      ["1", "1", "5"]),
    "d4hat": (lambda bq: [bq.simple("1"), bq.simple("5"), cubics.rn_family(1, 2),
                          bq.projective("1")],
              ["1", "5"]),
    "two_vertex_pair": (lambda bq: [bq.projective("1"), bq.simple("1"), bq.simple("2"),
                                    bq.simple("2"), bq.projective("2")],
                        ["1", "2", "2"]),
}


@pytest.mark.parametrize("name", PEEL_CASES)
def test_the_peel_splits_off_exactly_the_simple_summands(name):
    bq = cubics.build(name)
    build_parts, simple_at = PEEL_CASES[name]
    parts = build_parts(bq)
    V = qv.conjugate(reduce(qv.direct_sum, parts), seed=3)
    W, simples = qv._peel_simples(V)
    assert simples == [bq.simple(v) for v in simple_at]
    assert qv.is_isomorphic(W, reduce(qv.direct_sum, [X for X in parts if X.total_dim() > 1]))
    got = qv.decompose_certified(V)
    assert got[:len(simples)] == [(S, True) for S in simples]
    assert sum(X.total_dim() == 1 for X, _ in got) == len(simples)
    assert all(certified for _, certified in got)


@pytest.mark.parametrize("name, sink", [("big_component", "2"), ("d4hat", "5")])
def test_a_socle_inside_the_radical_is_not_peeled(name, sink):
    # the socle of P_1 is one-dimensional, at the end of its longest path,
    # and it is the image of the arrow into that vertex
    bq = cubics.build(name)
    P = qv.conjugate(bq.projective("1"), seed=2)
    assert P.dims[sink] == 1
    assert all(rl.is_zero(P.maps[a.name]) for a in bq.quiver.arrows if a.source == sink)
    assert any(not rl.is_zero(P.maps[a.name]) for a in bq.quiver.arrows if a.target == sink)
    W, simples = qv._peel_simples(P)
    assert W is P and simples == []
    assert qv.decompose_certified(P) == [(P, True)]


def test_a_peeled_vector_that_an_arrow_does_not_kill_raises(monkeypatch):
    # the first kernel the peel computes, the socle at vertex 1 of S_1 + P_1,
    # comes back as all of V_1, so the vector of P_1 that a sends to V_2 is peeled
    bq = cubics.build("two_vertex_pair")
    V = qv.direct_sum(bq.simple("1"), bq.projective("1"))
    nullspace = rl.nullspace
    calls = []

    def whole_space_first(A):
        calls.append(A)
        return rl.identity(A.cols) if len(calls) == 1 else nullspace(A)

    monkeypatch.setattr(rl, "nullspace", whole_space_first)
    with pytest.raises(ArithmeticError, match="not stable under arrow a"):
        qv._peel_simples(V)


#: check_tame_classification(100, s) before the peel: (summands,
#: projective-injective, beta-zero, alpha-zero, inconclusive), keyed by s
TAME_COUNTS = {
    0: (427, 1, 316, 314, 0),
    1: (406, 0, 296, 281, 0),
    2: (381, 1, 274, 252, 1),
    3: (392, 0, 306, 228, 0),
    4: (409, 0, 295, 306, 2),
    5: (379, 1, 265, 255, 0),
}


@pytest.mark.parametrize("seed", TAME_COUNTS)
def test_the_tame_counts_are_kept(seed):
    report = cubics.check_tame_classification(100, seed)
    assert report["violations"] == []
    assert tuple(report[key] for key in ("summands", "case_projective_injective",
                                         "case_beta_zero", "case_alpha_zero",
                                         "inconclusive")) == TAME_COUNTS[seed]


def test_the_two_vertex_counts_are_kept():
    report = cubics.check_two_vertex_component(50, 0)
    assert report == {"samples": 50, "summands": 149, "simple_1": 28, "simple_2": 63,
                      "arrow_a": 58, "arrow_b": 0, "violations": []}
