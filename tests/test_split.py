"""The split step of decompose_certified: one checked change of basis per
summand, against the kernel() route it replaced, the deferred ranking,
the candidates it skips and the rank bound that certifies split parts,
the peel of simple summands and arrow modules before the split search,
and the tube route, in tube form and through D in dual form."""

import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from pathlib import Path

import pytest
from sympy import Poly, Rational, Symbol

from binarycubics import cli, cubics
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


def top_and_bottom(S, n):
    """The first n and the last n rows of the 2n x n matrix S."""
    rows = list(S)
    return rl.mat(rows[:n], n, n), rl.mat(rows[n:], n, n)


def tube_endomorphism(W):
    """The endomorphism of W that acts by its tube operator M, built from W's
    maps: M, G3 M G3^-1, A3^-1 M A3 and A4^-1 M A4 at x1..x4 and
    T diag(M, G3 M G3^-1) T^-1 at c; None when W is not in tube form (four
    nonzero arrows a_i: x_i -> c, dimension n at each x_i, 2n at c and 0
    elsewhere, T = [W_a1 | W_a2], A3, B3 and A4 invertible)."""
    arrows = [a for a in W.bq.quiver.arrows if not rl.is_zero(W.maps[a.name])]
    if len(arrows) != 4:
        return None
    xs, c = [a.source for a in arrows], arrows[0].target
    n = W.dims[xs[0]]
    dims = {v: 2 * n if v == c else n if v in xs else 0 for v in W.dims}
    if n == 0 or len({*xs, c}) != 5 or {a.target for a in arrows} != {c} or W.dims != dims:
        return None
    T = rl.hstack(W.maps[arrows[0].name], W.maps[arrows[1].name])
    T_inv = rl.inverse(T)
    if T_inv is None:
        return None
    A3, B3 = top_and_bottom(rl.matmul(T_inv, W.maps[arrows[2].name]), n)
    A4, B4 = top_and_bottom(rl.matmul(T_inv, W.maps[arrows[3].name]), n)
    if any(rl.inverse(X) is None for X in (A3, B3, A4)):
        return None
    M = rl.matmul(rl.matmul(A3, rl.inverse(B3)), rl.matmul(B4, rl.inverse(A4)))
    G3 = rl.matmul(B3, rl.inverse(A3))
    G3MG3_inv = rl.matmul(rl.matmul(G3, M), rl.inverse(G3))
    phi = {v: rl.zeros(0, 0) for v in W.dims}
    phi.update(zip(xs, (M, G3MG3_inv, rl.matmul(rl.matmul(rl.inverse(A3), M), A3),
                        rl.matmul(rl.matmul(rl.inverse(A4), M), A4))))
    phi[c] = rl.matmul(rl.matmul(T, rl.block_diag(M, G3MG3_inv)), T_inv)
    return phi


def kernel_route_decompose(V):
    """decompose_certified with the tube split along tube_endomorphism,
    semisimple_rank computed before any candidate and every split cut out by
    kernel()."""
    if V.total_dim() == 0:
        return []
    rng = random.Random(0)
    out, stack = [], [V]
    while stack:
        cur = stack.pop()
        phi = tube_endomorphism(cur)
        parts = phi and kernel_route_split(cur, phi)
        if parts:
            stack.extend(parts)
            continue
        basis = qv.hom_basis(cur, cur)
        if len(basis) == 1 or rl.rank(qv._trace_pairing(basis, basis)) == 1:
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


def benchmark_ops():
    """The (kind, n, lambda, mu) of the sums the decompose workload
    decomposes at seed 0, passes 0 and 1."""
    worker = load_worker()
    return {op for k in range(2) for op in worker.decompose_inputs(0, k) if op[0] != "end"}


def benchmark_sum(kind, n, lam, mu):
    """The sum the decompose workload decomposes for (kind, n, lambda, mu)."""
    if kind == "d4hat":
        return qv.direct_sum(cubics.rn_family(n, lam), cubics.rn_family(n, mu))
    return qv.direct_sum(cubics.embed_alpha(cubics.rn_family(n, lam)),
                         cubics.embed_beta(cubics.rn_family(n, mu)))


def test_decompose_certified_matches_the_kernel_route_on_the_benchmark_inputs():
    for op in sorted(benchmark_ops() | {("d4hat", 2, 1, 3)}):
        V = benchmark_sum(*op)
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
    # the peel puts the simple summands and the arrow modules first and the
    # rest comes out in other bases, so the two routes agree up to isomorphism
    simples = arrow_modules = 0
    for V in oracle_inputs():
        got = qv.decompose_certified(V)
        assert paired_up_to_isomorphism(got, kernel_route_decompose(V))
        if V.total_dim():
            peeled = qv._peel(V)[1]
            simples += sum(M.total_dim() == 1 for M in peeled)
            arrow_modules += sum(M.total_dim() == 2 for M in peeled)
    assert simples >= 20, simples
    assert arrow_modules >= 10, arrow_modules


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
def all_ones_second(A):
    calls.append(A)
    return rl.mat([[1] * A.cols]) if len(calls) == 2 else nullspace(A)
rl.nullspace = all_ones_second
peel = raised(lambda: qv._peel(S_P))
# the failing peel of test_a_peeled_arrow_module_that_another_arrow_moves_raises
big = cubics.build("big_component")
M_P = qv.direct_sum(big.arrow_module("alpha1"), big.projective("1"))
calls.clear()
def whole_space_sixth(A):
    calls.append(A)
    return rl.identity(A.cols) if len(calls) == 6 else nullspace(A)
rl.nullspace = whole_space_sixth
arrow_peel = raised(lambda: qv._peel(M_P))
# the failing tube split of test_a_wrong_tube_operator_raises
rl.nullspace = nullspace
tube = qv._tube
qv._tube = lambda V: (lambda form: form and form[:-1] + (rl.transpose(form[-1]),))(tube(V))
tube_split = [raised(lambda: qv.decompose_certified(qv.conjugate(qv.direct_sum(
    cubics.rn_family(2, 5), cubics.rn_family(2, 7)), seed))) for seed in (3, 11)]
print(json.dumps({"optimize": sys.flags.optimize, "split": split, "peel": peel,
                  "arrow_peel": arrow_peel, "tube_split": tube_split}))
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
    assert report["arrow_peel"] == "a part is not stable under arrow beta2"
    assert report["tube_split"] == ["a part is not stable under arrow alpha4"] * 2


def spy_on(monkeypatch, name):
    """The dimension vectors of the first argument's source (a
    representation, or the source of a list of morphisms) of every later
    call of quiver.<name>."""
    seen = []
    original = getattr(qv, name)

    def spy(*args):
        first = args[0]
        seen.append((first[0].source if isinstance(first, list) else first).dim_vector())
        return original(*args)

    monkeypatch.setattr(qv, name, spy)
    return seen


def without_the_tube_route(monkeypatch):
    """decompose_certified finds no node in tube form, so every node takes
    the peel and the split search."""
    monkeypatch.setattr(qv, "_tube", lambda V: None)


def ranked_during_decompose(monkeypatch, V):
    """The dimension vectors of the representations decompose_certified(V)
    ranks, each through the trace form of its hom basis."""
    ranked = spy_on(monkeypatch, "_trace_pairing")
    out = qv.decompose_certified(V)
    assert [(W.dim_vector(), certified) for W, certified in out] == [((2, 2, 2, 2, 4), True)] * 2
    return ranked


def test_a_sum_split_by_the_first_candidate_is_never_ranked(monkeypatch):
    without_the_tube_route(monkeypatch)
    V = qv.conjugate(qv.direct_sum(cubics.rn_family(2, 1), cubics.rn_family(2, 3)), seed=1)
    assert ranked_during_decompose(monkeypatch, V) == [(2, 2, 2, 2, 4)] * 2


def test_a_sum_is_ranked_when_the_first_candidate_does_not_split_it(monkeypatch):
    # the first basis endomorphism of the plain sum is the nilpotent of
    # R_2(1), minimal polynomial t^2, so the sum is ranked (rank 2) before
    # the second one splits it; its two parts have rank at most 2 - 1 = 1
    without_the_tube_route(monkeypatch)
    V = qv.direct_sum(cubics.rn_family(2, 1), cubics.rn_family(2, 3))
    assert qv._split(V, qv.hom_basis(V, V)[0].blocks) is None
    assert ranked_during_decompose(monkeypatch, V) == [(4, 4, 4, 4, 8)]


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


def test_the_parts_of_a_ranked_split_are_certified_by_the_bound(monkeypatch):
    # ranked at 2 and split in two, each part has rank at most 1, so
    # neither gets a hom basis of its own
    without_the_tube_route(monkeypatch)
    V = qv.direct_sum(cubics.rn_family(2, 1), cubics.rn_family(2, 3))
    homs = spy_on(monkeypatch, "hom_basis")
    assert ranked_during_decompose(monkeypatch, V) == [(4, 4, 4, 4, 8)]
    assert homs == [(4, 4, 4, 4, 8)]


def test_no_basis_element_in_the_radical_of_the_trace_form_is_tried(monkeypatch):
    # End has dimension 36 and rank 2: the trace form kills every basis
    # element but 29 and 35, so after the first (nilpotent) one the search
    # tries 29, which splits the sum
    A = cubics.embed_alpha(cubics.rn_family(2, 0))
    B = cubics.embed_beta(cubics.rn_family(2, -4))
    V = qv.direct_sum(A, B)
    basis = qv.hom_basis(V, V)
    gram = qv._trace_pairing(basis, basis)
    assert len(basis) == 36 and qv.semisimple_rank(V) == 2
    assert [i for i, row in enumerate(gram.num) if any(row)] == [29, 35]
    tried = []
    split = qv._split
    monkeypatch.setattr(qv, "_split", lambda W, phi: tried.append(phi) or split(W, phi))
    out = qv.decompose_certified(V)
    assert sorted((W.dim_vector(), c) for W, c in out) == sorted(
        [(A.dim_vector(), True), (B.dim_vector(), True)])
    assert tried == [basis[0].blocks, basis[29].blocks]


def test_the_bound_of_a_part_is_the_rank_less_the_other_parts(monkeypatch):
    # ranked at 3, the sum splits into R_2(λ) and a sum of two R_2: each
    # part gets the bound 3 - (2 - 1) = 2, so the sum of two is searched
    # again and comes apart (the bound 3 - 2 = 1 would pass it whole)
    without_the_tube_route(monkeypatch)
    R = cubics.rn_family
    V = reduce(qv.direct_sum, [R(2, 1), R(2, 3), R(2, 5)])
    ranked = spy_on(monkeypatch, "_trace_pairing")
    cuts = []
    split = qv._split

    def spy(W, phi):
        parts = split(W, phi)
        if parts is not None:
            cuts.append([P.dim_vector() for P in parts])
        return parts

    monkeypatch.setattr(qv, "_split", spy)
    out = qv.decompose_certified(V)
    assert ranked[0] == (6, 6, 6, 6, 12)
    assert cuts[0] == [(2, 2, 2, 2, 4), (4, 4, 4, 4, 8)]
    assert [(W.dim_vector(), c) for W, c in out] == [((2, 2, 2, 2, 4), True)] * 3


def test_each_benchmark_sum_takes_one_hom_basis_and_at_most_two_splits(monkeypatch):
    # the root's trace form decides each big-component sum of the decompose
    # workload (seed 0, passes 0-2): the root is ranked once the first
    # candidate fails, the next candidate outside the radical splits it, and
    # both parts are certified by the bound; a d4hat sum is in tube form, so
    # its tube operator splits it and certifies both parts, with no hom basis
    # and no _split
    worker = load_worker()
    homs, splits = spy_on(monkeypatch, "hom_basis"), spy_on(monkeypatch, "_split")
    ops = [op for k in range(3) for op in worker.decompose_inputs(0, k) if op[0] != "end"]
    assert len(ops) == 15
    for op in ops:
        homs.clear()
        splits.clear()
        out = worker.decompose_op(*op)
        if op[0] == "d4hat":
            assert len(homs) == 0 and len(splits) == 0, (op, len(homs), len(splits))
        else:
            assert len(homs) == 1 and len(splits) <= 2, (op, len(homs), len(splits))
        assert [c for _, c in out] == [True, True]


#: parts of a direct sum on each named quiver, the vertices of its simple
#: summands and the arrows of its summands M_a, in the order the peel
#: returns them; a projective can be an arrow module (P_1 = M_alpha1 on
#: d4hat, P_1 = M_a and P_2 = M_b on two_vertex_pair)
PEEL_CASES = {
    "big_component": (lambda bq: [bq.simple("1"), bq.simple("1"), bq.simple("5"),
                                  bq.projective("1"), cubics.embed_alpha(cubics.rn_family(2, 0))],
                      ["1", "1", "5"], []),
    "d4hat": (lambda bq: [bq.simple("1"), bq.simple("5"), cubics.rn_family(1, 2),
                          bq.projective("1")],
              ["1", "5"], ["alpha1"]),
    "two_vertex_pair": (lambda bq: [bq.projective("1"), bq.simple("1"), bq.simple("2"),
                                    bq.simple("2"), bq.projective("2")],
                        ["1", "2", "2"], ["a", "b"]),
}


def check_the_peel(name, cases, seed):
    """_peel of the conjugated sum of cases[name] returns the simples by
    vertex, then the arrow modules by arrow, and leaves the rest; and
    decompose_certified lists them first."""
    bq = cubics.build(name)
    build_parts, simple_at, arrows = cases[name]
    parts = build_parts(bq)
    modules = [bq.simple(v) for v in simple_at] + [bq.arrow_module(a) for a in arrows]
    V = qv.conjugate(reduce(qv.direct_sum, parts), seed=seed)
    W, peeled = qv._peel(V)
    assert peeled == modules
    rest = [X for X in parts if X not in modules]
    assert qv.is_isomorphic(W, reduce(qv.direct_sum, rest, qv.Representation(bq, {}, {})))
    got = qv.decompose_certified(V)
    assert got[:len(modules)] == [(M, True) for M in modules]
    assert all(X.total_dim() > 2 for X, _ in got[len(modules):])
    assert all(certified for _, certified in got)


@pytest.mark.parametrize("name", PEEL_CASES)
def test_the_peel_splits_off_exactly_the_simple_summands(name):
    check_the_peel(name, PEEL_CASES, seed=3)


@pytest.mark.parametrize("name, sink", [("big_component", "2"), ("d4hat", "5")])
def test_a_socle_inside_the_radical_is_not_peeled(name, sink):
    # the socle of P_1 is one-dimensional, at the end of its longest path,
    # and it is the image of the arrow into that vertex
    bq = cubics.build(name)
    P = qv.conjugate(bq.projective("1"), seed=2)
    assert P.dims[sink] == 1
    assert all(rl.is_zero(P.maps[a.name]) for a in bq.quiver.arrows if a.source == sink)
    assert any(not rl.is_zero(P.maps[a.name]) for a in bq.quiver.arrows if a.target == sink)
    # on d4hat P_1 is M_alpha1, which the peel splits off as an arrow module
    _, peeled = qv._peel(P)
    assert all(M.total_dim() > 1 for M in peeled)
    assert qv.decompose_certified(P) == [(P, True)]


def test_a_peeled_vector_that_an_arrow_does_not_kill_raises(monkeypatch):
    # the second null space the peel computes, the socle at vertex 1 of
    # S_1 + P_1 (after Φ there), comes back as the sum of the two basis
    # vectors of V_1 in place of the first alone; the pairing still has rank
    # one, so the one cut takes off a simple at 1 spanned by a vector that
    # a sends to V_2, beside M_a, and every T_v stays invertible
    bq = cubics.build("two_vertex_pair")
    V = qv.direct_sum(bq.simple("1"), bq.projective("1"))
    nullspace = rl.nullspace
    calls = []

    def all_ones_second(A):
        calls.append(A)
        return rl.mat([[1] * A.cols]) if len(calls) == 2 else nullspace(A)

    monkeypatch.setattr(rl, "nullspace", all_ones_second)
    with pytest.raises(ArithmeticError, match="not stable under arrow a"):
        qv._peel(V)


#: parts of a direct sum on each named quiver, with its summands M_a and
#: its simple summands as in PEEL_CASES (P_g1 = M_gamma1 on paper_full)
ARROW_CASES = {
    "paper_full": (lambda bq: [bq.simple("p"), bq.arrow_module("gamma1"), bq.projective("s"),
                               bq.arrow_module("alpha2"), bq.arrow_module("delta-1"),
                               bq.projective("g1"), bq.arrow_module("alpha2")],
                   ["p"], ["alpha2", "alpha2", "gamma1", "gamma1", "delta-1"]),
    "big_component": (lambda bq: [bq.simple("1"), bq.arrow_module("alpha1"), bq.projective("1"),
                                  bq.arrow_module("beta2"),
                                  cubics.embed_alpha(cubics.rn_family(2, 0)),
                                  bq.arrow_module("alpha1"), bq.simple("5"),
                                  cubics.embed_beta(cubics.rn_family(1, 3))],
                      ["1", "5"], ["alpha1", "alpha1", "beta2"]),
    "d4hat": (lambda bq: [bq.simple("1"), bq.arrow_module("alpha3"), cubics.rn_family(1, 2),
                          bq.projective("1"), bq.simple("5"), bq.arrow_module("alpha1"),
                          cubics.rn_family(2, 1)],
              ["1", "5"], ["alpha1", "alpha1", "alpha3"]),
    "two_vertex_pair": (lambda bq: [bq.simple("1"), bq.arrow_module("b"), bq.projective("1"),
                                    bq.arrow_module("a"), bq.simple("2"), bq.projective("2")],
                        ["1", "2"], ["a", "a", "b", "b"]),
}


@pytest.mark.parametrize("name", ARROW_CASES)
def test_the_peel_splits_off_exactly_the_arrow_modules(name):
    check_the_peel(name, ARROW_CASES, seed=4)


def loop_vertex_case():
    """(V, J_2, S_1, M_a) on the quiver with a loop l at 1 and an arrow
    a: 1 -> 2, ll = la = 0: J_2 has l acting by a nilpotent Jordan block,
    and V is the conjugated sum of J_2, S_1, M_a and S_1."""
    loop = qv.BoundQuiver(qv.Quiver(("1", "2"), (qv.Arrow("l", "1", "1"), qv.Arrow("a", "1", "2"))),
                          qv.monomial_relations([("l", "l"), ("l", "a")]))
    J2 = qv.Representation(loop, {"1": 2}, {"l": [[0, 0], [1, 0]]})
    S1, M_a = loop.simple("1"), loop.arrow_module("a")
    return qv.conjugate(reduce(qv.direct_sum, [J2, S1, M_a, S1]), 7), J2, S1, M_a


def test_a_loop_vertex_peels_its_simples_and_its_arrow_module():
    # l is both into and out of vertex 1, so Φ kills its image and K its
    # kernel; J_2 stays for the split
    V, J2, S1, M_a = loop_vertex_case()
    W, peeled = qv._peel(V)
    assert peeled == [S1, S1, M_a]
    assert W.dim_vector() == (2, 0) and qv.is_isomorphic(W, J2)
    got = qv.decompose_certified(V)
    assert got[:3] == [(S1, True), (S1, True), (M_a, True)]
    assert len(got) == 4 and got[3][1] and qv.is_isomorphic(got[3][0], J2)


def test_the_peel_finds_no_summand_in_the_benchmark_pairs():
    # so the big-component sums of the decompose workload pay only the
    # peel's exits; the d4hat sums are in tube form and skip the peel
    for op in sorted(benchmark_ops()):
        V = benchmark_sum(*op)
        W, peeled = qv._peel(V)
        assert W is V and peeled == []


def peel_sums():
    """The conjugated sums of PEEL_CASES, ARROW_CASES and loop_vertex_case,
    each with summands for the peel."""
    sums = [qv.conjugate(reduce(qv.direct_sum, cases[name][0](cubics.build(name))), seed=seed)
            for cases, seed in ((PEEL_CASES, 3), (ARROW_CASES, 4)) for name in cases]
    return sums + [loop_vertex_case()[0]]


def test_the_peel_makes_one_cut(monkeypatch):
    # every path is read on V itself, so one change of basis takes off all
    # the summands the peel finds, and a V without one is not cut at all
    sums = peel_sums()
    cuts = spy_on(monkeypatch, "_cut")
    for V in sums:
        cuts.clear()
        assert qv._peel(V)[1] and len(cuts) == 1, V
    cuts.clear()
    for op in benchmark_ops():
        qv._peel(benchmark_sum(*op))
    assert cuts == []


def test_the_peel_builds_each_module_once_and_keeps_the_first_part(monkeypatch):
    # after D(V), which gives K, each peeled module is built once, by
    # bq.simple or bq.arrow_module, however many copies V has, then the one
    # cut builds its parts, and W is the first; a construction is counted on
    # either route, checked (__post_init__) or not (_satisfying)
    sums = peel_sums()
    built, one_arrow, cuts = [], [], []
    post_init = qv.Representation.__post_init__
    satisfying = qv.Representation._satisfying
    one_arrow_module = qv.BoundQuiver._one_arrow
    cut = qv._cut

    def spy(self):
        built.append(self)
        post_init(self)

    def spy_satisfying(bq, dims, maps):
        built.append(satisfying(bq, dims, maps))
        return built[-1]

    def spy_one_arrow(bq, dims, name):
        one_arrow.append(one_arrow_module(bq, dims, name))
        return one_arrow[-1]

    def spy_cut(V, bases):
        cuts.append(cut(V, bases))
        return cuts[-1]

    monkeypatch.setattr(qv.Representation, "__post_init__", spy)
    monkeypatch.setattr(qv.Representation, "_satisfying", staticmethod(spy_satisfying))
    monkeypatch.setattr(qv.BoundQuiver, "_one_arrow", spy_one_arrow)
    monkeypatch.setattr(qv, "_cut", spy_cut)
    for V in sums:
        built.clear(), one_arrow.clear(), cuts.clear()
        W, peeled = qv._peel(V)
        modules = list({id(M): M for M in peeled}.values())
        [parts] = cuts
        assert W is parts[0]
        assert len(one_arrow) == len(modules) and all(X is Y for X, Y in zip(one_arrow, modules))
        assert len(built) == 1 + len(modules) + len(parts)
        assert all(X is Y for X, Y in zip(built[1:], modules + parts))
        assert built[0] == qv.dual(V)


def test_the_pairing_rank_not_dim_K_is_the_multiplicity():
    # on two_vertex_pair every vector at 1 is in K for a (ab = 0 and no
    # other arrow leaves 1), so K is all of V_1, of dimension 3, and the
    # pairing has rank 2
    bq = cubics.build("two_vertex_pair")
    M_a, M_b = bq.arrow_module("a"), bq.arrow_module("b")
    V = qv.conjugate(reduce(qv.direct_sum, [M_a, M_b, M_a]), seed=5)
    W, modules = qv._peel(V)
    assert V.dims["1"] == 3
    assert modules == [M_a, M_a, M_b]
    assert W.total_dim() == 0


def test_a_peeled_arrow_module_that_another_arrow_moves_raises(monkeypatch):
    # the sixth null space the peel computes, K of alpha1 on M_alpha1 + P_1
    # (after Φ and K at vertex 1, Φ at 2 and 5 and Φ of alpha1), comes back
    # as all of V_1, so the one cut takes off, with M_alpha1, the vector of
    # P_1 that alpha1 beta2 sends to V_2
    bq = cubics.build("big_component")
    V = qv.direct_sum(bq.arrow_module("alpha1"), bq.projective("1"))
    nullspace = rl.nullspace
    calls = []

    def whole_space_sixth(A):
        calls.append(A)
        return rl.identity(A.cols) if len(calls) == 6 else nullspace(A)

    monkeypatch.setattr(rl, "nullspace", whole_space_sixth)
    with pytest.raises(ArithmeticError, match="not stable under arrow beta2"):
        qv._peel(V)


def test_arrow_module_is_the_module_of_one_arrow():
    bq = cubics.build("big_component")
    M = bq.arrow_module("beta3")
    assert M.dims == {"1": 0, "2": 0, "3": 1, "4": 0, "5": 1}
    assert M.maps["beta3"] == rl.identity(1)
    assert all(rl.is_zero(A) for name, A in M.maps.items() if name != "beta3")
    assert cubics.build("d4hat").projective("2") == cubics.build("d4hat").arrow_module("alpha2")
    with pytest.raises(KeyError, match="unknown arrow 'zz'"):
        bq.arrow_module("zz")
    loop = qv.BoundQuiver(qv.Quiver(("1",), (qv.Arrow("l", "1", "1"),)),
                          qv.monomial_relations([("l", "l")]))
    with pytest.raises(ValueError, match="arrow l is a loop"):
        loop.arrow_module("l")


#: check_tame_classification(100, s) before the peel: (summands,
#: projective-injective, beta-zero, alpha-zero, inconclusive), keyed by s
TAME_COUNTS = {
    0: (427, 1, 316, 314, 0),
    1: (406, 0, 296, 281, 0),
    2: (381, 1, 274, 252, 0),
    3: (392, 0, 306, 228, 0),
    4: (409, 0, 295, 306, 1),
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


def four_subspaces(n, G3, G4):
    """The d4hat representation of dimension n delta whose subspaces of
    Q^2n are the two coordinate halves and the graphs of G3 and G4 (n x n)
    over the first: M = G3^-1 G4 when G3 is invertible."""
    I, Z = rl.identity(n), rl.zeros(n, n)
    return qv.Representation(cubics.build("d4hat"), {"1": n, "2": n, "3": n, "4": n, "5": 2 * n},
                             {"alpha1": rl.vstack(I, Z), "alpha2": rl.vstack(Z, I),
                              "alpha3": rl.vstack(I, rl.mat(G3, n, n)),
                              "alpha4": rl.vstack(I, rl.mat(G4, n, n))})


def tube_sums():
    """R_n(lambda) + R_n(mu) for n <= 4 and three pairs (lambda, mu) per n,
    from {0, 1, -1, 5, 1/2}: plain, conjugated at seeds 1-3, and embedded on
    the alpha arrows of big_component."""
    pairs = list(combinations([0, 1, -1, 5, Fraction(1, 2)], 2))
    for n in range(1, 5):
        for lam, mu in [pairs[(3 * n + i) % len(pairs)] for i in range(3)]:
            V = qv.direct_sum(cubics.rn_family(n, lam), cubics.rn_family(n, mu))
            yield from [V] + [qv.conjugate(V, seed) for seed in (1, 2, 3)]
            yield qv.direct_sum(cubics.embed_alpha(cubics.rn_family(n, lam)),
                                cubics.embed_alpha(cubics.rn_family(n, mu)))


def test_the_tube_split_equals_the_kernel_route_along_M():
    # each sum is split by M into its two summands, and each is certified by
    # its M, (t - lambda)^n; the leaves come off the stack last part first,
    # each isomorphic to its part of the kernel route (in other bases)
    cases = 0
    for V in tube_sums():
        phi = tube_endomorphism(V)
        want = kernel_route_split(V, phi)
        assert len(want) == 2
        got = qv.decompose_certified(V)
        assert len(got) == 2
        assert all(paired_up_to_isomorphism([leaf], [(P, True)])
                   for leaf, P in zip(got, reversed(want)))
        cases += 1
    assert cases == 60


def declined_cases():
    """Tube-like modules with the flags and verdict they get, then the flags
    the split search alone gives them.  The tube route leaves two to the
    split search: R_1(5) + R_1(5), whose M = 5 is not cyclic, and U_3 = U_1,
    so B3 = 0.  M the companion of t^2 + 1, irreducible over Q, is cyclic:
    the route certifies it, and the split search alone leaves it open."""
    return [(qv.direct_sum(cubics.rn_family(1, 5), cubics.rn_family(1, 5)), [True, True], "no",
             [True, True]),
            (four_subspaces(2, rl.identity(2), [[0, -1], [1, 0]]), [True], "yes", [False]),
            (four_subspaces(1, [[0]], [[1]]), [True], "yes", [True])]


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("case", range(3))
def test_the_tube_route_keeps_the_verdicts_where_it_declines(monkeypatch, case, seed):
    V, flags, verdict, searched = declined_cases()[case]
    V = V if seed is None else qv.conjugate(V, seed)
    assert (qv._tube(V) is None) == (case == 2)  # only B3 = 0 is not in tube form
    got = qv.decompose_certified(V)
    assert [certified for _, certified in got] == flags
    assert qv.is_indecomposable(V) == verdict
    without_the_tube_route(monkeypatch)
    alone = qv.decompose_certified(V)
    assert [W for W, _ in alone] == [W for W, _ in got]
    assert [certified for _, certified in alone] == searched


def tame_leaves(monkeypatch, seed):
    """The (summand, certified) pairs check_tame_classification(100, seed)
    decomposes, in order."""
    leaves = []
    decompose = cubics.decompose_certified

    def spy(V):
        out = decompose(V)
        leaves.extend(out)
        return out

    monkeypatch.setattr(cubics, "decompose_certified", spy)
    assert cubics.check_tame_classification(100, seed)["violations"] == []
    return leaves


@pytest.mark.parametrize("seed, fields", [(2, 1), (4, 1)])
def test_a_cyclic_tube_leaf_has_the_end_its_minimal_polynomial_gives(monkeypatch, seed, fields):
    # a certified leaf whose M is cyclic, of minimal polynomial p^k of degree
    # n (factored by sympy), has End = Q[t]/(p^k): dim End = n and ssr = deg p,
    # replayed through hom_basis; where p^k is irreducible of degree n >= 2,
    # End is a field, of dim End = ssr = n
    t = Symbol("t")
    seen = 0
    for W, certified in tame_leaves(monkeypatch, seed):
        tube = qv._tube(W)
        if not certified or tube is None:
            continue
        M = tube[-1]
        n, f = M.rows, rl.minimal_polynomial(M)
        if len(f) != n + 1:
            continue
        _, ((p, k),) = Poly([Rational(c.numerator, c.denominator) for c in reversed(f)],
                            t).factor_list()
        assert len(qv.hom_basis(W, W)) == n
        assert qv.semisimple_rank(W) == p.degree()
        seen += (k == 1 and n >= 2)
    assert seen == fields


@pytest.mark.parametrize("seed", [None, 3])
def test_a_part_of_a_tube_split_with_a_repeated_root_is_searched(seed):
    # M = diag(5, 5, 7) splits into the parts of t - 5 (dimension 2, not
    # cyclic) and t - 7; the first is R_1(5) + R_1(5), which the split
    # search takes apart
    R = cubics.rn_family
    V = reduce(qv.direct_sum, [R(1, 5), R(1, 5), R(1, 7)])
    V = V if seed is None else qv.conjugate(V, seed)
    got = qv.decompose_certified(V)
    assert [(W.dim_vector(), certified) for W, certified in got] == [((1, 1, 1, 1, 2), True)] * 3
    assert paired_up_to_isomorphism(got, [(R(1, 5), True), (R(1, 5), True), (R(1, 7), True)])


def conjugated_tube_modules():
    """50 conjugated modules in tube form: one R_n(lambda) or a sum of two
    (n <= 2), on d4hat or through embed_alpha."""
    rng = random.Random(30)
    params = [0, 1, -1, 5, Fraction(1, 2), 7]
    for i in range(50):
        n = rng.randint(1, 2)
        V = reduce(qv.direct_sum, [cubics.rn_family(n, rng.choice(params))
                                   for _ in range(rng.randint(1, 2))])
        yield qv.conjugate(cubics.embed_alpha(V) if i % 5 == 4 else V, seed=i)


def test_a_module_in_tube_form_has_nothing_to_peel():
    for V in conjugated_tube_modules():
        assert qv._tube(V) is not None
        W, peeled = qv._peel(V)
        assert W is V and peeled == []


def transposed_tube_operator(tube):
    """qv._tube with M replaced by its transpose: the same minimal polynomial,
    other generalized eigenspaces (test_a_non_intertwining_phi_raises_under_python_O
    makes the same change under python -O)."""
    def wrong(V):
        form = tube(V)
        return form and form[:-1] + (rl.transpose(form[-1]),)
    return wrong


@pytest.mark.parametrize("seed", [3, 11])
def test_a_wrong_tube_operator_raises(monkeypatch, seed):
    V = qv.conjugate(qv.direct_sum(cubics.rn_family(2, 5), cubics.rn_family(2, 7)), seed)
    monkeypatch.setattr(qv, "_tube", transposed_tube_operator(qv._tube))
    with pytest.raises(ArithmeticError, match="a part is not stable under arrow alpha4"):
        qv.decompose_certified(V)


def test_the_conjugated_pair_takes_no_hom_basis(monkeypatch):
    V = qv.conjugate(qv.direct_sum(cubics.rn_family(4, 5), cubics.rn_family(4, 7)), 3)
    homs = spy_on(monkeypatch, "hom_basis")
    out = qv.decompose_certified(V)
    assert [(W.dim_vector(), certified) for W, certified in out] == [((4, 4, 4, 4, 8), True)] * 2
    assert homs == []


BETA_IMAGES = [(n, lam) for n in range(1, 5) for lam in (0, 1, -1, 5)]


@pytest.mark.parametrize("n, lam", BETA_IMAGES)
def test_a_beta_image_is_certified_through_D_with_no_hom_basis_and_no_peel(monkeypatch, n, lam):
    # embed_beta(R_n(lam)) is in dual form: D of it is in tube form, with
    # M of minimal polynomial (t - lam)^n
    V = cubics.embed_beta(cubics.rn_family(n, lam))
    tube = qv._tube(V)
    assert tube[0] == qv.dual(V) and tube[0].bq is V.bq.opposite()
    homs, peels = spy_on(monkeypatch, "hom_basis"), spy_on(monkeypatch, "_peel")
    assert qv.decompose_certified(V) == [(V, True)]
    assert homs == peels == []


def dual_form_sum(seed):
    """embed_beta(R_2(5) + R_2(7)), conjugated: a node in dual form whose M splits."""
    return qv.conjugate(cubics.embed_beta(qv.direct_sum(cubics.rn_family(2, 5),
                                                        cubics.rn_family(2, 7))), seed)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_a_dual_form_sum_gives_the_duals_of_the_summands_of_its_D(monkeypatch, seed):
    V = dual_form_sum(seed)
    DV = qv.dual(V)
    assert qv._tube(V)[0] == DV and qv._tube(DV)[0] is DV  # dual form, tube form
    want = [(qv.dual(P), certified) for P, certified in qv.decompose_certified(DV)]
    homs = spy_on(monkeypatch, "hom_basis")
    got = qv.decompose_certified(V)
    assert got == want
    assert [(W.bq, W.dim_vector(), certified) for W, certified in got] == [
        (V.bq, (2, 2, 2, 2, 4), True)] * 2
    assert homs == []


def test_without_the_tube_route_neither_form_is_read(monkeypatch):
    tube_form = cubics.embed_alpha(cubics.rn_family(2, 5))
    dual_form = cubics.embed_beta(cubics.rn_family(2, 5))
    without_the_tube_route(monkeypatch)
    homs = spy_on(monkeypatch, "hom_basis")
    for V in (tube_form, dual_form):
        homs.clear()
        assert [certified for _, certified in qv.decompose_certified(V)] == [True]
        assert homs == [V.dim_vector()]


def test_rep_decompose_of_a_beta_image_prints_one_certified_summand(tmp_path, capsys):
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(qv.rep_to_dict(cubics.embed_beta(cubics.rn_family(3, -1)))))
    assert cli.main(["--format", "json", "rep", "decompose", str(path)]) == 0
    assert [(s["dims"], s["verdict"]) for s in json.loads(capsys.readouterr().out)["summands"]] == [
        ([3, 3, 3, 3, 6], "indecomposable")]
