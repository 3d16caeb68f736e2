"""The split step of decompose_certified: one checked change of basis per
summand, against the kernel() route it replaced, the deferred ranking,
the candidates it skips and the rank bound that certifies split parts,
the peel of simple summands and arrow modules before the split search,
the tube route, in tube form and through D in dual form, the cut of a
root along its separated quiver into parts that take the tube route, and
the cut of a root along its coefficient quiver before any of them."""

import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest
from sympy import Poly, Rational, Symbol

from binarycubics import cli, cubics, polyfactor
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
                                   for phi in qv._split_candidates(cur, basis))), None)
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


def random_combinations(basis, rng, count):
    """The blocks of count random integer combinations of the basis, with
    coefficients in [-5, 5], all-zero draws skipped."""
    out = []
    while len(out) < count:
        coeffs = [rng.randint(-5, 5) for _ in basis]
        if any(coeffs):
            out.append(qv._combination(basis, coeffs))
    return out


def test_split_equals_the_kernel_route_part_for_part():
    splits = 0
    for V in oracle_inputs():
        if V.total_dim() == 0:
            continue
        basis = qv.hom_basis(V, V)
        for phi in [*qv._split_candidates(V, basis),
                    *random_combinations(basis, random.Random(1), 4)]:
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


def test_decompose_certified_matches_the_kernel_route_on_the_benchmark_inputs(monkeypatch):
    without_the_coordinate_parts(monkeypatch)
    for op in sorted(benchmark_ops() | {("d4hat", 2, 1, 3)}):
        V = benchmark_sum(*op)
        got = qv.decompose_certified(V)
        assert got == kernel_route_decompose(V)
        assert [certified for _, certified in got] == [True, True]


def test_the_benchmark_accepts_the_decompositions_of_its_seed_0_inputs():
    # perfbench's decompose workload compares the (summand, certified) pairs
    # of decompose_certified with two (want, True); a change to those pairs
    # (a certificate object for the bool) shows here, not only in a bench run
    worker = load_worker()
    for k in range(3):
        for kind, n, lam, mu in worker.decompose_inputs(0, k):
            assert worker.check_decompose(kind, n, worker.decompose_op(kind, n, lam, mu)) is None


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
functionals = qv._functionals
def all_ones_socle(W, x, y, p):
    if W.bq is bq.opposite() and (x, p) == ("1", None):
        return rl.mat([[1] * W.dims[y]])
    return functionals(W, x, y, p)
qv._functionals = all_ones_socle
peel = raised(lambda: qv._peel(S_P))
# the failing peel of test_a_peeled_arrow_module_that_another_arrow_moves_raises
big = cubics.build("big_component")
M_P = qv.direct_sum(big.arrow_module("alpha1"), big.projective("1"))
def whole_space_K(W, x, y, p):
    if W.bq is big.opposite() and p == "alpha1":
        return rl.identity(W.dims[y])
    return functionals(W, x, y, p)
qv._functionals = whole_space_K
arrow_peel = raised(lambda: qv._peel(M_P))
# the failing tube split of test_a_wrong_tube_operator_raises
qv._functionals = functionals
tube = qv._tube
qv._tube = lambda V: (lambda f: f and qv.TubeForm(**{**vars(f), "M": rl.transpose(f.M)}))(tube(V))
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


def without_the_separated_parts(monkeypatch):
    """decompose_certified cuts no root along its separated quiver, so a
    big-component sum takes the peel and the split search."""
    monkeypatch.setattr(qv, "_separate", lambda V: None)


def without_the_coordinate_parts(monkeypatch):
    """decompose_certified cuts no root along its coefficient quiver, so a
    sum given in block form takes the route of the whole sum."""
    monkeypatch.setattr(qv, "_coordinate_parts", lambda V: None)


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
    without_the_coordinate_parts(monkeypatch)
    V = qv.direct_sum(cubics.rn_family(2, 1), cubics.rn_family(2, 3))
    assert qv._split(V, qv.hom_basis(V, V)[0].blocks) is None
    assert ranked_during_decompose(monkeypatch, V) == [(4, 4, 4, 4, 8)]


def test_the_annihilator_candidate_splits_a_sum_no_basis_element_splits(monkeypatch):
    # End(X + X) is M_2(Q) for X = R_1(0); after this change of basis no
    # basis endomorphism has two coprime factors, but the annihilator
    # candidate, which kills a unit vector and has nonzero trace, does; the
    # tube route would cut the sum by its M = 0 before any candidate
    without_the_tube_route(monkeypatch)
    V = qv.conjugate(qv.direct_sum(cubics.rn_family(1, 0), cubics.rn_family(1, 0)), 0)
    basis = qv.hom_basis(V, V)
    assert len(basis) == 4
    assert all(qv._split(V, b.blocks) is None for b in basis)
    candidates = list(qv._split_candidates(V, basis))
    assert candidates[:4] == [b.blocks for b in basis] and len(candidates) == 5
    phi = candidates[4]
    assert sum(m[i][i] for m in phi.values() for i in range(m.rows)) != 0
    assert any(not any(row[j] for row in phi[v].num) for v in phi for j in range(phi[v].cols))
    tried = []
    split = qv._split
    monkeypatch.setattr(qv, "_split", lambda W, phi: tried.append(phi) or split(W, phi))
    out = qv.decompose_certified(V)
    assert [(W.dim_vector(), certified) for W, certified in out] == [((1, 1, 1, 1, 2), True)] * 2
    # the 4 basis elements, then the annihilator candidate, which splits
    assert tried == candidates
    # with the basis elements alone, the sum is left uncertified
    monkeypatch.setattr(qv, "_split_candidates", lambda W, basis: (b.blocks for b in basis))
    out = qv.decompose_certified(V)
    assert [(W.dim_vector(), certified) for W, certified in out] == [((2, 2, 2, 2, 4), False)]


def sum_of_two(X, seed):
    """decompose_certified(conjugate(X + X, seed)) as (dimension vector, flag) pairs."""
    return [(W.dim_vector(), certified)
            for W, certified in qv.decompose_certified(qv.conjugate(qv.direct_sum(X, X), seed))]


@pytest.mark.parametrize("seed", [3, 38, 56])
@pytest.mark.parametrize("lam", [0, 1, -1, 5])
def test_a_conjugated_square_of_an_alpha_image_splits_into_certified_halves(lam, seed):
    # 40 random draws left X + X whole for X = embed_alpha(R_2(1)) at seeds
    # 38 and 56; at seeds 3 and 38 the first nonzero element of the first
    # Ann(e_j) is nilpotent, so the candidate needs its nonzero trace
    X = cubics.embed_alpha(cubics.rn_family(2, lam))
    assert sum_of_two(X, seed) == [((2, 2, 2, 2, 4), True)] * 2


@pytest.mark.parametrize("seed", [6, 25, 37])
def test_tame_seeds_once_left_uncertified_are_decided(seed):
    # 2, 3 and 4 summands stayed uncertified under 40 random draws
    report = cubics.check_tame_classification(100, seed)
    assert report["inconclusive"] == 0 and report["violations"] == []


def brick():
    """A d4hat brick of dimension (2, 2, 2, 2, 3), End = Q."""
    return qv.Representation(cubics.build("d4hat"), {"1": 2, "2": 2, "3": 2, "4": 2, "5": 3}, {
        "alpha1": [[1, 0], [0, 1], [0, 0]], "alpha2": [[0, 0], [1, 0], [0, 1]],
        "alpha3": [[1, 0], [0, 0], [0, 1]], "alpha4": [[1, 0], [1, 1], [0, 1]]})


@pytest.mark.parametrize("seed", range(10))
def test_a_brick_square_is_never_falsely_certified(seed):
    # dim X_v >= 2 on the support of X, and in some bases every endomorphism
    # of X + X that kills a unit vector lies in the radical, so there is no
    # annihilator candidate; unless a basis element splits the sum, it is
    # reported whole and uncertified
    X = brick()
    assert len(qv.hom_basis(X, X)) == 1
    got = sum_of_two(X, seed)
    assert tuple(map(sum, zip(*(dv for dv, _ in got)))) == (4, 4, 4, 4, 6)
    assert got in ([((4, 4, 4, 4, 6), False)], [((2, 2, 2, 2, 3), True)] * 2)
    # no candidate splits the sum at seeds 0, 1, 4, 6 and 8
    assert (got[0][1] is False) == (seed in (0, 1, 4, 6, 8))


def test_the_parts_of_a_ranked_split_are_certified_by_the_bound(monkeypatch):
    # ranked at 2 and split in two, each part has rank at most 1, so
    # neither gets a hom basis of its own
    without_the_tube_route(monkeypatch)
    without_the_coordinate_parts(monkeypatch)
    V = qv.direct_sum(cubics.rn_family(2, 1), cubics.rn_family(2, 3))
    homs = spy_on(monkeypatch, "hom_basis")
    assert ranked_during_decompose(monkeypatch, V) == [(4, 4, 4, 4, 8)]
    assert homs == [(4, 4, 4, 4, 8)]


def test_no_basis_element_in_the_radical_of_the_trace_form_is_tried(monkeypatch):
    # End has dimension 36 and rank 2: the trace form kills every basis
    # element but 29 and 35, so after the first (nilpotent) one the search
    # tries 29, which splits the sum
    without_the_separated_parts(monkeypatch)
    without_the_coordinate_parts(monkeypatch)
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
    without_the_coordinate_parts(monkeypatch)
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


def test_each_benchmark_sum_takes_no_hom_basis_and_no_split(monkeypatch):
    # each sum of the decompose workload (seed 0, passes 0-2) is in block
    # form, so its coefficient quiver cuts it into its two summands before
    # any linear algebra; each part is in tube form (a d4hat sum, or the α
    # image of a big-component sum) or in dual form (the β image) and is
    # certified by its tube operator; none takes a hom basis or a _split
    worker = load_worker()
    homs, splits = spy_on(monkeypatch, "hom_basis"), spy_on(monkeypatch, "_split")
    ops = [op for k in range(3) for op in worker.decompose_inputs(0, k) if op[0] != "end"]
    assert len(ops) == 15
    for op in ops:
        homs.clear()
        splits.clear()
        out = worker.decompose_op(*op)
        assert len(homs) == 0 and len(splits) == 0, (op, len(homs), len(splits))
        assert [c for _, c in out] == [True, True]


def test_each_benchmark_sum_inverts_only_where_it_conjugates(monkeypatch):
    # on the coordinate route each sum comes apart into its two summands,
    # and each inverts T = [W1 W2], A_3, B_3 and A_4 in _tube, all of them
    # identities on R_n(λ) and its α and β images: 8 calls, no elimination.
    # Taken whole, a d4hat sum inverts those four and, in _cut, only T_5 at
    # the one vertex the arrows enter: 5 inverses; a big-component sum
    # makes 13 over its separation and its two tube parts.  No minimal
    # polynomial needs the modular factoring step
    worker = load_worker()
    inverses, ddf = [], []
    inverse, modular = rl.inverse, polyfactor._ddf
    monkeypatch.setattr(rl, "inverse",
                        lambda A: inverses.append((A.rows, rl._is_identity(A))) or inverse(A))
    monkeypatch.setattr(polyfactor, "_ddf", lambda f, p: ddf.append(f) or modular(f, p))
    ops = [op for k in range(3) for op in worker.decompose_inputs(0, k) if op[0] != "end"]
    assert len(ops) == 15
    for whole, counts in ((False, {"d4hat": 8, "big_component": 8}),
                          (True, {"d4hat": 5, "big_component": 13})):
        if whole:
            without_the_coordinate_parts(monkeypatch)
        for op in ops:
            inverses.clear()
            worker.decompose_op(*op)
            assert len(inverses) == counts[op[0]], (op, inverses)
            assert whole or all(identity for _, identity in inverses), (op, inverses)
    assert ddf == []


def split_at_the_middle(V):
    """_cut's bases for a sum X + Y of equal dimension vectors: at each
    vertex the first half of the unit rows for X, the second for Y."""
    bases = {}
    for v, d in V.dims.items():
        unit, h = rl.identity(d).num, d // 2
        bases[v] = [rl.over(unit[:h], 1, h, d), rl.over(unit[h:], 1, h, d)]
    return bases


@pytest.mark.parametrize("vertex", ["1", "5"])
def test_a_cut_whose_parts_do_not_fill_a_vertex_raises(vertex):
    # vertex 1 is only an arrow source, where the rank certifies T_1; the
    # arrows enter vertex 5, where T_5 is inverted
    X, Y = cubics.rn_family(2, 1), cubics.rn_family(2, 3)
    V = qv.direct_sum(X, Y)
    bases = split_at_the_middle(V)
    assert qv._cut(V, bases) == [X, Y]
    bases[vertex][1] = bases[vertex][0]
    with pytest.raises(ArithmeticError, match=f"the parts do not fill V at vertex {vertex}$"):
        qv._cut(V, bases)


def all_pairs_rows(V, W):
    """The equations of hom_basis(V, W), built as one row for every entry
    (i, j) of every arrow, dropping only the rows left empty."""
    offs, total = {}, 0
    for v in V.bq.quiver.vertices:
        offs[v], total = total, total + V.dims[v] * W.dims[v]
    rows = []
    for a in V.bq.quiver.arrows:
        x, y = a.source, a.target
        va, wa = V.maps[a.name], W.maps[a.name]
        den = lcm(va.den, wa.den)
        for i, wa_row in enumerate(wa.num):
            for j in range(V.dims[x]):
                row = {}
                for k in range(V.dims[y]):
                    if va.num[k][j]:
                        row[offs[y] + i * V.dims[y] + k] = den // va.den * va.num[k][j]
                for k, w in enumerate(wa_row):
                    if w:
                        at = offs[x] + k * V.dims[x] + j
                        row[at] = row.get(at, 0) - den // wa.den * w
                if row:
                    rows.append(row)
    return rows, total


@pytest.mark.parametrize("case", ["embed_alpha(R_3(2))", "tame sample"])
def test_hom_basis_hands_kernel_basis_every_nonempty_equation_in_order(monkeypatch, case):
    # (V, V) and (V, W) are tube pairs, which take the Sylvester route
    # unless the tube route is off (see the test below)
    without_the_tube_route(monkeypatch)
    V = (cubics.embed_alpha(cubics.rn_family(3, 2)) if case == "embed_alpha(R_3(2))"
         else cubics.random_big_component_rep(random.Random(0)))
    # W(a) has zero rows where V(a) has nonzero columns and the other way
    # round: on the beta arrows of a module placed on the alphas, and on the
    # alphas of X, placed on the betas
    W, X = qv.conjugate(V, seed=2), cubics.embed_beta(cubics.rn_family(2, 5))
    systems = spy_on_kernel_basis(monkeypatch)
    skipped = 0  # the 0 = 0 equations: a zero row of W(a) against a zero column of V(a)
    for A, B in ((V, V), (V, W), (W, V), (V, X), (X, W)):
        systems.clear()
        qv.hom_basis(A, B)
        assert systems == [all_pairs_rows(A, B)]
        for a in A.bq.quiver.arrows:
            va, wa = A.maps[a.name], B.maps[a.name]
            skipped += (sum(not any(r) for r in wa.num)
                        * sum(not any(col) for col in rl.transpose(va).num))
    assert skipped > 0


def spy_on_kernel_basis(monkeypatch):
    """The (rows, ncols) of every later call of rl.kernel_basis."""
    systems = []
    kernel_basis = rl.kernel_basis
    monkeypatch.setattr(rl, "kernel_basis", lambda rows, n: systems.append((rows, n))
                        or kernel_basis(rows, n))
    return systems


@pytest.mark.parametrize("lam", [3, 7, -9])
def test_the_end_op_hands_kernel_basis_64_unknowns_and_not_512(monkeypatch, lam):
    # the decompose workload's end op: End(embed_alpha(R_8)) is the
    # centralizer of M = J_8(lam), P M = M P in 8 x 8 unknowns
    R = cubics.embed_alpha(cubics.rn_family(8, lam))
    systems = spy_on_kernel_basis(monkeypatch)
    assert len(qv.hom_basis(R, R)) == 8
    assert [n for _, n in systems] == [64]


def tube_and_dual_pairs():
    """Pairs in one form: tube form on d4hat and through embed_alpha, dual
    form through embed_beta, conjugated, of different n."""
    R, conj = cubics.rn_family, qv.conjugate
    return {"d4hat": (conj(R(4, 1), 1), R(2, 1)),
            "alpha": (conj(cubics.embed_alpha(R(2, 0)), 2), cubics.embed_alpha(R(3, 0))),
            "beta": (conj(cubics.embed_beta(R(3, 2)), 3), conj(cubics.embed_beta(R(2, 2)), 4))}


@pytest.mark.parametrize("form", ["d4hat", "alpha", "beta"])
def test_a_tube_or_dual_pair_hands_kernel_basis_n_V_n_W_unknowns(monkeypatch, form):
    V, W = tube_and_dual_pairs()[form]
    n_V, n_W = V.dims["1"], W.dims["1"]
    systems = spy_on_kernel_basis(monkeypatch)
    assert len(qv.hom_basis(V, W)) == len(qv.hom_basis(W, V)) == min(n_V, n_W)
    assert [n for _, n in systems] == [n_V * n_W] * 2


def mixed_pairs():
    """Pairs in different forms: tube against dual form, and a module in
    tube form (plain, in dual form) against one in neither."""
    R = cubics.rn_family
    alpha, beta = cubics.embed_alpha(R(3, 2)), cubics.embed_beta(R(3, 2))
    sample = cubics.random_big_component_rep(random.Random(0))
    assert qv._tube(sample) is None
    return [(alpha, beta), (beta, alpha), (alpha, sample), (sample, beta),
            (qv.conjugate(beta, 1), sample)]


def test_a_mixed_pair_hands_kernel_basis_the_whole_system(monkeypatch):
    systems = spy_on_kernel_basis(monkeypatch)
    for V, W in mixed_pairs():
        systems.clear()
        qv.hom_basis(V, W)
        assert systems == [all_pairs_rows(V, W)]


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
    # K of e_1 on S_1 + P_1, the socle at vertex 1, read as the Φ of e_1 on
    # D(V), comes back as the sum of the two basis vectors of V_1 in place
    # of the first alone; the pairing still has rank one, so the one cut
    # takes off a simple at 1 spanned by a vector that a sends to V_2,
    # beside M_a, and every T_v stays invertible
    bq = cubics.build("two_vertex_pair")
    V = qv.direct_sum(bq.simple("1"), bq.projective("1"))
    functionals = qv._functionals
    hit = []

    def all_ones_socle(W, x, y, p):
        if W.bq is bq.opposite() and (x, p) == ("1", None):
            hit.append(x)
            return rl.mat([[1] * W.dims[y]])
        return functionals(W, x, y, p)

    monkeypatch.setattr(qv, "_functionals", all_ones_socle)
    with pytest.raises(ArithmeticError, match="not stable under arrow a"):
        qv._peel(V)
    assert hit == ["1"]


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
def test_the_peel_splits_off_exactly_the_arrow_modules(monkeypatch, name):
    # the paper_full sum is supported on three components of the quiver,
    # which its coefficient quiver would cut apart before the peel
    without_the_coordinate_parts(monkeypatch)
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
    # no sum of the decompose workload takes the peel: the d4hat sums are
    # in tube form and the big-component sums are cut along their separated
    # quiver; run on them anyway, it finds no simple summand or arrow module
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
    # K of alpha1 on M_alpha1 + P_1, read as the Φ of the reversed alpha1 on
    # D(V), comes back as all of V_1, so the one cut takes off, with
    # M_alpha1, the vector of P_1 that alpha1 beta2 sends to V_2
    bq = cubics.build("big_component")
    V = qv.direct_sum(bq.arrow_module("alpha1"), bq.projective("1"))
    functionals = qv._functionals
    hit = []

    def whole_space_K(W, x, y, p):
        if W.bq is bq.opposite() and p == "alpha1":
            hit.append((x, y))
            return rl.identity(W.dims[y])
        return functionals(W, x, y, p)

    monkeypatch.setattr(qv, "_functionals", whole_space_K)
    with pytest.raises(ArithmeticError, match="not stable under arrow beta2"):
        qv._peel(V)
    assert hit == [("5", "1")]


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
    4: (410, 0, 296, 306, 0),
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


def test_the_tube_split_equals_the_kernel_route_along_M(monkeypatch):
    # each sum is split by M into its two summands, and each is certified by
    # its M, (t - lambda)^n; the leaves come off the stack last part first,
    # each isomorphic to its part of the kernel route (in other bases); the
    # plain sums are kept whole, so that they take the tube split too
    without_the_coordinate_parts(monkeypatch)
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
    the split search alone gives them.  R_1(5) + R_1(5), whose M = 5 I is
    not cyclic, is cut by M into its two summands, in other bases than the
    split search's.  The tube route leaves U_3 = U_1, so B3 = 0, to the
    split search.  M the companion of t^2 + 1, irreducible over Q, is cyclic:
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
    if case == 0:
        assert paired_up_to_isomorphism(got, alone)
    else:
        assert [W for W, _ in alone] == [W for W, _ in got]
    assert [certified for _, certified in alone] == searched


@pytest.mark.parametrize("seed", [None, 0, 3])
def test_a_singular_T_is_declined_and_searched_like_the_kernel_route(seed):
    # U_1 = U_2, so T = [W_a1 | W_a2] is singular and _tube declines
    I, Z = rl.identity(2), rl.zeros(2, 2)
    V = qv.Representation(cubics.build("d4hat"), {"1": 2, "2": 2, "3": 2, "4": 2, "5": 4},
                          {"alpha1": rl.vstack(I, Z), "alpha2": rl.vstack(I, Z),
                           "alpha3": rl.vstack(I, I),
                           "alpha4": rl.vstack(I, rl.mat([[3, 1], [0, 3]]))})
    V = V if seed is None else qv.conjugate(V, seed)
    assert qv._tube(V) is None
    assert qv.decompose_certified(V) == kernel_route_decompose(V)


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
        M = tube.M
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
def test_a_part_of_a_tube_split_with_a_repeated_root_is_cut_by_M(monkeypatch, seed):
    # M = diag(5, 5, 7) splits into the parts of t - 5 (dimension 2, not
    # cyclic) and t - 7; the first is R_1(5) + R_1(5), which its own M cuts
    # apart, with no hom space
    R = cubics.rn_family
    V = reduce(qv.direct_sum, [R(1, 5), R(1, 5), R(1, 7)])
    V = V if seed is None else qv.conjugate(V, seed)
    homs = spy_on(monkeypatch, "hom_basis")
    got = qv.decompose_certified(V)
    assert homs == []
    assert [(W.dim_vector(), certified) for W, certified in got] == [((1, 1, 1, 1, 2), True)] * 3
    assert paired_up_to_isomorphism(got, [(R(1, 5), True), (R(1, 5), True), (R(1, 7), True)])


def companion(*coeffs):
    """The companion matrix of the monic t^n + c_(n-1) t^(n-1) + ... + c_0,
    for coeffs = (c_0, ..., c_(n-1))."""
    n = len(coeffs)
    return rl.mat([[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)], n, n)


def tube_module(*blocks):
    """The d4hat module in tube form whose M is the block sum of blocks."""
    M = reduce(rl.block_diag, blocks)
    return four_subspaces(M.rows, rl.identity(M.rows), M)


J = cubics.jordan_block
C1, C2 = companion(1, 0), companion(1, 0, 2, 0)  # of t^2 + 1 and of (t^2 + 1)^2
#: planted tube modules: R_n(lambda)^m with lambda an integer or a Fraction,
#: companions of t^2 + 1 and of (t^2 + 1)^2, and mixed elementary divisors
PLANTED = {"R_2(3)^2": reduce(qv.direct_sum, [cubics.rn_family(2, 3)] * 2),
           "R_1(1/2)^3": reduce(qv.direct_sum, [cubics.rn_family(1, Fraction(1, 2))] * 3),
           "C(t^2+1)^2": tube_module(C1, C1),
           "C((t^2+1)^2)+C(t^2+1)": tube_module(C2, C1),
           "J_2(2)+J_1(2)": tube_module(J(2, 2), J(1, 2)),
           "J_2(1/2)^2+J_1(3)": tube_module(J(2, Fraction(1, 2)), J(2, Fraction(1, 2)), J(1, 3))}
#: the forms a planted module is decomposed in: tube form, dual form, and
#: the two images on big_component (in tube form and in dual form)
FORMS = {"tube": lambda V: V, "dual": qv.dual,
         "alpha": cubics.embed_alpha, "beta": cubics.embed_beta}


def spy_on_the_split_search(monkeypatch):
    """Whether _tube reads a tube form on the node of each later call of
    hom_basis, _split_candidates or _trace_pairing."""
    seen = []
    for name in ("hom_basis", "_split_candidates", "_trace_pairing"):
        def spy(first, *rest, original=getattr(qv, name)):
            node = first[0].source if isinstance(first, list) else first
            seen.append(qv._tube(node) is not None)
            return original(first, *rest)
        monkeypatch.setattr(qv, name, spy)
    return seen


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", PLANTED)
def test_a_planted_tube_sum_is_cut_by_M_into_certified_summands(monkeypatch, name, form):
    # every node is in the tube or the dual form, so the tube route decides
    # it: no hom space, candidate or trace form; the summands are those of
    # the split search, which leaves the companions' summands uncertified
    V = qv.conjugate(FORMS[form](PLANTED[name]), seed=2)
    seen = spy_on_the_split_search(monkeypatch)
    got = qv.decompose_certified(V)
    assert seen == []
    assert all(certified for _, certified in got)
    monkeypatch.undo()
    without_the_tube_route(monkeypatch)
    alone = qv.decompose_certified(V)
    assert paired_up_to_isomorphism(got, [(W, True) for W, _ in alone])


def test_a_conjugated_cube_of_R_3_is_cut_in_a_fifth_of_a_second(monkeypatch):
    V = qv.conjugate(reduce(qv.direct_sum, [cubics.rn_family(3, 2)] * 3), seed=1)
    seen = spy_on_the_split_search(monkeypatch)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        got = qv.decompose_certified(V)
        times.append(time.perf_counter() - start)
    assert [(W.dim_vector(), certified) for W, certified in got] == [((3, 3, 3, 3, 6), True)] * 3
    assert seen == []
    assert min(times) < 0.2, times


def elementary_divisors(V):
    """{p: [(deg p, k), ...]}: the minimal polynomial p^k (factored by sympy)
    of the M of each summand of V, all certified."""
    t = Symbol("t")
    powers = {}
    for W, certified in qv.decompose_certified(V):
        assert certified
        f = rl.minimal_polynomial(qv._tube(W).M)
        _, ((p, k),) = Poly([Rational(c.numerator, c.denominator) for c in reversed(f)],
                            t).factor_list()
        powers.setdefault(p.as_expr(), []).append((p.degree(), k))
    return powers


@pytest.mark.parametrize("blocks, dim_end", [
    ((J(3, 2), J(1, 2), J(2, 2)), 14), ((C1, C1, C1), 18),
    ((J(2, Fraction(1, 2)), J(2, Fraction(1, 2)), J(1, 3)), 9)])
def test_dim_end_is_the_frobenius_count_of_the_elementary_divisors(blocks, dim_end):
    # each certified summand's M has minimal polynomial p^k; the
    # centralizer of M then has dimension
    # sum over p of deg p * sum over i, j of min(k_i, k_j)
    V = qv.conjugate(tube_module(*blocks), seed=7)
    powers = elementary_divisors(V)
    count = sum(d * min(k, l) for ks in powers.values() for d, k in ks for _, l in ks)
    assert count == dim_end == len(qv.hom_basis(V, V))


@pytest.mark.parametrize("form", ["tube", "dual"])
@pytest.mark.parametrize("blocks_V, blocks_W, dim_hom", [
    ((J(3, 2), J(1, 2)), (J(2, 2), J(2, 3)), 3), ((C1, C1), (C2,), 4),
    ((J(2, Fraction(1, 2)), C1), (C2, J(1, Fraction(1, 2)), J(3, Fraction(1, 2))), 5),
    ((J(2, 5),), (J(3, 6),), 0)])
def test_dim_hom_is_the_frobenius_count_of_the_elementary_divisors(blocks_V, blocks_W, dim_hom,
                                                                   form):
    # test_dim_end_is_the_frobenius_count_of_the_elementary_divisors for
    # Hom(V, W): sum over p of deg p * sum over i, j of min(k_i, l_j), in
    # both directions, as min is symmetric; D reverses Hom, so the dual
    # form has the same count
    to_form = (lambda V: V) if form == "tube" else qv.dual
    V = to_form(qv.conjugate(tube_module(*blocks_V), seed=7))
    W = to_form(qv.conjugate(tube_module(*blocks_W), seed=8))
    divisors_V, divisors_W = elementary_divisors(V), elementary_divisors(W)
    count = sum(d * min(k, l) for p, ks in divisors_V.items()
                for d, k in ks for _, l in divisors_W.get(p, []))
    assert count == dim_hom == len(qv.hom_basis(V, W)) == len(qv.hom_basis(W, V))


def oracle_pairs():
    """(V, W) pairs whose Hom the Sylvester route takes: plain and
    conjugated, equal operators, different lambda (Hom = 0), different n,
    a Fraction lambda, the companion of t^2 + 1, through embed_alpha and,
    in dual form, through embed_beta."""
    R, conj = cubics.rn_family, qv.conjugate
    half = R(3, Fraction(1, 2))
    alpha, beta = cubics.embed_alpha(R(3, -1)), cubics.embed_beta(R(3, 4))
    return {"R_3(2)": (R(3, 2), R(3, 2)),
            "R_3(2), seed 1": (conj(R(3, 2), 1), conj(R(3, 2), 1)),
            "R_3(2), seeds 1, 2": (conj(R(3, 2), 1), conj(R(3, 2), 2)),
            "R_2(1), R_2(3)": (conj(R(2, 1), 1), R(2, 3)),
            "R_4(1), R_2(1)": (R(4, 1), R(2, 1)), "R_2(1), R_4(1)": (R(2, 1), R(4, 1)),
            "R_3(1/2)": (half, conj(half, 2)),
            "C(t^2+1)^2, C(t^2+1)": (conj(tube_module(C1, C1), 1), tube_module(C1)),
            "alpha": (conj(alpha, 1), conj(alpha, 2)),
            "alpha, R_2(-1)": (cubics.embed_alpha(R(2, -1)), conj(alpha, 3)),
            "beta": (conj(beta, 1), conj(beta, 2)),
            "beta, R_4(4)": (conj(beta, 3), cubics.embed_beta(R(4, 4)))}


@pytest.mark.parametrize("name", list(oracle_pairs()))
def test_the_sylvester_route_gives_the_basis_of_the_system(monkeypatch, name):
    V, W = oracle_pairs()[name]
    tube_V, tube_W = qv._tube(V), qv._tube(W)
    assert tube_V.arrows == tube_W.arrows  # the route is taken
    got = qv.hom_basis(V, W)
    without_the_tube_route(monkeypatch)
    want = qv.hom_basis(V, W)
    assert [f.blocks for f in got] == [f.blocks for f in want]
    assert len(got) == 0 if name == "R_2(1), R_2(3)" else len(got) > 0


def test_a_lifted_morphism_that_fails_an_arrow_raises(monkeypatch):
    # the lift with Q = G_3^-1 P G_3 in place of G_3 P G_3^-1: the morphism
    # no longer intertwines along alpha2, and the route raises
    V = qv.conjugate(cubics.rn_family(2, 3), seed=1)
    lifts = qv._lifts

    def wrong(src, tgt):
        G3, G3_inv = tgt.E[1], src.E_inv[1]  # the frames at x_2
        return [{**f, "2": rl.matmul(G3_inv, rl.matmul(f["1"], G3))} for f in lifts(src, tgt)]

    monkeypatch.setattr(qv, "_lifts", wrong)
    with pytest.raises(ArithmeticError, match="fails the equations of arrow alpha2"):
        qv.hom_basis(V, V)


def test_one_bad_lift_of_several_fails_the_stacked_check(monkeypatch):
    # only the last of the three lifts of End(R_3(2)), conjugated, is off
    # Hom: I added at x_2 breaks alpha2 on every combination that draws on
    # it, and the one product per arrow side for the whole basis finds it
    V = qv.conjugate(cubics.rn_family(3, 2), seed=1)
    lifts = qv._lifts

    def wrong(src, tgt):
        *good, last = lifts(src, tgt)
        assert len(good) >= 2
        return [*good, {**last, "2": rl.mat_add(last["2"], rl.identity(3))}]

    monkeypatch.setattr(qv, "_lifts", wrong)
    with pytest.raises(ArithmeticError, match="fails the equations of arrow alpha2"):
        qv.hom_basis(V, V)


def test_a_bad_last_basis_element_fails_the_stacked_check(monkeypatch):
    # the restored basis with 1 added to entry (0, 0) of the last element's
    # block at x_2: the other elements intertwine, so the check must read
    # every block of the stacked products, not only the first
    V = qv.conjugate(cubics.rn_family(3, 2), seed=1)
    verts = V.bq.quiver.vertices
    at = sum(V.dims[v] ** 2 for v in verts[:verts.index("2")])
    kernel_form = rl.kernel_form

    def wrong(vectors, ncols):
        *good, (ints, den) = kernel_form(vectors, ncols)
        assert len(good) >= 2
        return [*good, ([x + den * (u == at) for u, x in enumerate(ints)], den)]

    monkeypatch.setattr(rl, "kernel_form", wrong)
    with pytest.raises(ArithmeticError, match="fails the equations of arrow alpha2"):
        qv.hom_basis(V, V)


@pytest.mark.parametrize("n, lam", [(1, 4), (2, 3), (3, Fraction(-5, 2)), (8, 7)])
def test_the_sylvester_rows_hold_no_zero_coefficient_and_no_empty_equation(n, lam):
    # P M - M P on M = J_n(lam): the coefficient lam - lam of P[i][j] in
    # equation (i, j) cancels, and the equation (n - 1, 0) is 0 = 0
    M = qv._tube(cubics.rn_family(n, lam)).M
    rows = []
    qv._equations(rows, M, M, 0, 0)
    # every equation, each with all n^2 coefficients, zeros kept
    full = []
    for i in range(n):
        for j in range(n):
            row = dict.fromkeys(range(n * n), 0)
            for k in range(n):
                row[i * n + k] += M.num[k][j]
                row[k * n + j] -= M.num[i][k]
            full.append(row)
    assert any(not any(row.values()) for row in full)
    assert all(rows) and all(all(row.values()) for row in rows)  # n = 1: no equation left
    assert rows == [{u: x for u, x in row.items() if x} for row in full if any(row.values())]
    assert rl.kernel_basis(rows, n * n) == rl.kernel_basis(full, n * n)
    assert len(rl.kernel_basis(rows, n * n)) == n  # the polynomials in M


def normal_form(tube, M):
    """N(M) on the quiver of tube.X, by the checked constructor: Q^n at each
    x_i, Q^2n at c and 0 elsewhere, [I; 0], [0; I], [I; I] and [I; M] on
    a_1..a_4 and 0 on every other arrow."""
    n, c = M.rows, tube.verts[4]
    I, Z = rl.identity(n), rl.zeros(n, n)
    dims = {v: 2 * n if v == c else n if v in tube.verts else 0 for v in tube.X.dims}
    maps = dict(zip(tube.arrows, (rl.vstack(I, Z), rl.vstack(Z, I), rl.vstack(I, I),
                                  rl.vstack(I, M))))
    return qv.Representation(tube.X.bq, dims, maps)


def framed_modules():
    """The planted modules in the four forms, plain and conjugated, and the
    modules of oracle_pairs."""
    planted = [to_form(P) for P in PLANTED.values() for to_form in FORMS.values()]
    return [*planted, *(qv.conjugate(V, 2) for V in planted),
            *(V for pair in oracle_pairs().values() for V in pair)]


def test_the_frames_carry_the_normal_form_onto_each_tube_module():
    # E: N(M) -> X passes RepMorphism's own intertwining check, E_v E_v^-1 = I,
    # and the part of each piece K that TubeForm.cut gives is N(M_K) itself
    cut = 0
    for V in framed_modules():
        tube = qv._tube(V)
        qv.RepMorphism(normal_form(tube, tube.M), tube.X, dict(zip(tube.verts, tube.E)))
        for v, E, E_inv in zip(tube.verts, tube.E, tube.E_inv):
            assert rl.matmul(E, E_inv) == rl.identity(tube.X.dims[v])
        pieces = qv._pieces(tube.M)
        if len(pieces) > 1:
            assert tube.cut(tube.X, pieces) == [normal_form(tube, qv._restricted(tube.M, K))
                                                for K in pieces]
            cut += 1
    assert cut == 49


def test_a_frame_at_c_without_diag_I_G3_fails_the_intertwining_check():
    # the mutant frame T = [W_a1 | W_a2] at c: W_a2 G_3 != T [0; I] once
    # G_3 != I, as on every conjugated planted module; where G_3 = I the
    # mutant is the frame itself
    mutants = 0
    for V in framed_modules():
        tube = qv._tube(V)
        a1, a2 = (tube.X.maps[name] for name in tube.arrows[:2])
        frames = {**dict(zip(tube.verts, tube.E)), tube.verts[4]: rl.hstack(a1, a2)}
        if tube.E[1] == rl.identity(tube.M.rows):
            assert frames[tube.verts[4]] == tube.E[4]
            continue
        with pytest.raises(ValueError, match=f"do not intertwine along arrow {tube.arrows[1]}$"):
            qv.RepMorphism(normal_form(tube, tube.M), tube.X, frames)
        mutants += 1
    assert mutants == 37


@pytest.mark.parametrize("form", ["tube", "dual"])
def test_tube_makes_four_inverses_and_at_most_eight_products(monkeypatch, form):
    # T, A_3, B_3 and A_4 are inverted; T^-1 W_a3 and T^-1 W_a4 are each
    # built once, and the products they save pay for E_c and E_c^-1
    V = qv.conjugate(cubics.rn_family(3, 2), seed=1)
    V = V if form == "tube" else qv.dual(V)
    calls = {"inverse": 0, "matmul": 0}
    for name in calls:
        def spy(*args, name=name, original=getattr(rl, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(rl, name, spy)
    assert qv._tube(V) is not None
    assert calls["inverse"] == 4 and calls["matmul"] <= 8, calls


@pytest.mark.parametrize("m", [4, 8])
def test_a_sum_of_equal_summands_is_cut_once(monkeypatch, m):
    # M = 5 I_m, one primary factor, not cyclic: _pieces gives all m cyclic
    # pieces at once, so one _tube and one _cut decide the node
    V = qv.conjugate(reduce(qv.direct_sum, [cubics.rn_family(1, 5)] * m), seed=1)
    calls = {"_cut": 0, "_tube": 0}
    for name in calls:
        def spy(*args, name=name, original=getattr(qv, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(qv, name, spy)
    got = qv.decompose_certified(V)
    assert calls == {"_cut": 1, "_tube": 1}
    assert [(W.dim_vector(), certified) for W, certified in got] == [((1, 1, 1, 1, 2), True)] * m
    monkeypatch.undo()
    without_the_tube_route(monkeypatch)
    alone = qv.decompose_certified(V)
    monkeypatch.undo()
    assert paired_up_to_isomorphism(got, [(W, True) for W, _ in alone])


def test_is_isomorphic_on_tube_sums_takes_four_sylvester_systems(monkeypatch):
    # all four hom spaces of is_isomorphic take the route: no system of
    # more than n_V n_W unknowns (22.3 s by the system, at 648 unknowns)
    R = cubics.rn_family
    triple = reduce(qv.direct_sum, [R(3, 0), R(3, 1), R(3, 5)])
    pair = qv.direct_sum(R(3, 5), R(3, 6))
    systems = spy_on_kernel_basis(monkeypatch)
    assert qv.is_isomorphic(qv.conjugate(triple, 1), qv.conjugate(triple, 2))
    assert [n for _, n in systems] == [81] * 4
    assert not qv.is_isomorphic(qv.conjugate(pair, 3), qv.conjugate(qv.direct_sum(R(3, 5), R(3, 7)), 4))
    assert not qv.is_isomorphic(qv.conjugate(pair, 3), qv.direct_sum(R(3, 5), R(3, 5)))
    assert max(n for _, n in systems) == 81


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
        f = tube(V)
        return f and qv.TubeForm(**{**vars(f), "M": rl.transpose(f.M)})
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
    assert tube.X == qv.dual(V) and tube.X.bq is V.bq.opposite()
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
    assert qv._tube(V).X == DV and qv._tube(DV).X is DV  # dual form, tube form
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


def big_sum(alphas, betas, seed):
    """embed_alpha of the sum of the R_n(lambda) for (n, lambda) in alphas
    plus embed_beta of that for betas, conjugated at seed."""
    def side(pairs):
        return reduce(qv.direct_sum, [cubics.rn_family(n, lam) for n, lam in pairs])
    return qv.conjugate(qv.direct_sum(cubics.embed_alpha(side(alphas)),
                                      cubics.embed_beta(side(betas))), seed)


#: (alphas, betas) of big_sum: the two benchmark kinds, a lambda repeated
#: across the sides and within one (whose M = 5 I is not cyclic), two R on
#: one side or on both, and Fraction parameters
SEPARATED_SUMS = [([(1, 0)], [(1, 3)]), ([(2, 5)], [(2, -7)]), ([(2, 3)], [(2, 3)]),
                  ([(1, 5), (1, 5)], [(1, 5)]), ([(1, 0), (2, 1)], [(1, 2), (1, -1)]),
                  ([(2, Fraction(1, 2))], [(1, Fraction(-3, 2)), (1, 4)])]


@pytest.mark.parametrize("seed", [0, 1, 6])
@pytest.mark.parametrize("alphas, betas", SEPARATED_SUMS)
def test_the_separated_parts_give_the_summands_of_the_old_route(monkeypatch, alphas, betas, seed):
    # the cut gives the alpha part in tube form (its _tube reads X = P) and
    # the beta part in dual form (X = D(P)), so V takes no peel; the summands
    # are those of the peel and the split search
    V = big_sum(alphas, betas, seed)
    a, b = (sum(n for n, _ in side) for side in (alphas, betas))
    assert [(P.dim_vector(), form.X is P) for P, form in qv._separate(V)] == [
        ((a, a, a, a, 2 * a), True), ((b, b, b, b, 2 * b), False)]
    peels = spy_on(monkeypatch, "_peel")
    got = qv.decompose_certified(V)
    assert peels == []
    without_the_separated_parts(monkeypatch)
    want = qv.decompose_certified(V)
    assert peels == [V.dim_vector()]
    assert sorted((W.dim_vector(), c) for W, c in got) == sorted((W.dim_vector(), c) for W, c in want)
    assert paired_up_to_isomorphism(got, want)
    assert len(got) == len(alphas) + len(betas)


def cuts_in_separate(monkeypatch):
    """One (cut, taken) pair per later call of quiver._separate: cut is "cut"
    when it called _cut and None otherwise, taken whether it returned parts."""
    seen = []
    separate, cut = qv._separate, qv._cut

    def spy_cut(V, bases):
        if seen and seen[-1] is None:
            seen[-1] = "cut"
        return cut(V, bases)

    def spy(V):
        seen.append(None)
        out = separate(V)
        seen[-1] = (seen[-1], out is not None)
        return out

    monkeypatch.setattr(qv, "_cut", spy_cut)
    monkeypatch.setattr(qv, "_separate", spy)
    return seen


def declining_sums():
    """(name, V, cut), V conjugated: embed_alpha(R_2(1)) + embed_beta(R_1(4))
    with P_1 (every arrow nonzero, so the arrow pattern passes, but
    beta_2 alpha_1 != 0), with S_5 or with M_alpha1 (cut, then a part is in
    neither form), and a two_vertex_pair module (components of one arrow);
    cut says whether the cut is made."""
    big = cubics.build("big_component")
    two = cubics.build("two_vertex_pair")
    base = qv.direct_sum(cubics.embed_alpha(cubics.rn_family(2, 1)),
                         cubics.embed_beta(cubics.rn_family(1, 4)))
    return [("P_1", qv.conjugate(qv.direct_sum(base, big.projective("1")), 2), False),
            ("S_5", qv.conjugate(qv.direct_sum(base, big.simple("5")), 2), True),
            ("M_alpha1", qv.conjugate(qv.direct_sum(base, big.arrow_module("alpha1")), 2), True),
            ("two_vertex_pair", qv.conjugate(reduce(qv.direct_sum, [
                two.projective("1"), two.projective("2"), two.simple("1")]), 2), False)]


@pytest.mark.parametrize("case", range(4))
def test_the_separation_declines_where_a_part_is_not_in_either_form(monkeypatch, case):
    # a declined root takes the peel and the split search exactly as with
    # the separation switched off: the same summands, in the same order
    name, V, cut = declining_sums()[case]
    if name == "P_1":
        assert len(qv._nonzero_arrows(V)) == 8
        assert not rl.is_zero(V.path_matrix(("alpha1", "beta2")))
    seen = cuts_in_separate(monkeypatch)
    got = qv.decompose_certified(V)
    assert seen == [("cut" if cut else None, False)]
    without_the_separated_parts(monkeypatch)
    assert qv.decompose_certified(V) == got
    assert all(certified for _, certified in got)


def test_a_declined_separation_keeps_the_peel_order():
    # S_5 and M_alpha1 on a separable sum: the root declines, and the peel
    # takes them off first, the simple then the arrow module
    big = cubics.build("big_component")
    S5, M = big.simple("5"), big.arrow_module("alpha1")
    cases = {"big_component": (lambda bq: [M, cubics.embed_alpha(cubics.rn_family(2, 1)), S5,
                                           cubics.embed_beta(cubics.rn_family(1, 4))],
                               ["5"], ["alpha1"])}
    check_the_peel("big_component", cases, seed=5)


def test_the_verify_samples_never_reach_the_cut(monkeypatch):
    # the separation declines on every root of both classification checks
    # at the verify seed, before any cut, so their route is the old one
    seen = cuts_in_separate(monkeypatch)
    cubics.check_tame_classification(100, 0)
    cubics.check_two_vertex_component(50, 0)
    assert len(seen) > 100 and set(seen) == {(None, False)}


def calls_of(monkeypatch, *names):
    """The first argument of every later call of quiver.<name>, by name."""
    seen = {name: [] for name in names}
    for name in names:
        def spy(first, *rest, name=name, original=getattr(qv, name)):
            seen[name].append(first)
            return original(first, *rest)
        monkeypatch.setattr(qv, name, spy)
    return seen


def test_each_benchmark_sum_comes_apart_into_its_planted_summands(monkeypatch):
    # the sums are block diagonal, so the coefficient quiver cuts each into
    # the two modules it was built from, Mat for Mat, before any linear
    # algebra; each part is in tube or dual form, and its M certifies it
    ops = sorted(benchmark_ops())
    assert {kind for kind, *_ in ops} == {"d4hat", "big_component"}
    for kind, n, lam, mu in ops:
        planted = [cubics.rn_family(n, lam), cubics.rn_family(n, mu)]
        if kind == "big_component":
            planted = [cubics.embed_alpha(planted[0]), cubics.embed_beta(planted[1])]
        V = benchmark_sum(kind, n, lam, mu)
        seen = calls_of(monkeypatch, "_tube", "_separate", "hom_basis", "_peel")
        assert qv.decompose_certified(V) == [(X, True) for X in planted]
        assert seen == {"_tube": planted, "_separate": [], "hom_basis": [], "_peel": []}
        monkeypatch.undo()


def test_a_one_dimensional_component_is_a_certified_leaf_with_no_peel(monkeypatch):
    # S_1 beside R_1(2) on d4hat, and S_5 beside α(R_2(0)) on big_component:
    # the simple is a component of one node, End = Q; the other part takes
    # the tube route, so neither meets the peel, which the sum taken whole
    # would run
    d4, big = cubics.build("d4hat"), cubics.build("big_component")
    for X, S in ((cubics.rn_family(1, 2), d4.simple("1")),
                 (cubics.embed_alpha(cubics.rn_family(2, 0)), big.simple("5"))):
        V = qv.direct_sum(X, S)
        seen = calls_of(monkeypatch, "_peel", "hom_basis", "_tube")
        assert qv.decompose_certified(V) == [(X, True), (S, True)]
        assert seen == {"_peel": [], "hom_basis": [], "_tube": [X]}
        without_the_coordinate_parts(monkeypatch)
        assert qv.decompose_certified(V) == [(S, True), (X, True)]
        assert len(seen["_peel"]) == 1
        monkeypatch.undo()
