"""A bounded property net for the generic quiver engine.

Hypothesis draws bound quivers with 2-4 vertices of four kinds (acyclic,
rad^2 = 0, monomial length-2 relations, and commutative squares) and,
on each, a module: the cokernel of a random map between small sums of
projectives or the kernel of one between small sums of injectives, or
the direct sum of two such, of total dimension at most 14, conjugated so
that its summands are not visible in the basis.  The properties check
the decomposition (and that a second conjugation gives the same
summands up to isomorphism), the duality, the file round trip, the
kernel and cokernel of an endomorphism and the path basis (through
Yoneda: Hom(P_x, V) and Hom(V, I_x) both have dimension dim V_x).  The
runs are derandomized, with no example database and a bounded number of
examples, so they are the same on every run.
"""

import json
from fractions import Fraction
from functools import reduce

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from binarycubics import quiver as qv
from binarycubics import ratlinalg as rl

KINDS = ("acyclic", "rad2", "monomial", "commutative")
MAX_DIM = 14

NET = settings(max_examples=60, derandomize=True, database=None, deadline=None,
               suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


@st.composite
def bound_quivers(draw):
    """A bound quiver of one of KINDS; a draw whose relations leave it
    non-admissible is rejected."""
    kind = draw(st.sampled_from(KINDS))
    square = kind == "commutative"
    vertices = tuple(str(v) for v in range(1, draw(st.integers(2 + square, 4)) + 1))
    acyclic = kind in ("acyclic", "commutative")
    ends = [(x, y) for x in vertices for y in vertices if not acyclic or x < y]
    drawn = draw(st.lists(st.sampled_from(ends), min_size=0 if square else len(vertices) - 1,
                          max_size=1 if square else 5))
    if square:  # 1 -> 2 -> n and 1 -> m -> n, m = n - 1 (with n = 3, both run through 2)
        m, n = vertices[-2:]
        drawn = [("1", "2"), ("1", m), ("2", n), (m, n)] + drawn
    arrows = tuple(qv.Arrow(f"a{k}", x, y) for k, (x, y) in enumerate(drawn))
    twos = [(a, b) for a in arrows for b in arrows if a.target == b.source]
    names = [(a.name, b.name) for a, b in twos]
    if kind == "acyclic":
        relations = ()
    elif kind == "rad2":
        relations = qv.monomial_relations(names)
    elif kind == "monomial":
        relations = qv.monomial_relations(
            draw(st.lists(st.sampled_from(names), unique=True)) if names else [])
    else:  # p + c q on consecutive parallel length-2 paths, c = -1 or 2
        parallel = {}
        for a, b in twos:
            parallel.setdefault((a.source, b.target), []).append((a.name, b.name))
        relations = tuple(((Fraction(1), p), (Fraction(draw(st.sampled_from((-1, 2)))), q))
                          for paths in parallel.values() for p, q in zip(paths, paths[1:]))
    bq = qv.BoundQuiver(qv.Quiver(vertices, arrows), relations)
    try:
        bq.path_basis()
    except qv.NonAdmissibleError:
        reject()
    return bq


def _sum_of(build, xs):
    return reduce(qv.direct_sum, [build(x) for x in xs])


def _random_morphism(draw, P, Q):
    """A random integer combination, coefficients in [-2, 2], of the Hom
    basis from P to Q."""
    basis = qv.hom_basis(P, Q)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    blocks = {v: reduce(rl.mat_add, (rl.scale(f.blocks[v], c) for f, c in zip(basis, coeffs)),
                        rl.zeros(Q.dims[v], P.dims[v]))
              for v in P.bq.quiver.vertices}
    return qv.RepMorphism(P, Q, blocks)


def _cokernel(draw, bq):
    """The cokernel of a random map from a sum of 1-2 projectives to a sum
    of 1-3, of dimension at most MAX_DIM."""
    vertices = st.sampled_from(bq.quiver.vertices)
    P = _sum_of(bq.projective, draw(st.lists(vertices, min_size=1, max_size=2)))
    Q = _sum_of(bq.projective, draw(st.lists(vertices, min_size=1, max_size=3)))
    if Q.total_dim() > MAX_DIM:
        reject()
    return qv.cokernel(_random_morphism(draw, P, Q))[0]


def _kernel(draw, bq):
    """The kernel of a random map from a sum of 1-3 injectives to a sum of
    1-2, of dimension at most MAX_DIM."""
    vertices = st.sampled_from(bq.quiver.vertices)
    I = _sum_of(bq.injective, draw(st.lists(vertices, min_size=1, max_size=3)))
    J = _sum_of(bq.injective, draw(st.lists(vertices, min_size=1, max_size=2)))
    if I.total_dim() > MAX_DIM:
        reject()
    return qv.kernel(_random_morphism(draw, I, J))[0]


@st.composite
def modules(draw):
    """A cokernel or a kernel, or the direct sum of two, on a drawn bound
    quiver, of total dimension 1 to MAX_DIM and conjugated by a drawn seed."""
    bq = draw(bound_quivers())
    source = draw(st.sampled_from((_cokernel, _kernel)))
    V = source(draw, bq)
    if draw(st.booleans()):
        V = qv.direct_sum(V, draw(st.sampled_from((_cokernel, _kernel)))(draw, bq))
    if not 0 < V.total_dim() <= MAX_DIM:
        reject()
    return qv.conjugate(V, draw(st.integers(0, 99)))


@NET
@given(modules())
def test_the_summands_add_up_to_v_and_their_sum_is_isomorphic_to_v(V):
    parts = [W for W, _ in qv.decompose_certified(V)]
    assert all(W.total_dim() > 0 for W in parts)
    assert tuple(map(sum, zip(*(W.dim_vector() for W in parts)))) == V.dim_vector()
    assert qv.is_isomorphic(reduce(qv.direct_sum, parts), V)


@NET
@given(modules())
def test_duality_is_an_involution_and_a_file_reads_back(V):
    assert qv.dual(qv.dual(V)) == V
    data = json.loads(json.dumps(qv.rep_to_dict(V)))
    assert data["quiver"] == qv.quiver_to_dict(V.bq)  # an unnamed quiver is written inline
    back = qv.rep_from_dict(data)
    assert back.dims == V.dims and back.maps == V.maps
    assert qv.quiver_to_dict(back.bq) == qv.quiver_to_dict(V.bq)


@NET
@given(modules())
def test_hom_from_a_projective_and_into_an_injective_counts_dim_v_x(V):
    for x in V.bq.quiver.vertices:
        assert len(qv.hom_basis(V.bq.projective(x), V)) == V.dims[x]
        assert len(qv.hom_basis(V, V.bq.injective(x))) == V.dims[x]


def _unmatched(got, want):
    """The summands of want that no summand of got pairs with, one to one,
    up to isomorphism."""
    unpaired = list(want)
    for W in got:
        match = next((i for i, X in enumerate(unpaired) if X.dim_vector() == W.dim_vector()
                      and qv.is_isomorphic(W, X)), None)
        if match is None:
            return [W]
        unpaired.pop(match)
    return unpaired


@NET
@given(modules(), st.integers(0, 99))
def test_a_second_conjugation_gives_the_same_summands(V, seed):
    got = [W for W, _ in qv.decompose_certified(V)]
    again = [W for W, _ in qv.decompose_certified(qv.conjugate(V, seed))]
    assert len(got) == len(again) and _unmatched(got, again) == []


@st.composite
def block_sums(draw):
    """The direct sum of two nonzero cokernels or kernels on a drawn bound
    quiver, in block form and of total dimension at most MAX_DIM."""
    bq = draw(bound_quivers())
    X, Y = [draw(st.sampled_from((_cokernel, _kernel)))(draw, bq) for _ in range(2)]
    if not (X.total_dim() and Y.total_dim() and X.total_dim() + Y.total_dim() <= MAX_DIM):
        reject()
    return qv.direct_sum(X, Y)


def _paired_into(got, want):
    """Whether each summand of want pairs with its own summand of got, up
    to isomorphism."""
    unpaired = list(got)
    for X in want:
        match = next((i for i, W in enumerate(unpaired) if W.dim_vector() == X.dim_vector()
                      and qv.is_isomorphic(W, X)), None)
        if match is None:
            return False
        unpaired.pop(match)
    return True


@NET
@given(block_sums(), st.integers(0, 99))
def test_a_sum_in_block_form_gives_the_summands_of_its_conjugate(V, seed):
    # the block sum is cut along its coefficient quiver, its conjugate is
    # taken whole; every summand the conjugate certifies is matched by a
    # certified one
    assert qv._coordinate_parts(V) is not None
    got = qv.decompose_certified(V)
    again = qv.decompose_certified(qv.conjugate(V, seed))
    assert len(got) == len(again) and _unmatched([W for W, _ in got], [W for W, _ in again]) == []
    assert _paired_into([W for W, c in got if c], [W for W, c in again if c])


@NET
@given(st.data())
def test_an_endomorphism_has_a_kernel_and_a_cokernel_of_one_dimension(data):
    V = data.draw(modules())
    f = _random_morphism(data.draw, V, V)
    (K, incl), (C, proj) = qv.kernel(f), qv.cokernel(f)
    assert K.dim_vector() == C.dim_vector()
    rank = sum(rl.rank(f.blocks[v]) for v in V.bq.quiver.vertices)
    assert K.total_dim() == V.total_dim() - rank
    for v in V.bq.quiver.vertices:
        assert rl.is_zero(rl.matmul(f.blocks[v], incl.blocks[v]))
        assert rl.is_zero(rl.matmul(proj.blocks[v], f.blocks[v]))
