"""Quiver engine tests: path bases, projectives/injectives, hom spaces,
kernels/cokernels, endomorphism algebras and decomposition."""

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import sympy

from binarycubics import cubics
from binarycubics import quiver as qv
from binarycubics import ratlinalg as rl


def loop_quiver():
    q = qv.Quiver(("1",), (qv.Arrow("a", "1", "1"),))
    return q


def exterior_algebra():
    """Λ(Q^2): one vertex, loops a and b, relations a^2, b^2 and ab + ba."""
    q = qv.Quiver(("1",), (qv.Arrow("a", "1", "1"), qv.Arrow("b", "1", "1")))
    one = Fraction(1)
    rels = (((one, ("a", "a")),), ((one, ("b", "b")),),
            ((one, ("a", "b")), (one, ("b", "a"))))
    return q, rels


def small_big_component_rep(rng, max_outer, max_center):
    """A random big-component representation drawn like
    cubics.random_big_component_rep, with outer dimensions in
    [0, max_outer] and the center one in [0, max_center]."""
    dims = {str(i): rng.randint(0, max_outer) for i in (1, 2, 3, 4)}
    dims["5"] = rng.randint(0, max_center)
    side = "alpha" if rng.random() < 0.5 else "beta"
    return cubics._complete(rng, cubics.build("big_component"), dims,
                            {f"{side}{i}" for i in (1, 2, 3, 4)})


class TestPathBasis:
    def test_two_vertex_algebra_has_dimension_four(self):
        bq = cubics.build("two_vertex_pair")
        pb = bq.path_basis()
        assert pb.dimension() == 4
        assert pb.paths("1", "1") == [()]
        assert pb.paths("1", "2") == [("a",)]
        assert pb.paths("2", "1") == [("b",)]

    def test_paper_full_unique_path_e_to_s(self):
        pb = cubics.build("paper_full").path_basis()
        assert pb.paths("e", "s") == [("alpha3", "beta1")]
        assert pb.paths("s", "e") == [("alpha1", "beta3")]
        assert pb.paths("d0", "s") == []
        assert pb.paths("q0", "e") == []

    def test_no_arrow_quiver_has_trivial_paths_only(self):
        q = qv.Quiver(("x", "y"), ())
        bq = qv.BoundQuiver(q)
        pb = bq.path_basis()
        assert pb.dimension() == 2
        assert pb.paths("x", "x") == [()]
        assert pb.paths("x", "y") == []

    def test_loop_without_relations_is_not_admissible(self):
        bq = qv.BoundQuiver(loop_quiver())
        with pytest.raises(qv.NonAdmissibleError):
            bq.path_basis()

    def test_loop_with_nilpotency_relation(self):
        bq = qv.BoundQuiver(loop_quiver(), qv.monomial_relations([("a", "a")]))
        assert bq.path_basis().dimension() == 2  # e_1 and a

    def test_linear_relation_reduces_a_path(self):
        # two parallel 2-step routes identified: x --a--> y --c--> z = x --b--> y --c--> z
        q = qv.Quiver(
            ("x", "y", "z"),
            (qv.Arrow("a", "x", "y"), qv.Arrow("b", "x", "y"), qv.Arrow("c", "y", "z")),
        )
        rel = ((Fraction(1), ("a", "c")), (Fraction(-1), ("b", "c")))
        bq = qv.BoundQuiver(q, (rel,), max_path_length=4)
        pb = bq.path_basis()
        assert len(pb.paths("x", "z")) == 1
        reduced = pb.reduce(("a", "c"))
        assert reduced == ((Fraction(1), ("b", "c")),)

    def test_exterior_algebra_needs_a_larger_bound(self):
        # ba survives at length 2, the default bound
        q, rels = exterior_algebra()
        one = Fraction(1)
        with pytest.raises(qv.NonAdmissibleError,
                           match="remain at length 2, the max_path_length bound"):
            qv.BoundQuiver(q, rels).path_basis()
        pb = qv.BoundQuiver(q, rels, max_path_length=3).path_basis()
        assert pb.paths("1", "1") == [(), ("a",), ("b",), ("b", "a")]
        assert pb.reduce(("a", "b")) == ((-one, ("b", "a")),)

    @pytest.mark.parametrize("bound, error, message", [
        (0, ValueError, "max_path_length 0 is not positive"),
        (-3, ValueError, "max_path_length -3 is not positive"),
        (True, TypeError, "True is not an integer"),
        (2.0, TypeError, "2.0 is not an integer"),
        ("3", TypeError, "'3' is not an integer"),
    ])
    def test_max_path_length_must_be_a_positive_integer(self, bound, error, message):
        # rejected on construction, not on path_basis, also without arrows
        for q in (qv.Quiver(("x",), ()), loop_quiver()):
            with pytest.raises(error, match=message):
                qv.BoundQuiver(q, max_path_length=bound)
        point = qv.BoundQuiver(qv.Quiver(("x",), ()), max_path_length=np.int64(1))
        assert point.bound == 1 and type(point.bound) is int
        assert point.path_basis().dimension() == 1

    def test_inhomogeneous_relation_rejected(self):
        q = qv.Quiver(("x",), (qv.Arrow("a", "x", "x"),))
        rel = ((Fraction(1), ("a", "a")), (Fraction(-1), ("a", "a", "a")))
        with pytest.raises(ValueError):
            qv.BoundQuiver(q, (rel,))


class TestStandardModules:
    def test_simple_is_projective_and_injective_at_isolated_vertex(self):
        pf = cubics.build("paper_full")
        for v in ("g2", "g3", "g4", "q1", "q2"):
            s, p, i = pf.simple(v), pf.projective(v), pf.injective(v)
            assert s.dim_vector() == p.dim_vector() == i.dim_vector()
            assert qv.is_isomorphic(s, p) and qv.is_isomorphic(s, i)

    def test_injective_dimension_vectors(self):
        pf = cubics.build("paper_full")
        assert {v: d for v, d in pf.injective("s").dims.items() if d} == {"s": 1, "p": 1, "e": 1}
        assert {v: d for v, d in pf.injective("q0").dims.items() if d} == {"q0": 1, "p": 1, "d0": 1}
        assert {v: d for v, d in pf.injective("g1").dims.items() if d} == {"g1": 1, "d1": 1}
        assert {v: d for v, d in pf.injective("p").dims.items() if d} == {
            "p": 1, "s": 1, "d0": 1, "e": 1, "q0": 1}

    def test_projectivity_yoneda_property(self):
        # dim Hom(P^x, V) == dim V_x for any V
        bc = cubics.build("big_component")
        rng = random.Random(11)
        for _ in range(4):
            V = small_big_component_rep(rng, 2, 3)
            for x in bc.quiver.vertices:
                assert len(qv.hom_basis(bc.projective(x), V)) == V.dims[x]

    def test_hom_between_simples(self):
        bc = cubics.build("big_component")
        s1, s2 = bc.simple("1"), bc.simple("2")
        assert len(qv.hom_basis(s1, s1)) == 1
        assert len(qv.hom_basis(s1, s2)) == 0

    @pytest.mark.parametrize("query", [
        lambda bq: bq.simple("zz"),
        lambda bq: bq.projective("zz"),
        lambda bq: bq.injective("zz"),
        lambda bq: bq.arrow_count("zz", "1"),
        lambda bq: bq.arrow_count("1", "zz"),
        lambda bq: bq.path_basis().paths("zz", "1"),
        lambda bq: bq.path_basis().paths("1", "zz"),
    ], ids=["simple", "projective", "injective", "ext1-source", "ext1-target",
            "paths-source", "paths-target"])
    def test_unknown_vertex_raises_key_error(self, query):
        with pytest.raises(KeyError, match="unknown vertex 'zz'"):
            query(cubics.build("big_component"))

    def test_relation_naming_an_unknown_arrow_raises_key_error(self):
        q = qv.Quiver(("1", "2"), (qv.Arrow("a", "1", "2"),))
        with pytest.raises(KeyError, match="unknown arrow 'zz'"):
            qv.BoundQuiver(q, qv.monomial_relations([("a", "zz")]))


def injective_by_left_concatenation(bq, x):
    """The injective envelope of the simple at x on a second route: the duals
    of the paths into x, an arrow a acting by the transpose of left
    concatenation p -> a p, reduced in bq's own path basis."""
    pb = bq.path_basis()
    into = {y: pb.paths(y, x) for y in bq.quiver.vertices}
    maps = {}
    for a in bq.quiver.arrows:
        src, tgt = into[a.target], into[a.source]
        row = {p: i for i, p in enumerate(tgt)}
        M = [[0] * len(src) for _ in tgt]
        for j, p in enumerate(src):
            for coeff, bp in pb.reduce((a.name,) + p):
                M[row[bp]][j] += coeff
        maps[a.name] = rl.transpose(rl.mat(M, len(tgt), len(src)))
    return qv.Representation(bq, {y: len(ps) for y, ps in into.items()}, maps)


def commutative_square():
    """x -> y -> w and x -> z -> w, bound by the two-term relation ab - cd."""
    q = qv.Quiver(("x", "y", "z", "w"), (qv.Arrow("a", "x", "y"), qv.Arrow("b", "y", "w"),
                                         qv.Arrow("c", "x", "z"), qv.Arrow("d", "z", "w")))
    return qv.BoundQuiver(q, (((Fraction(1), ("a", "b")), (Fraction(-1), ("c", "d"))),))


def two_loops():
    """One vertex, loops a and b, relations a^2, b^2 and ab: the path ba
    survives, so a relation left unreversed on the opposite is still a path."""
    q = qv.Quiver(("1",), (qv.Arrow("a", "1", "1"), qv.Arrow("b", "1", "1")))
    return qv.BoundQuiver(q, qv.monomial_relations([("a", "a"), ("b", "b"), ("a", "b")]),
                          max_path_length=3)


def duality_samples(rng):
    """Representations of the four named quivers and of the two inline ones
    above: every projective and injective, a random representation of each
    named quiver, and the commutative square with every arrow 1."""
    for bq in [cubics.build(name) for name in cubics.NAMED_QUIVERS] + [
            commutative_square(), two_loops()]:
        for v in bq.quiver.vertices:
            yield bq.projective(v)
            yield bq.injective(v)
        if bq.name:
            free = {a.name for a in bq.quiver.arrows if a.name.startswith(("a", "gamma"))}
            dims = {v: rng.randint(0, 2) for v in bq.quiver.vertices}
            yield cubics._complete(rng, bq, dims, free)
    square = commutative_square()
    yield qv.Representation(square, dict.fromkeys(square.quiver.vertices, 1),
                            dict.fromkeys("abcd", [[1]]))


class TestDuality:
    def test_opposite_is_built_once_and_reverses_arrows_and_relations(self):
        bq = commutative_square()
        op = bq.opposite()
        assert op is bq.opposite() and op.opposite() is bq
        assert op.name == "" and op.bound == bq.bound
        assert [(a.name, a.source, a.target) for a in op.quiver.arrows] == [
            ("a", "y", "x"), ("b", "w", "y"), ("c", "z", "x"), ("d", "w", "z")]
        assert op.relations == (((Fraction(1), ("b", "a")), (Fraction(-1), ("d", "c"))),)
        pf = cubics.build("paper_full")
        assert pf.opposite().vertex_labels == pf.vertex_labels

    def test_dual_is_an_involution(self):
        for V in duality_samples(random.Random(3)):
            DV = qv.dual(V)
            assert DV.bq is V.bq.opposite()
            assert qv.dual(DV).bq is V.bq
            assert qv.dual(DV) == V

    def test_dual_satisfies_the_relations_of_the_opposite(self):
        """dual skips Representation's checks; the checked constructor accepts
        every D(V), so the relations hold as its docstring proves."""
        count = 0
        for V in duality_samples(random.Random(4)):
            DV = qv.dual(V)
            checked = qv.Representation(DV.bq, DV.dims, DV.maps)
            assert (checked.dims, checked.maps) == (DV.dims, DV.maps)
            count += 1
        # a projective and an injective at each of the 26 + 4 + 1 vertices, one
        # random representation per named quiver, and the square of ones
        assert count == 2 * (26 + 4 + 1) + 4 + 1

    def test_an_unreversed_relation_fails_on_the_dual(self):
        # the check above has teeth: on two_loops, V(ab) = 0 but V(ba) != 0
        bq = two_loops()
        P = bq.projective("1")
        assert rl.is_zero(P.path_matrix(("a", "b"))) and not rl.is_zero(P.path_matrix(("b", "a")))
        op = bq.opposite()
        unreversed = qv.BoundQuiver(op.quiver, bq.relations, bq.bound)
        DP = qv.dual(P)
        with pytest.raises(ValueError, match="is violated"):
            qv.Representation(unreversed, DP.dims, DP.maps)

    def test_hom_dimensions_match_under_duality(self):
        rng = random.Random(17)
        nonzero = 0
        for _ in range(10):
            V = small_big_component_rep(rng, 2, 3)
            W = small_big_component_rep(rng, 2, 3)
            dim = len(qv.hom_basis(V, W))
            assert dim == len(qv.hom_basis(qv.dual(W), qv.dual(V)))
            nonzero += dim > 0
        assert nonzero > 0

    def test_summands_of_the_dual_are_the_duals_of_the_summands(self):
        rng = random.Random(23)
        for _ in range(8):
            V = small_big_component_rep(rng, 2, 4)
            dual_summands = [qv.dual(S) for S, _ in qv.decompose_certified(V)]
            summands = [T for T, _ in qv.decompose_certified(qv.dual(V))]
            assert len(summands) == len(dual_summands)
            for T in summands:  # isomorphism is an equivalence, so a greedy match is a matching
                match = next(i for i, S in enumerate(dual_summands) if qv.is_isomorphic(T, S))
                dual_summands.pop(match)

    def test_injective_is_the_transpose_of_left_concatenation(self):
        count = 0
        for name in cubics.NAMED_QUIVERS:
            bq = cubics.build(name)
            for v in bq.quiver.vertices:
                assert bq.injective(v) == injective_by_left_concatenation(bq, v), (name, v)
                count += 1
        assert count == 26


class TestRelationData:
    def test_relations_validated_once_per_bound_quiver(self, monkeypatch):
        # validation walks every path of every relation, once
        calls = []
        vertices = qv._path_vertices
        monkeypatch.setattr(qv, "_path_vertices",
                            lambda quiver, path: calls.append(path) or vertices(quiver, path))
        q = qv.Quiver(("1", "2"), (qv.Arrow("a", "1", "2"), qv.Arrow("b", "2", "1")))
        bq = qv.BoundQuiver(q, qv.monomial_relations([("a", "b"), ("b", "a")]))
        bq.path_basis()
        bq.projective("1")
        qv.Representation(bq, {"1": 1, "2": 1}, {"a": [[1]]})
        assert calls == [("a", "b"), ("b", "a")]

    def test_ends_and_zero_paths_kept(self):
        q = qv.Quiver(("1", "2", "3"), (qv.Arrow("a", "1", "2"), qv.Arrow("b", "2", "3"),
                                        qv.Arrow("c", "1", "2"), qv.Arrow("d", "2", "3")))
        one = Fraction(1)
        rels = (((one, ("a", "b")),), ((one, ("a", "d")), (-one, ("c", "b"))))
        bq = qv.BoundQuiver(q, rels)
        assert bq.relation_ends == (("1", "3"), ("1", "3"))
        assert bq.zero_paths == {("a", "b")}
        # ad = cb: of the four paths 1 -> 3, ab dies and ad, cb are one class
        assert len(bq.path_basis().paths("1", "3")) == 2
        with pytest.raises(ValueError, match="relation .* is violated"):
            qv.Representation(bq, {"1": 1, "2": 1, "3": 1}, {"a": [[1]], "b": [[1]]})

    def test_a_term_through_a_zero_vertex_is_an_exact_zero(self):
        # ab = cd: the term cd passes vertex 4, ab does not
        q = qv.Quiver(("1", "2", "3", "4"), (qv.Arrow("a", "1", "2"), qv.Arrow("b", "2", "3"),
                                             qv.Arrow("c", "1", "4"), qv.Arrow("d", "4", "3")))
        one = Fraction(1)
        bq = qv.BoundQuiver(q, (((one, ("a", "b")), (-one, ("c", "d"))),))
        dims = {"1": 1, "2": 1, "3": 1, "4": 0}
        qv.Representation(bq, dims, {"a": [[1]]})
        # the term through 4 is zero, and the other is still checked: ab = 1 is not cd = 0
        with pytest.raises(ValueError, match="relation .* is violated"):
            qv.Representation(bq, dims, {"a": [[1]], "b": [[1]]})
        qv.Representation(bq, {"1": 1, "2": 0, "3": 1, "4": 0}, {})
        # both terms live: ab = cd = 1 holds, so each term is multiplied and subtracted
        ones = {name: [[1]] for name in "abcd"}
        qv.Representation(bq, dict.fromkeys(q.vertices, 1), ones)
        with pytest.raises(ValueError, match="relation .* is violated"):
            qv.Representation(bq, dict.fromkeys(q.vertices, 1), {**ones, "d": [[2]]})


def dense_hom_basis(V, W):
    """Hom(V, W) as flattened block vectors, from the intertwining system
    written out as one dense rows x unknowns Fraction matrix."""
    verts = V.bq.quiver.vertices
    offs, total = {}, 0
    for v in verts:
        offs[v] = total
        total += V.dims[v] * W.dims[v]
    rows = []
    for a in V.bq.quiver.arrows:
        x, y = a.source, a.target
        Va, Wa = V.maps[a.name], W.maps[a.name]
        for i in range(W.dims[y]):
            for j in range(V.dims[x]):
                row = [Fraction(0)] * total
                for k in range(V.dims[y]):
                    row[offs[y] + i * V.dims[y] + k] += Va[k][j]
                for k in range(W.dims[x]):
                    row[offs[x] + k * V.dims[x] + j] -= Wa[i][k]
                rows.append(row)
    return [list(row) for row in rl.nullspace(rl.mat(rows, len(rows), total))]


def random_square_zero(rng, d):
    """A d x d matrix N with N @ N = 0 and, generically, a nonzero diagonal."""
    J = [[0] * d for _ in range(d)]
    for i in range(0, d - 1, 2):
        J[i][i + 1] = rng.randint(1, 3)
    J = rl.mat(J, d, d)
    T = None
    while T is None or rl.inverse(T) is None:
        T = rl.mat([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
                    for _ in range(d)])
    return rl.matmul(rl.matmul(T, J), rl.inverse(T))


class TestHomBasis:
    def assert_matches_dense_solve(self, V, W):
        basis = qv.hom_basis(V, W)
        assert [_flatten(f) for f in basis] == dense_hom_basis(V, W)
        for f in basis:
            qv.RepMorphism(V, W, f.blocks)  # the public check passes

    def test_loop_with_square_zero_relation(self):
        # source == target: both terms of an equation can land on one unknown
        bq = qv.BoundQuiver(loop_quiver(), qv.monomial_relations([("a", "a")]))
        rng = random.Random(41)
        reps = [qv.Representation(bq, {"1": d}, {"a": random_square_zero(rng, d)})
                for d in (1, 2, 3, 4, 4, 5)]
        assert any(V.maps["a"][i][i] for V in reps for i in range(V.dims["1"]))
        for V in reps:
            for W in reps:
                self.assert_matches_dense_solve(V, W)

    def test_two_parallel_arrows(self):
        q = qv.Quiver(("x", "y"), (qv.Arrow("a", "x", "y"), qv.Arrow("b", "x", "y")))
        bq = qv.BoundQuiver(q)
        rng = random.Random(43)

        def rep(dx, dy):
            def rand():
                return rl.mat([[Fraction(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 4))
                                for _ in range(dx)] for _ in range(dy)], dy, dx)
            return qv.Representation(bq, {"x": dx, "y": dy}, {"a": rand(), "b": rand()})

        reps = [rep(dx, dy) for dx, dy in ((1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (0, 2))]
        reps.append(qv.direct_sum(reps[0], reps[0]))  # a hom space of dimension > 1
        for V in reps:
            for W in reps:
                self.assert_matches_dense_solve(V, W)

    @pytest.mark.parametrize("kind", ["d4hat", "big_component"])
    def test_the_benchmark_sums_of_tube_modules(self, kind):
        # the decompose workload's shapes: R_4(λ) ⊕ R_4(μ) on d4hat and
        # embed_alpha(R_2(λ)) ⊕ embed_beta(R_2(μ)) on big_component
        if kind == "d4hat":
            X, Y = cubics.rn_family(4, 2), cubics.rn_family(4, Fraction(-7, 3))
        else:
            X = cubics.embed_alpha(cubics.rn_family(2, 2))
            Y = cubics.embed_beta(cubics.rn_family(2, Fraction(-7, 3)))
        V = qv.direct_sum(X, Y)
        for A, B in ((V, V), (X, V), (V, Y), (X, Y)):
            self.assert_matches_dense_solve(A, B)

    def test_every_element_passes_the_public_check(self):
        rng = random.Random(47)
        for _ in range(30):
            V = cubics.random_big_component_rep(rng)
            W = cubics.random_big_component_rep(rng)
            for X, Y in ((V, W), (W, V), (V, V)):
                for f in qv.hom_basis(X, Y):
                    qv.RepMorphism(X, Y, f.blocks)
        R = [cubics.rn_family(n, lam) for n, lam in ((1, 2), (2, 2), (2, Fraction(-1, 3)), (3, 0))]
        reps = R + [cubics.embed_alpha(R[1]), cubics.embed_beta(R[2])]
        for V in reps:
            for W in reps:
                if V.bq is W.bq:
                    for f in qv.hom_basis(V, W):
                        qv.RepMorphism(V, W, f.blocks)


class TestScale:
    """The decomposition engine on the R_8 and R_12 families (no timing asserted)."""

    def test_end_of_r12_under_alpha(self):
        V = cubics.embed_alpha(cubics.rn_family(12, 5))
        assert len(qv.hom_basis(V, V)) == 12

    def test_r8_pair_decomposes_certified(self):
        V = qv.direct_sum(cubics.rn_family(8, 5), cubics.rn_family(8, 7))
        out = qv.decompose_certified(V)
        assert [(S.dim_vector(), certified) for S, certified in out] == [
            ((8, 8, 8, 8, 16), True), ((8, 8, 8, 8, 16), True)]


class TestKernelsCokernels:
    def test_kernel_of_identity_is_zero(self):
        bc = cubics.build("big_component")
        P = bc.projective("1")
        ident = qv.RepMorphism(P, P, {v: rl.identity(P.dims[v]) for v in bc.quiver.vertices})
        K, _ = qv.kernel(ident)
        assert K.total_dim() == 0

    def test_cokernel_of_zero_map_is_target(self):
        bc = cubics.build("big_component")
        V, W = bc.simple("1"), bc.projective("1")
        zero = qv.RepMorphism(V, W, {})
        C, _ = qv.cokernel(zero)
        assert qv.is_isomorphic(C, W)

    def test_dimensions_add_up_with_zero_dimensional_vertices(self):
        rng = random.Random(31)
        zero_vertices = 0
        for _ in range(12):
            V = small_big_component_rep(rng, 2, 3)
            W = small_big_component_rep(rng, 2, 3)
            verts = V.bq.quiver.vertices
            zero_vertices += sum(1 for v in verts if V.dims[v] == 0 or W.dims[v] == 0)
            S = qv.direct_sum(V, W)
            assert all(S.dims[v] == V.dims[v] + W.dims[v] for v in verts)
            for phi in qv.hom_basis(V, W) + [qv.RepMorphism(V, W, {})]:
                K, _ = qv.kernel(phi)
                C, proj = qv.cokernel(phi)
                for v in verts:
                    image = rl.rank(phi.blocks[v])
                    assert K.dims[v] + image == V.dims[v]
                    assert image + C.dims[v] == W.dims[v]
                    assert rl.is_zero(rl.matmul(proj.blocks[v], phi.blocks[v]))  # proj∘φ = 0
                    assert rl.rank(proj.blocks[v]) == C.dims[v]  # proj is onto
        assert zero_vertices > 0  # the samples do reach zero-dimensional vertices

    def test_image_plus_kernel_dimensions(self):
        d4 = cubics.build("d4hat")
        V = cubics.rn_family(2, 1)
        phi = qv.hom_basis(V, V)[0]
        K, _ = qv.kernel(phi)
        assert K.total_dim() > 0
        for v in d4.quiver.vertices:
            assert K.dims[v] + rl.rank(phi.blocks[v]) == V.dims[v]


# -- oracle: End(V) from structure constants --------------------------------


@dataclass
class EndAlgebra:
    """End(V) with structure constants and its Jacobson radical.

    structure[i][j] are the coordinates of basis[i]∘basis[j]; the
    radical is the kernel of the trace pairing of left multiplications
    (exact, valid in characteristic zero).  This is a second route to
    dim End/rad, independent of quiver.semisimple_rank, which uses the
    trace form of V itself.
    """

    rep: qv.Representation
    basis: list
    structure: list
    radical: rl.Mat

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def semisimple_dim(self) -> int:
        return len(self.basis) - len(self.radical)


def _flatten(phi):
    return [x for v in phi.source.bq.quiver.vertices for row in phi.blocks[v] for x in row]


def end_algebra(V):
    basis = qv.hom_basis(V, V)
    d = len(basis)
    if d == 0:
        return EndAlgebra(V, [], [], rl.zeros(0, 0))
    flats = [_flatten(b) for b in basis]
    size = len(flats[0])
    cols = rl.transpose(rl.mat(flats, d, size))  # size x d
    verts = V.bq.quiver.vertices
    prods = [[x for v in verts for row in rl.matmul(f.blocks[v], g.blocks[v]) for x in row]
             for f in basis for g in basis]
    P = rl.transpose(rl.mat(prods, d * d, size))  # size x d^2
    C = rl.solve(cols, P)
    assert C is not None, "products must lie in the hom space"
    structure = [[[C[k][i * d + j] for k in range(d)] for j in range(d)] for i in range(d)]
    # tr(L_i L_j) = sum_{k,m} c^k_{i,m} c^m_{j,k}
    gram = [
        [
            sum(structure[i][m][k] * structure[j][k][m] for k in range(d) for m in range(d))
            for j in range(d)
        ]
        for i in range(d)
    ]
    return EndAlgebra(V, basis, structure, rl.nullspace(rl.mat(gram, d, d)))


class TestEndAlgebra:
    def test_simple_has_scalar_endomorphisms(self):
        bc = cubics.build("big_component")
        end = end_algebra(bc.simple("3"))
        assert end.dim == 1
        assert end.semisimple_dim == 1
        assert end.structure[0][0] in ([Fraction(1)],)

    def test_radical_of_projective_injective(self):
        bc = cubics.build("big_component")
        end = end_algebra(bc.projective("1"))
        assert end.dim == 1 and not end.radical

    def test_two_routes_to_the_radical_agree(self):
        rng = random.Random(23)
        for _ in range(4):
            V = small_big_component_rep(rng, 2, 3)
            if V.total_dim() == 0:
                continue
            end = end_algebra(V)
            assert end.semisimple_dim == qv.semisimple_rank(V)

    def test_rn_endomorphisms_are_jordan_commutant(self):
        # End(R_n(lam)) is the polynomial algebra of the Jordan block: dim n
        for n in (1, 2, 3):
            end = end_algebra(cubics.rn_family(n, 4))
            assert end.dim == n
            assert end.semisimple_dim == 1

    def test_structure_constants_have_a_unit(self):
        # the identity endomorphism acts as a two-sided unit
        end = end_algebra(cubics.rn_family(2, 0))
        ident = None
        for i, b in enumerate(end.basis):
            blocks = b.blocks
            if all(blocks[v] == rl.identity(end.rep.dims[v])
                   for v in end.rep.bq.quiver.vertices if end.rep.dims[v]):
                ident = i
        # the hom basis need not contain the identity itself; find its coords
        coords = None
        if ident is None:
            flats = [_flatten(b) for b in end.basis]
            target = _flatten(qv.RepMorphism(
                end.rep, end.rep,
                {v: rl.identity(end.rep.dims[v]) for v in end.rep.bq.quiver.vertices}))
            cols = rl.transpose(rl.mat(flats))
            sol = rl.solve(cols, rl.mat([[x] for x in target]))
            coords = [sol[k][0] for k in range(len(flats))]
        else:
            coords = [Fraction(1) if k == ident else Fraction(0) for k in range(end.dim)]
        d = end.dim
        for j in range(d):
            left = [sum(coords[i] * end.structure[i][j][k] for i in range(d)) for k in range(d)]
            right = [sum(coords[i] * end.structure[j][i][k] for i in range(d)) for k in range(d)]
            expected = [Fraction(1) if k == j else Fraction(0) for k in range(d)]
            assert left == expected and right == expected


class TestDecompose:
    def test_sum_of_simples(self):
        bc = cubics.build("big_component")
        V = qv.direct_sum(bc.simple("1"), bc.simple("2"))
        parts = qv.decompose(V)
        assert sorted(p.dim_vector() for p in parts) == [(0, 1, 0, 0, 0), (1, 0, 0, 0, 0)]

    def test_zero_rep_decomposes_to_nothing(self):
        bc = cubics.build("big_component")
        assert qv.decompose(Representation_zero(bc)) == []

    def test_conjugated_tube_sum_recovers_parameters(self):
        R3, R7 = cubics.rn_family(1, 3), cubics.rn_family(1, 7)
        scrambled = qv.conjugate(qv.direct_sum(R3, R7), seed=5)
        parts = qv.decompose(scrambled)
        assert len(parts) == 2
        matches = {3: 0, 7: 0}
        for p in parts:
            for lam in (3, 7):
                if qv.is_isomorphic(p, cubics.rn_family(1, lam)):
                    matches[lam] += 1
        assert matches == {3: 1, 7: 1}

    def test_dimension_partition_preserved_under_conjugation(self):
        rng = random.Random(4)
        for k in range(3):
            V = small_big_component_rep(rng, 2, 4)
            before = sorted(p.dim_vector() for p in qv.decompose(V))
            after = sorted(
                p.dim_vector() for p in qv.decompose(qv.conjugate(V, seed=k + 50))
            )
            assert before == after

    def test_summands_satisfy_relations_and_fill_dims(self):
        rng = random.Random(9)
        V = small_big_component_rep(rng, 3, 5)
        parts = qv.decompose(V)  # construction re-checks relations
        for v in V.bq.quiver.vertices:
            assert sum(p.dims[v] for p in parts) == V.dims[v]

    def test_summands_depend_on_the_representation_alone(self):
        rng = random.Random(9)
        for _ in range(3):
            V = small_big_component_rep(rng, 3, 5)
            first = qv.decompose_certified(V)
            assert len(first) > 1
            assert qv.decompose_certified(V) == first

    def test_is_indecomposable_verdicts(self):
        bc = cubics.build("big_component")
        assert qv.is_indecomposable(bc.simple("1")) == "yes"
        two = qv.direct_sum(bc.simple("1"), bc.simple("1"))
        assert qv.is_indecomposable(two) == "no"
        zero = Representation_zero(bc)
        assert qv.is_indecomposable(zero) == "no"


def Representation_zero(bq):
    return qv.Representation(bq, {v: 0 for v in bq.quiver.vertices}, {})


class TestIsIsomorphic:
    def test_self_isomorphism(self):
        V = cubics.rn_family(2, 5)
        assert qv.is_isomorphic(V, V)

    def test_conjugate_is_isomorphic(self):
        V = cubics.rn_family(1, 2)
        assert qv.is_isomorphic(V, qv.conjugate(V, seed=3))

    def test_dim_vector_mismatch(self):
        bc = cubics.build("big_component")
        assert not qv.is_isomorphic(bc.simple("1"), bc.projective("1"))

    def test_rank_invariance_under_isomorphism(self):
        V = cubics.rn_family(2, 3)
        W = qv.conjugate(V, seed=8)
        assert qv.is_isomorphic(V, W)
        for a in V.bq.quiver.arrows:
            assert V.arrow_rank(a.name) == W.arrow_rank(a.name)

    def test_distinct_tube_parameters(self):
        assert not qv.is_isomorphic(cubics.rn_family(1, 0), cubics.rn_family(1, 1))
        assert qv.hom_basis(cubics.rn_family(1, 0), cubics.rn_family(1, 1)) == []

    def test_multiplicities_decide(self):
        # same dimension vectors, arrow ranks and 4-dimensional hom spaces
        R = cubics.rn_family
        V = qv.direct_sum(qv.direct_sum(R(1, 2), R(1, 2)), R(1, 3))
        W = qv.direct_sum(qv.direct_sum(R(1, 2), R(1, 3)), R(1, 3))
        assert len(qv.hom_basis(V, W)) == len(qv.hom_basis(W, V)) == 4
        assert not qv.is_isomorphic(V, W)
        assert not qv.is_isomorphic(W, V)
        # ssr(V) equals rank(B) here, so only the two-sided sum decides
        assert not qv.is_isomorphic(qv.direct_sum(R(1, 2), R(1, 3)),
                                    qv.direct_sum(R(1, 2), R(1, 2)))
        permuted = qv.direct_sum(qv.direct_sum(R(1, 3), R(1, 2)), R(1, 2))
        assert qv.is_isomorphic(V, qv.conjugate(permuted, seed=4))

    def test_end_mod_rad_a_quadratic_field(self):
        # alpha4 = [I; C] with C the companion matrix of t^2 + c: End = Q[C],
        # a field of degree 2 for c = 1, 2, so the rep is indecomposable and
        # not absolutely indecomposable; its tube operator C is cyclic
        def quadratic(c):
            I, Z = rl.identity(2), rl.zeros(2, 2)
            C = rl.mat([[0, -c], [1, 0]])
            maps = {"alpha1": rl.vstack(I, Z), "alpha2": rl.vstack(Z, I),
                    "alpha3": rl.vstack(I, I), "alpha4": rl.vstack(I, C)}
            dims = {"1": 2, "2": 2, "3": 2, "4": 2, "5": 4}
            return qv.Representation(cubics.build("d4hat"), dims, maps)

        Vi, V2 = quadratic(1), quadratic(2)
        assert qv.semisimple_rank(Vi) == 2
        assert len(qv.hom_basis(Vi, Vi)) == 2
        assert qv.is_indecomposable(Vi) == "yes"
        assert qv.is_isomorphic(Vi, qv.conjugate(Vi, seed=5))
        assert not qv.is_isomorphic(Vi, V2)
        assert not qv.is_isomorphic(qv.direct_sum(Vi, Vi), qv.direct_sum(Vi, V2))
        assert qv.is_isomorphic(qv.direct_sum(Vi, V2), qv.direct_sum(V2, qv.conjugate(Vi, 6)))

    def test_random_big_component_reps(self):
        rng = random.Random(17)
        reps = [small_big_component_rep(rng, 1, 2)
                for _ in range(60)]
        verdicts = {True: 0, False: 0}
        for k, V in enumerate(reps):
            assert qv.is_isomorphic(V, qv.conjugate(V, seed=k))
            for W in reps[k + 1:]:
                if V.dim_vector() != W.dim_vector():
                    continue
                verdict = qv.is_isomorphic(V, W)
                verdicts[verdict] += 1
                assert qv.is_isomorphic(W, V) == verdict
                # an invertible element of Hom(V, W) is an independent witness
                assert _invertible_hom_found(V, W, random.Random(k)) == verdict
        assert verdicts[True] >= 5 and verdicts[False] >= 5, verdicts

    def test_is_indecomposable_reads_decompose_certified(self):
        rng = random.Random(23)
        seen = set()
        for k in range(16):
            V = small_big_component_rep(rng, 1, 2)
            summands = qv.decompose_certified(V)
            expected = ("no" if len(summands) != 1
                        else "yes" if summands[0][1] else "inconclusive")
            assert qv.is_indecomposable(V) == expected
            seen.add(expected)
        assert seen == {"yes", "no"}


def _invertible_hom_found(V, W, rng, tries=30):
    """Whether a random combination of a basis of Hom(V, W) is invertible."""
    if V.total_dim() == 0:
        return True
    basis = qv.hom_basis(V, W)
    verts = V.bq.quiver.vertices
    for _ in range(tries):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in basis]
        blocks = {v: rl.zeros(W.dims[v], V.dims[v]) for v in verts}
        for c, b in zip(coeffs, basis):
            blocks = {v: rl.mat_add(blocks[v], rl.scale(b.blocks[v], c)) for v in verts}
        if all(rl.rank(blocks[v]) == V.dims[v] for v in verts):
            return True
    return False


def conjugated_by_draws(V, seed):
    """The maps T_y V_a T_x^-1 of conjugate(V, seed), by sympy: T_v is the
    first draw at v of a matrix of randint(-3, 3) entries that is invertible."""
    rng = random.Random(seed)
    T = {}
    for v in V.bq.quiver.vertices:
        d = V.dims[v]
        while v not in T:
            M = sympy.Matrix(d, d, [rng.randint(-3, 3) for _ in range(d * d)])
            if M.det() != 0:
                T[v] = M
    maps = {}
    for a in V.bq.quiver.arrows:
        Va = sympy.Matrix(V.maps[a.name].rows, V.maps[a.name].cols,
                          [sympy.Rational(x.numerator, x.denominator)
                           for row in V.maps[a.name] for x in row])
        C = T[a.target] * Va * T[a.source].inv()
        maps[a.name] = rl.mat([[Fraction(int(x.p), int(x.q)) for x in C.row(i)]
                               for i in range(C.rows)], C.rows, C.cols)
    return maps


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["d4hat", "big_component", "two_vertex_pair"])
def test_conjugate_is_pinned_by_its_draws(name, seed):
    bq = cubics.build(name)
    V = {"d4hat": lambda: qv.direct_sum(cubics.rn_family(2, 3), cubics.rn_family(1, -1)),
         "big_component": lambda: cubics.random_big_component_rep(random.Random(7)),
         "two_vertex_pair": lambda: qv.direct_sum(bq.projective("1"), bq.projective("2")),
         }[name]()
    assert V.total_dim() > 3
    W = qv.conjugate(V, seed)
    assert W.dims == V.dims
    assert W.maps == conjugated_by_draws(V, seed)


class TestRepresentationFiles:
    def test_round_trip_named_quiver(self):
        V = cubics.rn_family(2, Fraction(1, 3))
        data = qv.rep_to_dict(V)
        assert data["quiver"] == "d4hat"
        back = qv.rep_from_dict(data, cubics.named_quivers())
        assert back.dims == V.dims
        assert back.maps == V.maps

    def test_round_trip_inline_quiver(self):
        bq = cubics.build("two_vertex_pair")
        V = qv.Representation(bq, {"1": 1, "2": 1}, {"a": [[Fraction(2, 3)]]})
        data = qv.rep_to_dict(V)
        data["quiver"] = qv.quiver_to_dict(bq)  # force the inline route
        back = qv.rep_from_dict(data)
        assert back.maps["a"] == rl.mat([[Fraction(2, 3)]])
        assert back.maps["b"] == rl.mat([[Fraction(0)]])

    def test_round_trip_linear_relation_and_bound(self):
        q, rels = exterior_algebra()
        bq = qv.BoundQuiver(q, rels, max_path_length=3)
        data = json.loads(json.dumps(qv.quiver_to_dict(bq)))
        assert data["max_path_length"] == 3
        assert data["relations"][2] == [["1", ["a", "b"]], ["1", ["b", "a"]]]
        back = qv.quiver_from_dict(data)
        assert back.quiver == bq.quiver
        assert back.relations == bq.relations
        assert back.bound == bq.bound == 3
        pb, back_pb = bq.path_basis(), back.path_basis()
        assert back_pb.by_pair == pb.by_pair == {("1", "1"): [(), ("a",), ("b",), ("b", "a")]}
        assert back_pb.reduction == pb.reduction

    @pytest.mark.parametrize("bound", [0, -3, True, 2.5, "3"])
    def test_inline_max_path_length_must_be_a_positive_integer(self, bound):
        data = {"quiver": {"vertices": ["x"], "arrows": [], "max_path_length": bound},
                "dims": {"x": 1}}
        with pytest.raises(ValueError, match="max_path_length"):
            qv.rep_from_dict(data)

    def test_round_trip_of_a_dual_writes_the_opposite_inline(self):
        for V in (cubics.build("big_component").projective("5"),
                  cubics.rn_family(2, Fraction(1, 3))):
            DV = qv.dual(V)
            data = json.loads(json.dumps(qv.rep_to_dict(DV)))
            assert data["quiver"] == qv.quiver_to_dict(DV.bq)
            back = qv.rep_from_dict(data)
            assert back.dims == DV.dims
            assert back.maps == DV.maps
            assert qv.quiver_to_dict(back.bq) == qv.quiver_to_dict(DV.bq)

    def test_round_trip_of_a_dual_keeps_the_vertex_labels(self):
        pf = cubics.build("paper_full")
        DV = qv.dual(pf.projective("p"))
        data = json.loads(json.dumps(qv.rep_to_dict(DV)))
        assert data["quiver"]["vertex_labels"] == pf.vertex_labels
        back = qv.rep_from_dict(data)
        assert len(back.bq.vertex_labels) == 14
        assert back.bq.vertex_labels == DV.bq.vertex_labels == pf.vertex_labels
        assert "vertex_labels" not in qv.quiver_to_dict(cubics.build("d4hat"))

    @pytest.mark.parametrize("labels", [["S"], {"x": 1}, {"y": "S"}])
    def test_inline_vertex_labels_must_map_vertices_to_names(self, labels):
        data = {"quiver": {"vertices": ["x"], "arrows": [], "vertex_labels": labels},
                "dims": {"x": 1}}
        with pytest.raises(ValueError, match="vertex_labels"):
            qv.rep_from_dict(data)

    def test_fraction_strings_are_exact(self):
        V = cubics.rn_family(1, Fraction(-5, 7))
        data = qv.rep_to_dict(V)
        assert data["maps"]["alpha4"] == [["1"], ["-5/7"]]

    def test_round_trip_with_zero_dimensional_vertices(self):
        bq = cubics.build("big_component")
        V = qv.Representation(bq, {"1": 2, "3": 1, "5": 0}, {})
        data = qv.rep_to_dict(V)
        assert data["maps"]["alpha1"] == []          # 0 x 2: no rows
        assert data["maps"]["beta1"] == [[], []]     # 2 x 0: two empty rows
        back = qv.rep_from_dict(data, cubics.named_quivers())
        assert back.dims == V.dims
        assert back.maps == V.maps
        assert (back.maps["beta3"].rows, back.maps["beta3"].cols) == (1, 0)

    @pytest.mark.parametrize("dims, alpha1", [
        ({"1": 0, "5": 1}, [[1, 2]]),
        ({"1": 2, "5": 0}, [[1, 2], [3, 4]]),
        ({"1": 2, "5": 0}, [[], []]),
        ({"1": 0, "5": 2}, []),
    ])
    def test_wrong_shape_at_zero_dimensional_vertex_rejected(self, dims, alpha1):
        with pytest.raises(ValueError, match="expected a"):
            qv.Representation(cubics.build("d4hat"), dims, {"alpha1": alpha1})

    def test_wrong_shaped_morphism_block_rejected(self):
        S1 = cubics.build("d4hat").simple("1")
        with pytest.raises(ValueError, match="expected a 0x0 matrix"):
            qv.RepMorphism(S1, S1, {"1": [[2]], "5": [[7, 7]]})

    def test_unknown_arrow_rejected(self):
        with pytest.raises(ValueError, match=r"maps for unknown arrows: \['alpha9'\]"):
            qv.Representation(cubics.build("d4hat"), {"1": 1, "5": 1}, {"alpha9": [[5]]})

    def test_unknown_morphism_vertex_rejected(self):
        S1 = cubics.build("d4hat").simple("1")
        with pytest.raises(ValueError, match=r"blocks for unknown vertices: \['zz'\]"):
            qv.RepMorphism(S1, S1, {"zz": [[3]]})

    def test_violating_maps_rejected(self):
        bq = cubics.build("two_vertex_pair")
        with pytest.raises(ValueError):
            qv.Representation(bq, {"1": 1, "2": 1}, {"a": [[1]], "b": [[1]]})

    def test_dimensions_must_be_integers(self):
        import numpy as np

        d4 = cubics.build("d4hat")
        V = qv.Representation(d4, {"1": np.int64(1), "5": 2}, {"alpha1": [[1], [0]]})
        assert V.dims["1"] == 1 and type(V.dims["1"]) is int
        # 1.9 and "1" used to be truncated or parsed to 1
        for bad in (1.9, 1.0, "1", True, Fraction(1)):
            with pytest.raises(TypeError, match="is not an integer"):
                qv.Representation(d4, {"1": bad, "5": 1}, {})

    def test_matrix_entries_must_be_exact(self):
        d4 = cubics.build("d4hat")
        for bad in (0.1, "1.5", True):
            with pytest.raises(TypeError, match="not an integer or a Fraction"):
                qv.Representation(d4, {"1": 1, "5": 1}, {"alpha1": [[bad]]})
