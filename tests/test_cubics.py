"""Tests for the binary-cubics quivers, embeddings and classification checks."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from binarycubics import characters as ch
from binarycubics import cubics
from binarycubics import quiver as qv
from binarycubics import ratlinalg as rl


class TestBuilders:
    def test_paper_full_counts(self):
        bq = cubics.build("paper_full")
        assert len(bq.quiver.vertices) == 14
        assert len(bq.quiver.arrows) == 12
        assert len(bq.relations) == 20
        assert set(bq.vertex_labels.values()) == {
            "S", "G-1", "G1", "G2", "G3", "G4", "Q0", "Q1", "Q2", "P", "D0", "D1", "D2", "E"}

    def test_big_component_counts(self):
        bq = cubics.build("big_component")
        assert len(bq.quiver.vertices) == 5
        assert len(bq.quiver.arrows) == 8
        assert bq.vertex_labels == {"1": "S", "2": "E", "3": "D0", "4": "Q0", "5": "P"}

    def test_d4hat_counts(self):
        bq = cubics.build("d4hat")
        assert len(bq.quiver.vertices) == 5
        assert len(bq.quiver.arrows) == 4
        assert len(bq.relations) == 0

    def test_instances_cached(self):
        assert cubics.build("d4hat") is cubics.build("d4hat")

    def test_unknown_name(self):
        with pytest.raises(KeyError) as info:
            cubics.build("mystery")
        assert info.value.args[0] == ("unknown quiver 'mystery'; expected one of "
                                      "paper_full, big_component, d4hat, two_vertex_pair")

    def test_ext1_facts(self):
        pf = cubics.build("paper_full")
        assert pf.arrow_count("d1", "g1") == 1
        assert pf.arrow_count("e", "s") == 0
        assert pf.arrow_count("s", "p") == 1
        assert all(pf.arrow_count(v, v) == 0 for v in pf.quiver.vertices)

    def test_arrow_counts_fourier_symmetric(self):
        from binarycubics import catalog

        pf = cubics.build("paper_full")
        to_vertex = {s: v for v, s in pf.vertex_labels.items()}
        for x in pf.quiver.vertices:
            for y in pf.quiver.vertices:
                fx = to_vertex[catalog.fourier_partner(pf.vertex_labels[x])]
                fy = to_vertex[catalog.fourier_partner(pf.vertex_labels[y])]
                assert pf.arrow_count(x, y) == pf.arrow_count(fx, fy)


#: Recorded data: the vanishing paths of each named quiver, read off the
#: hand-written relation lists that _bound's two rules replaced.
RECORDED_ZERO_PATHS = {
    "paper_full": [
        "alpha1 beta1", "alpha1 beta2", "alpha1 beta4", "alpha2 beta1", "alpha2 beta2",
        "alpha2 beta3", "alpha3 beta2", "alpha3 beta3", "alpha3 beta4", "alpha4 beta1",
        "alpha4 beta3", "alpha4 beta4", "beta1 alpha1", "beta2 alpha2", "beta3 alpha3",
        "beta4 alpha4", "delta-1 gamma-1", "delta1 gamma1", "gamma-1 delta-1", "gamma1 delta1"],
    "big_component": [
        "alpha1 beta1", "alpha1 beta3", "alpha1 beta4", "alpha2 beta2", "alpha2 beta3",
        "alpha2 beta4", "alpha3 beta1", "alpha3 beta2", "alpha3 beta3", "alpha4 beta1",
        "alpha4 beta2", "alpha4 beta4", "beta1 alpha1", "beta2 alpha2", "beta3 alpha3",
        "beta4 alpha4"],
    "d4hat": [],
    "two_vertex_pair": ["a b", "b a"],
}


def test_named_quivers_in_recorded_order():
    assert cubics.NAMED_QUIVERS == tuple(RECORDED_ZERO_PATHS)


@pytest.mark.parametrize("name", sorted(RECORDED_ZERO_PATHS))
def test_vanishing_paths_match_recorded(name):
    bq = cubics.build(name)
    assert all(len(rel) == 1 and rel[0][0] == 1 for rel in bq.relations)
    got = sorted(" ".join(rel[0][1]) for rel in bq.relations)
    assert got == RECORDED_ZERO_PATHS[name]  # sorted and free of duplicates
    assert bq.zero_paths == {tuple(p.split()) for p in RECORDED_ZERO_PATHS[name]}


#: Recorded data, taken while the big component's relations were listed
#: through a hand-typed _DIAGONAL: the sha256 of the sorted-key JSON of
#: quiver_to_dict of each named quiver.
RECORDED_QUIVER_SHAS = {
    "paper_full": "ba3e38f55648f13076f5809dc7aec1f92b62861da7c48d9f7592520ac72afb21",
    "big_component": "f40ddd0836762846da1d8a6e60c18576ebd49079bb6c9275b513aa56974d11c1",
    "d4hat": "749c0e23546b48cc00e0879e814239267641e2702c00e521019ec7755e25fe16",
    "two_vertex_pair": "86de553e03b285f563b98ddde4e07e1e4ebc404f97551927b9e0108ff17db03c",
}


def test_derived_forms_diagonal_and_quivers_equal_the_recorded_literals():
    """E and S_Delta are computed from S's closed form, _DIAGONAL and the
    Fourier rule from fourier_partner; each equals what was typed in before."""
    assert (ch.S_FORM, ch.SDELTA_FORM, ch.E_FORM) == (
        ch.ClosedFormCharacter(((1, (0, 0)), (1, (6, 3))), ((3, 0), (4, 2), (6, 6))),
        ch.ClosedFormCharacter(((1, (0, 0)), (1, (6, 3))), ((3, 0), (4, 2)), periodic=(6, 6)),
        ch.ClosedFormCharacter(((1, (-6, -6)), (1, (-9, -12))), ((0, -3), (-2, -4), (-6, -6))))
    assert cubics._DIAGONAL == {(1, 2), (2, 1), (3, 4), (4, 3)}
    assert {name: hashlib.sha256(json.dumps(qv.quiver_to_dict(cubics.build(name)),
                                            sort_keys=True).encode()).hexdigest()
            for name in cubics.NAMED_QUIVERS} == RECORDED_QUIVER_SHAS


class TestEmbeddings:
    def test_alpha_image_ranks(self):
        V = cubics.embed_alpha(cubics.rn_family(1, 0))
        for i in (1, 2, 3, 4):
            assert rl.rank(V.maps[f"alpha{i}"]) == 1
            assert rl.rank(V.maps[f"beta{i}"]) == 0

    def test_beta_image_of_center_simple(self):
        d4 = cubics.build("d4hat")
        bc = cubics.build("big_component")
        out = cubics.embed_beta(d4.simple("5"))
        assert qv.is_isomorphic(out, bc.simple("5"))

    def test_beta_preserves_indecomposability(self):
        R = cubics.rn_family(3, -2)
        assert qv.is_indecomposable(cubics.embed_beta(R)) == "yes"

    def test_beta_transposes(self):
        R = cubics.rn_family(1, Fraction(2, 5))
        out = cubics.embed_beta(R)
        assert out.maps["beta4"] == rl.mat([[Fraction(1), Fraction(2, 5)]])
        d4 = cubics.build("d4hat")
        for X in (R, cubics.rn_family(3, -2), d4.injective("5"),
                  qv.conjugate(cubics.rn_family(2, Fraction(-3, 4)), seed=5)):
            out = cubics.embed_beta(X)
            assert out.dims == X.dims
            for i in (1, 2, 3, 4):
                alpha = X.maps[f"alpha{i}"]
                assert out.maps[f"beta{i}"] == rl.transpose(alpha)
                assert out.maps[f"alpha{i}"] == rl.zeros(alpha.rows, alpha.cols)

    @pytest.mark.parametrize("seed", [None, 0, 4])
    @pytest.mark.parametrize("n, lam", [(1, 0), (2, Fraction(-1, 3)), (3, 2)])
    def test_the_unchecked_embeddings_equal_the_checked_construction(self, n, lam, seed):
        # _embed builds its image without the relation check; the checked
        # constructor, given the same side's maps, builds the same module
        V = cubics.rn_family(n, lam)
        V = V if seed is None else qv.conjugate(V, seed)
        big = cubics.build("big_component")
        for side, embed, W in (("alpha", cubics.embed_alpha, V),
                               ("beta", cubics.embed_beta, qv.dual(V))):
            maps = {f"{side}{i}": W.maps[f"alpha{i}"] for i in (1, 2, 3, 4)}
            out = embed(V)
            assert out == qv.Representation(big, dict(V.dims), maps)
            assert out.bq is big


class TestRnFamily:
    def test_displayed_matrices_for_n1(self):
        R = cubics.rn_family(1, 7)
        assert R.maps["alpha1"] == rl.mat([[1], [0]])
        assert R.maps["alpha2"] == rl.mat([[0], [1]])
        assert R.maps["alpha3"] == rl.mat([[1], [1]])
        assert R.maps["alpha4"] == rl.mat([[1], [7]])
        assert R.dim_vector() == (1, 1, 1, 1, 2)

    def test_jordan_block_shape(self):
        J = cubics.jordan_block(3, 5)
        assert J == rl.mat([[5, 1, 0], [0, 5, 1], [0, 0, 5]])
        assert cubics.jordan_block(3, Fraction(5)) == J  # the same Mat for a Fraction lam
        lam = Fraction(-7, 3)
        J = cubics.jordan_block(3, lam)
        assert J == rl.mat([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])
        assert (J.num, J.den) == ([[-7, 3, 0], [0, -7, 3], [0, 0, -7]], 3)
        assert cubics.jordan_block(1, -7) == rl.mat([[-7]])

    def test_dimension_vector(self):
        assert cubics.rn_family(3, 0).dim_vector() == (3, 3, 3, 3, 6)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            cubics.rn_family(0, 1)

    def test_parameter_must_be_exact(self):
        import numpy as np

        assert cubics.rn_family(2, np.int64(3)).maps == cubics.rn_family(2, 3).maps
        assert cubics.jordan_block(1, Fraction(2, 5)) == rl.mat([[Fraction(2, 5)]])
        for bad in (0.1, "1.5", "3", True):
            with pytest.raises(TypeError, match="not an integer or a Fraction"):
                cubics.jordan_block(2, bad)
            with pytest.raises(TypeError, match="not an integer or a Fraction"):
                cubics.rn_family(1, bad)

    def test_indecomposable(self):
        assert qv.is_indecomposable(cubics.rn_family(2, 7)) == "yes"

    def test_parameters_separate_isomorphism_classes(self):
        assert not qv.is_isomorphic(cubics.rn_family(1, 0), cubics.rn_family(1, 1))
        assert qv.is_isomorphic(cubics.rn_family(2, 5), qv.conjugate(cubics.rn_family(2, 5), 1))


class TestInjectiveEnvelopeOfP:
    def test_dims_and_isomorphism(self):
        I_P = cubics.injective_envelope_of_P()
        assert {v: d for v, d in I_P.dims.items() if d} == {
            "p": 1, "s": 1, "d0": 1, "e": 1, "q0": 1}
        # the asserted isomorphism with injective(p) already ran inside


class TestClassificationChecks:
    def test_tame_sample_run_clean(self):
        report = cubics.check_tame_classification(samples=12, seed=1)
        assert report["violations"] == []
        assert report["summands"] > 0
        assert report["inconclusive_rate"] < 0.05

    def test_alpha_beta_images_recovered(self):
        # an oracle sample: conjugate of alpha(R_1(2)) + beta(R_1(3))
        V = qv.direct_sum(
            cubics.embed_alpha(cubics.rn_family(1, 2)),
            cubics.embed_beta(cubics.rn_family(1, 3)),
        )
        parts = qv.decompose(qv.conjugate(V, seed=2))
        assert len(parts) == 2
        kinds = set()
        for p in parts:
            beta_zero = all(rl.is_zero(p.maps[f"beta{i}"]) for i in (1, 2, 3, 4))
            alpha_zero = all(rl.is_zero(p.maps[f"alpha{i}"]) for i in (1, 2, 3, 4))
            kinds.add("beta0" if beta_zero else "alpha0" if alpha_zero else "mixed")
        assert kinds == {"beta0", "alpha0"}

    def test_two_vertex_sample_run_clean(self):
        report = cubics.check_two_vertex_component(samples=15, seed=4)
        assert report["violations"] == []
        total = (report["simple_1"] + report["simple_2"]
                 + report["arrow_a"] + report["arrow_b"])
        assert total == report["summands"]

    @pytest.mark.parametrize("check", [cubics.check_tame_classification,
                                       cubics.check_two_vertex_component])
    def test_a_sample_count_must_be_a_nonnegative_integer(self, check):
        with pytest.raises(ValueError, match="samples -3 is negative"):
            check(samples=-3)
        for samples in (True, 2.0):
            with pytest.raises(TypeError, match="is not an integer"):
                check(samples=samples)
        report = check(samples=0)
        assert report["samples"] == 0 and report["summands"] == 0 and report["violations"] == []

    @pytest.mark.parametrize("seed", [True, 1.5, "a", None])
    @pytest.mark.parametrize("check", [cubics.check_tame_classification,
                                       cubics.check_two_vertex_component])
    def test_a_seed_must_be_an_integer(self, check, seed):
        # None would reseed from the system, so two reports would differ
        with pytest.raises(TypeError, match="is not an integer"):
            check(samples=2, seed=seed)

    @pytest.mark.parametrize("check, counts", [
        (cubics.check_tame_classification,
         {"summands": 18, "case_beta_zero": 15, "case_alpha_zero": 12, "inconclusive": 0}),
        (cubics.check_two_vertex_component,
         {"summands": 11, "simple_1": 6, "simple_2": 2, "arrow_a": 3, "arrow_b": 0}),
    ])
    def test_a_negative_seed_draws_what_it_drew_before_seeds_were_checked(self, check, counts):
        report = check(samples=5, seed=-7)
        assert {key: report[key] for key in counts} == counts and report["violations"] == []


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


#: Recorded data, taken before the samplers were rewritten around
#: cubics._complete (seeds 0-5) and before rl.matmul returned identity and
#: zero factors at once (seeds 6-9): the first 16 hex digits of the sha256
#: of the sorted-key JSON of [rep_to_dict(V) for the first three samples V
#: of random_big_component_rep(random.Random(s))], keyed by s.
BIG_COMPONENT_STREAMS = {
    0: "d261979a0dfe2ea9", 1: "fa2dd0fc2601c09b", 2: "a9d3bbdd299cceb7",
    3: "3f6328ea5fd41543", 4: "57eaccb4150b5496", 5: "77a80981fca27fa1",
    6: "db8412be08e6c760", 7: "7301664bc48955c1", 8: "d81fb3d76a7502b8",
    9: "0197c18f49f2ac8d",
}

#: Recorded data of the same kind for check_two_vertex_component(samples=15,
#: seed=s): the digest of the fifteen sampled representations and the report
#: (seeds 0 and 4 recorded with seeds 0-5 above, the others with seeds 6-9).
TWO_VERTEX_STREAMS = {
    0: ("1568ef254487f783", {"samples": 15, "summands": 53, "simple_1": 12, "simple_2": 20,
                             "arrow_a": 21, "arrow_b": 0, "violations": []}),
    1: ("726917b50678c66f", {"samples": 15, "summands": 48, "simple_1": 4, "simple_2": 23,
                             "arrow_a": 21, "arrow_b": 0, "violations": []}),
    2: ("4ca8aaadd40bba22", {"samples": 15, "summands": 35, "simple_1": 5, "simple_2": 9,
                             "arrow_a": 21, "arrow_b": 0, "violations": []}),
    3: ("76887d2e0ff47598", {"samples": 15, "summands": 49, "simple_1": 17, "simple_2": 10,
                             "arrow_a": 22, "arrow_b": 0, "violations": []}),
    4: ("6fc9ce3d51085fc3", {"samples": 15, "summands": 42, "simple_1": 8, "simple_2": 17,
                             "arrow_a": 17, "arrow_b": 0, "violations": []}),
    5: ("cb1d6b3a97ef4cf5", {"samples": 15, "summands": 35, "simple_1": 12, "simple_2": 11,
                             "arrow_a": 12, "arrow_b": 0, "violations": []}),
    6: ("66d1de31f9f4dd2c", {"samples": 15, "summands": 44, "simple_1": 15, "simple_2": 12,
                             "arrow_a": 17, "arrow_b": 0, "violations": []}),
    7: ("3bf31ac4c3dccd54", {"samples": 15, "summands": 43, "simple_1": 13, "simple_2": 19,
                             "arrow_a": 11, "arrow_b": 0, "violations": []}),
    8: ("ff808af8d06d5300", {"samples": 15, "summands": 41, "simple_1": 10, "simple_2": 14,
                             "arrow_a": 16, "arrow_b": 1, "violations": []}),
    9: ("08dc5f6f114a9f6d", {"samples": 15, "summands": 40, "simple_1": 9, "simple_2": 12,
                             "arrow_a": 19, "arrow_b": 0, "violations": []}),
}


class TestSamplerStreams:
    """The samplers draw the same representations, in the same order, as recorded."""

    def test_big_component_streams(self):
        sides = set()
        for s, want in BIG_COMPONENT_STREAMS.items():
            rng = random.Random(s)
            samples = [qv.rep_to_dict(cubics.random_big_component_rep(rng)) for _ in range(3)]
            assert _digest(samples) == want, s
            # the first sample draws four outer and one central dimension, then its free side
            replay = random.Random(s)
            for bound in (3, 3, 3, 3, 6):
                replay.randint(0, bound)
            sides.add("alpha" if replay.random() < 0.5 else "beta")
        assert sides == {"alpha", "beta"}  # the recorded streams reach both sides

    def test_two_vertex_streams(self, monkeypatch):
        sampled = []
        decompose = cubics.decompose_certified

        def spy(V):
            sampled.append(qv.rep_to_dict(V))
            return decompose(V)

        monkeypatch.setattr(cubics, "decompose_certified", spy)
        for s, (want, report) in TWO_VERTEX_STREAMS.items():
            sampled.clear()
            assert cubics.check_two_vertex_component(samples=15, seed=s) == report
            assert _digest(sampled) == want, s


@pytest.mark.parametrize("seed", range(4))
def test_small_builds_the_mat_that_mat_builds_from_its_draws(seed):
    for m, n, bound in ((0, 3, 2), (3, 0, 2), (2, 3, 3), (4, 4, 2)):
        got = cubics._small(random.Random(seed), m, n, bound)
        rng = random.Random(seed)
        want = rl.mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], m, n)
        assert got == want


def projective_injective_by_search(W, projectives=None):
    """The isomorphism search the tame check made before its exact rule:
    whether W is isomorphic to one of the four projectives of big_component."""
    bq = cubics.build("big_component")
    projectives = projectives or [bq.projective(str(i)) for i in (1, 2, 3, 4)]
    return any(qv.is_isomorphic(W, P) for P in projectives if W.dim_vector() == P.dim_vector())


def planted_tame_sums():
    """Big-component sums with every case planted: the four P_i (both
    orientations of each diagonal pair), the alpha and beta images of
    R_n(lambda) and of the center simple, and two outer simples; each
    conjugated at two seeds."""
    bc, d4 = cubics.build("big_component"), cubics.build("d4hat")
    sums = [reduce(qv.direct_sum, [bc.projective(str(i)) for i in (1, 2, 3, 4)]),
            qv.direct_sum(cubics.embed_alpha(cubics.rn_family(2, 1)),
                          cubics.embed_beta(cubics.rn_family(1, 3))),
            reduce(qv.direct_sum, [cubics.embed_beta(d4.simple("5")), bc.simple("1"),
                                   bc.simple("4"), bc.projective("3")])]
    return [qv.conjugate(V, seed) for V in sums for seed in (1, 2)]


def planted_two_vertex_sums():
    """Conjugated sums of S_1, S_2, M_a and M_b on two_vertex_pair."""
    tv = cubics.build("two_vertex_pair")
    V = reduce(qv.direct_sum, [tv.simple("1"), tv.simple("2"),
                               tv.arrow_module("a"), tv.arrow_module("b")])
    return [qv.conjugate(V, seed) for seed in (1, 2, 3)]


def test_the_planted_sums_reach_every_case_of_both_checks():
    # the samplers reach the P_i case once in 427 summands at seed 0 and
    # arrow_b never at seed 0; the planted sums reach every case, each
    # summand classified by the rule the checks use
    for sums, cases, keys in [
            (planted_tame_sums(), cubics._tame_cases,
             {"case_projective_injective", "case_beta_zero", "case_alpha_zero"}),
            (planted_two_vertex_sums(), cubics._two_vertex_cases,
             {"simple_1", "simple_2", "arrow_a", "arrow_b"})]:
        reached = Counter()
        for V in sums:
            for W, certified in qv.decompose_certified(V):
                found = cases(W)
                assert certified and found, W
                reached.update(found)
        assert set(reached) == keys, reached
    projectives = [W for V in planted_tame_sums()[:2] for W, _ in qv.decompose_certified(V)]
    assert [cubics._tame_cases(W) for W in projectives] == [["case_projective_injective"]] * 8


def test_the_projective_injective_rule_agrees_with_the_isomorphism_search(monkeypatch):
    leaves = []
    decompose = cubics.decompose_certified
    monkeypatch.setattr(cubics, "decompose_certified",
                        lambda V: leaves.extend(out := decompose(V)) or out)
    for seed in range(10):
        assert cubics.check_tame_classification(100, seed)["violations"] == []
    leaves += [leaf for V in planted_tame_sums() for leaf in decompose(V)]
    bq = cubics.build("big_component")
    projectives = [bq.projective(str(i)) for i in (1, 2, 3, 4)]
    agree = Counter()
    for W, _certified in leaves:
        by_rule = "case_projective_injective" in cubics._tame_cases(W)
        assert by_rule == projective_injective_by_search(W, projectives), W
        agree[by_rule] += 1
    assert agree[True] >= 14 and agree[False] >= 3900, agree


def test_a_sum_with_both_sides_nonzero_fits_no_case():
    # on dimension vector (1, 1, 0, 0, 1) the 2-cycles leave only P_1, P_2
    # and sums with a zero side, so a violation needs a decomposable W
    bc = cubics.build("big_component")
    for W in (qv.direct_sum(bc.projective("1"), bc.simple("3")),
              qv.direct_sum(cubics.embed_alpha(cubics.rn_family(1, 0)),
                            cubics.embed_beta(cubics.rn_family(1, 1)))):
        assert cubics._tame_cases(W) == [] and not projective_injective_by_search(W)


def test_the_tame_check_builds_no_projective_and_searches_no_isomorphism(monkeypatch):
    # seed 0 has a P_i summand, which the search route matched by is_isomorphic
    calls = []
    for module in (cubics, qv):
        monkeypatch.setattr(module, "is_isomorphic", lambda V, W, search=module.is_isomorphic:
                            calls.append("is_isomorphic") or search(V, W))
    projective = qv.BoundQuiver.projective
    monkeypatch.setattr(qv.BoundQuiver, "projective",
                        lambda bq, x: calls.append("projective") or projective(bq, x))
    report = cubics.check_tame_classification(100, 0)
    assert report["case_projective_injective"] == 1 and report["violations"] == []
    assert calls == []
