"""Tests for the binary-cubics quivers, embeddings and classification checks."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

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


class TestEmbeddings:
    def test_alpha_image_ranks(self):
        V = cubics.embed_alpha(cubics.rn_family(1, 0))
        for i in (1, 2, 3, 4):
            assert V.arrow_rank(f"alpha{i}") == 1
            assert V.arrow_rank(f"beta{i}") == 0

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


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


#: Recorded data, taken before the samplers were rewritten around
#: cubics._complete: the first 16 hex digits of the sha256 of the
#: sorted-key JSON of [rep_to_dict(V) for the first three samples V of
#: random_big_component_rep(random.Random(s))], keyed by s.
BIG_COMPONENT_STREAMS = {
    0: "d261979a0dfe2ea9", 1: "fa2dd0fc2601c09b", 2: "a9d3bbdd299cceb7",
    3: "3f6328ea5fd41543", 4: "57eaccb4150b5496", 5: "77a80981fca27fa1",
}

#: Recorded data of the same kind for check_two_vertex_component(samples=15,
#: seed=s): the digest of the fifteen sampled representations and the report.
TWO_VERTEX_STREAMS = {
    0: ("1568ef254487f783", {"samples": 15, "summands": 53, "simple_1": 12, "simple_2": 20,
                             "arrow_a": 21, "arrow_b": 0, "violations": []}),
    4: ("6fc9ce3d51085fc3", {"samples": 15, "summands": 42, "simple_1": 8, "simple_2": 17,
                             "arrow_a": 17, "arrow_b": 0, "violations": []}),
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
