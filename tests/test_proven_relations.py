"""Representations built without Representation's relation check.

The parts _cut returns, bq.simple, bq.arrow_module, a direct_sum on one
bound quiver and conjugate are built by Representation._satisfying,
because their construction proves the relations.  Each must pass that
check when rebuilt through Representation, and the check still runs
wherever it can fail: a sum with a module of another bound quiver and a
representation file."""

import json
import random
from functools import reduce

import pytest

from binarycubics import cli, cubics
from binarycubics import quiver as qv
from binarycubics import ratlinalg as rl


def unchecked(monkeypatch):
    """Every representation Representation._satisfying builds from now on."""
    built = []
    satisfying = qv.Representation._satisfying

    def spy(bq, dims, maps):
        built.append(satisfying(bq, dims, maps))
        return built[-1]

    monkeypatch.setattr(qv.Representation, "_satisfying", staticmethod(spy))
    return built


def assert_checked(built):
    """Each representation passes the checked constructor, and is equal to what it builds."""
    for X in built:
        assert qv.Representation(X.bq, X.dims, X.maps) == X


@pytest.mark.parametrize("seed", range(4))
def test_every_unchecked_module_of_the_tame_samples_satisfies_the_relations(monkeypatch, seed):
    # the peel's W and modules, the parts of the split, of the tube split
    # and of the dual-form tube split (on big_component's opposite)
    built = unchecked(monkeypatch)
    rng = random.Random(seed)
    for _ in range(100):
        qv.decompose_certified(cubics.random_big_component_rep(rng))
    assert len(built) > 300
    assert_checked(built)


@pytest.mark.parametrize("name", cubics.NAMED_QUIVERS)
def test_simples_arrow_modules_sums_and_conjugates_satisfy_the_relations(monkeypatch, name):
    bq = cubics.build(name)
    built = unchecked(monkeypatch)
    for i, v in enumerate(bq.quiver.vertices):
        V = qv.direct_sum(qv.direct_sum(bq.simple(v), bq.projective(v)), bq.injective(v))
        qv.decompose_certified(qv.conjugate(V, seed=i))
    modules = [bq.arrow_module(a.name) for a in bq.quiver.arrows if a.source != a.target]
    assert all(any(M is X for X in built) for M in modules)
    assert_checked(built)


def random_cut(rng, V):
    """Bases for _cut splitting each V_v in two along a random invertible
    matrix; almost none of them is arrow-stable."""
    bases = {}
    for v, d in V.dims.items():
        T = None
        while T is None or rl.inverse(T) is None:
            T = rl.mat([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)], d, d)
        k = rng.randint(0, d)
        rows = list(T)
        bases[v] = [rl.mat(rows[:k], k, d), rl.mat(rows[k:], d - k, d)]
    return bases


@pytest.mark.parametrize("name", ["paper_full", "big_component", "two_vertex_pair"])
def test_a_cut_raises_or_returns_parts_that_satisfy_the_relations(name):
    # a cut that is not arrow-stable must raise: its diagonal blocks need
    # not satisfy the relations, and on these sums of projectives most do not
    bq = cubics.build(name)
    V = qv.conjugate(reduce(qv.direct_sum, [bq.projective(v) for v in bq.quiver.vertices]), seed=1)
    rng = random.Random(7)
    raised = 0
    for _ in range(10):
        try:
            parts = qv._cut(V, random_cut(rng, V))
        except ArithmeticError as exc:
            assert "not stable under arrow" in str(exc)
            raised += 1
            continue
        for dims, maps in parts:
            qv.Representation(V.bq, dims, maps)
    assert raised


def breaking_maps(bq):
    """dims 1 everywhere and 1 on the two arrows of a path bq declares zero."""
    first, then = sorted(bq.zero_paths)[0]
    return dict.fromkeys(bq.quiver.vertices, 1), {first: [[1]], then: [[1]]}


def test_a_sum_with_a_module_of_another_bound_quiver_is_checked():
    bq = cubics.build("big_component")
    free = qv.quiver_from_dict({"vertices": list(bq.quiver.vertices),
                                "arrows": [[a.name, a.source, a.target] for a in bq.quiver.arrows]})
    W = qv.Representation(free, *breaking_maps(bq))
    assert free.quiver == bq.quiver and not free.relations
    with pytest.raises(ValueError, match="is violated"):
        qv.direct_sum(bq.simple("1"), W)


def test_rep_decompose_refuses_a_file_that_breaks_a_relation(tmp_path, capsys):
    bq = cubics.build("big_component")
    dims, maps = breaking_maps(bq)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"quiver": "big_component", "dims": dims, "maps": maps}))
    assert cli.main(["rep", "decompose", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad representation file: relation [[")
    assert err.endswith("]] is violated\n")
