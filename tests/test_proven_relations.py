"""Representations built without Representation's relation check.

The parts _cut returns, bq.simple, bq.arrow_module, a direct_sum on one
bound quiver, conjugate and dual are built by Representation._satisfying,
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


def summand_cut(rng, summands):
    """Bases for _cut splitting the direct sum of summands along them, each
    summand's block at a vertex taken in a random basis; it is arrow-stable."""
    bases = {}
    for v in summands[0].bq.quiver.vertices:
        d, at = sum(X.dims[v] for X in summands), 0
        bases[v] = []
        for X in summands:
            k = X.dims[v]
            T = None
            while T is None or rl.inverse(T) is None:
                T = rl.mat([[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)], k, k)
            block = rl.mat([[int(j == at + i) for j in range(d)] for i in range(k)], k, d)
            bases[v].append(rl.matmul(T, block))
            at += k
    return bases


@pytest.mark.parametrize("name", ["paper_full", "big_component", "two_vertex_pair"])
def test_a_cut_raises_or_returns_parts_that_satisfy_the_relations(name):
    # a cut that is not arrow-stable must raise: its diagonal blocks need
    # not satisfy the relations, and on these sums of projectives most do
    # not; a cut along the summands returns them, in other bases
    bq = cubics.build(name)
    projectives = [bq.projective(v) for v in bq.quiver.vertices]
    S = reduce(qv.direct_sum, projectives)
    V = qv.conjugate(S, seed=1)
    rng = random.Random(7)
    raised, returned = 0, 0
    for W, bases in [(V, random_cut(rng, V)) for _ in range(10)] + [(S, summand_cut(rng, projectives))]:
        try:
            parts = qv._cut(W, bases)
        except ArithmeticError as exc:
            assert "not stable under arrow" in str(exc)
            raised += 1
            continue
        returned += 1
        assert all(P.bq is bq for P in parts)
        assert_checked(parts)
        if W is S:
            assert len(parts) == len(projectives)
            assert all(qv.is_isomorphic(P, X) for P, X in zip(parts, projectives))
    assert raised and returned


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
