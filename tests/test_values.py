"""The value classes of the package: equality, hash, repr, immutability and
keyword defaults, pinned for each class; and the package import, which
must not load dataclasses, inspect or typing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binarycubics import catalog, characters as ch, quiver as qv, ratlinalg as rl

ROOT = Path(__file__).resolve().parent.parent

A = qv.Arrow("a", "1", "2")
A_REPR = "Arrow(name='a', source='1', target='2')"
Q = qv.Quiver(("1", "2"), (A,))
BQ = qv.BoundQuiver(Q, name="A2")
V = BQ.arrow_module("a")


def mat():
    return rl.Mat(2, 2, [[1, 0], [0, 3]], 2)


def representation(*maps):
    # maps defaults to zero maps
    return qv.Representation(BQ, {"1": 1, "2": 1}, *maps)


def path_basis():
    return qv.PathBasis(("1",), {("1", "1"): [()]}, {})


def morphism():
    return qv.RepMorphism(V, V, {"1": rl.identity(1), "2": rl.identity(1)})


def closed_form():
    # the plan of coefficient, built once per form, takes no part in ==, hash or repr
    return ch.ClosedFormCharacter(ch.S_FORM.numerator, ch.S_FORM.denominators)


#: (id, build a value, build another one equal to it, an unequal value,
#:  its fields by name, its repr, whether it is frozen and hashable)
CASES = [
    ("Mat", mat, mat, rl.Mat(2, 2, [[1, 0], [0, 1]], 2),
     dict(rows=2, cols=2, num=[[1, 0], [0, 3]], den=2), "Mat(2x2, [[1/2, 0], [0, 3/2]])", False),
    ("Arrow", lambda: qv.Arrow("a", "1", "2"), lambda: qv.Arrow(name="a", source="1", target="2"),
     qv.Arrow("a", "2", "1"), dict(name="a", source="1", target="2"), A_REPR, True),
    ("Quiver", lambda: qv.Quiver(("1", "2"), (A,)),
     lambda: qv.Quiver(("1", "2"), (qv.Arrow("a", "1", "2"),)), qv.Quiver(("1", "2"), ()),
     dict(vertices=("1", "2"), arrows=(A,)), f"Quiver(vertices=('1', '2'), arrows=({A_REPR},))",
     True),
    ("PathBasis", path_basis, path_basis, qv.PathBasis(("1",), {}, {}),
     dict(vertices=("1",), by_pair={("1", "1"): [()]}, reduction={}),
     "PathBasis(vertices=('1',), by_pair={('1', '1'): [()]}, reduction={})", False),
    ("Representation", representation, lambda: representation({"a": None}), V,
     dict(bq=BQ, dims={"1": 1, "2": 1}, maps={"a": rl.zeros(1, 1)}),
     "Representation(A2; 1:1, 2:1)", False),
    ("RepMorphism", morphism, morphism, qv.RepMorphism(V, V, {}),
     dict(source=V, target=V, blocks={"1": rl.identity(1), "2": rl.identity(1)}),
     "RepMorphism(source=Representation(A2; 1:1, 2:1), target=Representation(A2; 1:1, 2:1), "
     "blocks={'1': Mat(1x1, [[1]]), '2': Mat(1x1, [[1]])})", False),
    ("ClosedFormCharacter", closed_form, lambda: ch.S_FORM,
     ch.ClosedFormCharacter(ch.S_FORM.numerator),
     dict(numerator=ch.S_FORM.numerator, denominators=ch.S_FORM.denominators, periodic=None),
     f"ClosedFormCharacter(numerator={ch.S_FORM.numerator!r}, "
     f"denominators={ch.S_FORM.denominators!r}, periodic=None)", True),
    ("OrbitInfo", lambda: catalog.OrbitInfo("O2", 2, "w0^3", "C3", 3), lambda: catalog.ORBITS[1],
     catalog.ORBITS[0],
     dict(name="O2", dim=2, representative="w0^3", component_group="C3", local_systems=3),
     "OrbitInfo(name='O2', dim=2, representative='w0^3', component_group='C3', local_systems=3)",
     True),
    ("CompositionSeriesFact", lambda: catalog.CompositionSeriesFact("F1", ("G1", "D1")),
     lambda: catalog.CompositionSeriesFact("F1", ("G1", "D1"), non_split=False),
     catalog.COMPOSITION_SERIES[2], dict(ambient="F1", factors=("G1", "D1"), non_split=False),
     "CompositionSeriesFact(ambient='F1', factors=('G1', 'D1'), non_split=False)", True),
]


@pytest.mark.parametrize("build, build_twin, other, fields, text, frozen",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_value_semantics(build, build_twin, other, fields, text, frozen):
    value, twin = build(), build_twin()
    assert {name: getattr(value, name) for name in fields} == fields
    assert value is not twin and value == twin and not value != twin
    assert value != other and not value == other
    # never equal to the tuple of its fields
    as_tuple = tuple(fields.values())
    assert value != as_tuple and as_tuple != value
    assert repr(value) == text
    if frozen:
        assert hash(value) == hash(twin)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert value == twin
    else:
        with pytest.raises(TypeError):
            hash(value)
    if isinstance(value, ch.ClosedFormCharacter):
        assert value._plan is not twin._plan


def test_keyword_defaults():
    form = ch.ClosedFormCharacter(((1, (0, 0)),))
    assert (form.denominators, form.periodic) == ((), None)
    assert catalog.CompositionSeriesFact("F1", ("G1", "D1")).non_split is False
    assert representation().maps == {"a": rl.zeros(1, 1)}


IMPORT_GUARD = """
import sys
import binarycubics
after_package = sorted(m for m in ("dataclasses", "inspect", "json", "typing") if m in sys.modules)
import binarycubics.cli
after_cli = sorted(m for m in ("dataclasses", "inspect", "typing") if m in sys.modules)
import json
print(json.dumps([after_package, after_cli]))
"""


def test_the_import_loads_no_dataclasses_inspect_or_typing():
    # -S: site would import some of them before the package does; the library
    # import loads no json either (the CLI does), which the guard records
    # before it imports json itself
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", IMPORT_GUARD], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], []]
