"""The verification layer's check records and scans."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binarycubics import catalog, verify

ROOT = Path(__file__).resolve().parent.parent


def test_check_record():
    assert catalog.check("x") == {"name": "x", "status": "pass"}
    assert catalog.check("x", None) == {"name": "x", "status": "pass"}
    assert catalog.check("x", (0, -3)) == {"name": "x", "status": "fail", "witness": "(0, -3)"}
    assert catalog.check("x", 0) == {"name": "x", "status": "fail", "witness": "0"}
    assert catalog.check("x", "") == {"name": "x", "status": "fail", "witness": ""}


def test_off_table_local_cohomology_reports_the_first_wrong_group(monkeypatch):
    # two groups that should vanish, planted nonzero; in the scan order
    # (module, then support, then degree) S comes before G-1
    monkeypatch.setitem(catalog._LOCAL_COHOMOLOGY, ("S", "O3bar", 5), (("E",), False))
    monkeypatch.setitem(catalog._LOCAL_COHOMOLOGY, ("G-1", "O0", 6), (("E",), False))
    checks = {c["name"]: c for c in verify.suite_loccoh()["checks"]}
    assert checks["all off-table local cohomology queries vanish"] == {
        "name": "all off-table local cohomology queries vanish",
        "status": "fail", "witness": "H^5_O3bar(S)"}
    failed = [c["name"] for c in checks.values() if c["status"] != "pass"]
    assert failed == ["all off-table local cohomology queries vanish"]


# wrong envelope rules: G1 without its socle quotient D1, P without the - [P]
WRONG_ENVELOPES = {
    "G1": lambda: catalog.character_of("G1"),
    "P": lambda: catalog.character_of("Sdelta") + catalog.character_of("Q0delta"),
}


@pytest.mark.parametrize("simple", [None, "G1", "P"])
def test_envelope_checks_fail_exactly_for_a_wrong_rule(monkeypatch, simple):
    rule = catalog.injective_envelope_character
    monkeypatch.setattr(catalog, "injective_envelope_character",
                        lambda name: WRONG_ENVELOPES[name]() if name == simple else rule(name))
    checks = verify.suite_quiver(seed=0)["checks"]
    envelope = [c for c in checks if c["name"].startswith("injective envelope of ")]
    assert len(envelope) == 14
    failed = [c for c in checks if c["status"] != "pass"]
    if simple is None:
        assert failed == []
        return
    assert [c["name"] for c in failed] == [
        next(c["name"] for c in envelope if c["name"].startswith(f"injective envelope of {simple} "))]
    l1, l2 = ast.literal_eval(failed[0]["witness"])
    lo, hi = verify.ENVELOPE_BOX
    assert lo <= l2 <= l1 <= hi


SABOTAGED_QUIVER_SUITE = """
import json, sys
from binarycubics import cubics, verify
cubics.is_isomorphic = lambda V, W: False
checks = verify.suite_quiver()["checks"]
print(json.dumps({"optimize": sys.flags.optimize, "checks": checks}))
"""


def test_injective_envelope_check_fails_under_python_O():
    """The verdict does not ride on assert: with the isomorphism test
    sabotaged, the check fails also when python -O strips asserts."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", SABOTAGED_QUIVER_SUITE], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["optimize"] == 1
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["cokernel of P -> H + F(H) is the injective envelope of P"] == {
        "name": "cokernel of P -> H + F(H) is the injective envelope of P",
        "status": "fail", "witness": "cokernel must be the injective envelope"}


def test_the_tame_suite_decomposes_each_sample_once_through_the_name_cubics_imports(monkeypatch):
    # perfbench/selftest.py's tracer counts these 100 calls at seed 0
    from binarycubics import cubics, quiver

    calls = []
    decompose = cubics.decompose_certified
    assert decompose is quiver.decompose_certified
    monkeypatch.setattr(cubics, "decompose_certified", lambda V: calls.append(V) or decompose(V))
    (report,) = verify.run_suites(["tame"], seed=0)
    assert report["detail"]["samples"] == len(calls) == 100
