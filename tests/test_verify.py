"""The verification layer's check records and scans."""

import ast
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from binarycubics import catalog, cli, verify

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "perfbench" / "recorded.json"


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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch) -> list:
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


FORKS_HERE = 1 if verify._usable_cpus() >= 2 and hasattr(os, "fork") else 0


def test_run_suites_checks_every_name_before_it_runs_any(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "suite_characters", lambda: ran.append("characters"))
    with pytest.raises(KeyError, match="'nope'"):
        verify.run_suites(["characters", "nope"])
    assert ran == []


def test_run_suites_returns_one_report_per_name_in_request_order(monkeypatch):
    for name in verify.SUITES:
        monkeypatch.setattr(verify, f"suite_{name}",
                            lambda seed=None, _name=name: {"suite": _name, "seed": seed})
    forks = count_forks(monkeypatch)
    names = ["tame", "loccoh", "tame", "characters", "loccoh", "quiver"]
    reports = verify.run_suites(names, seed=5)
    assert_no_child_left()
    assert len(forks) == FORKS_HERE
    assert reports == [{"suite": name, "seed": 5 if name in ("quiver", "tame") else None}
                       for name in names]
    assert reports[0] is not reports[2]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_the_forked_tame_suite_reports_what_the_in_process_loop_does(monkeypatch, seed):
    forks = count_forks(monkeypatch)
    forked = verify.run_suites(list(verify.SUITES), seed=seed)
    assert_no_child_left()
    assert len(forks) == FORKS_HERE
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    in_process = verify.run_suites(list(verify.SUITES), seed=seed)
    assert len(forks) == FORKS_HERE
    assert forked == in_process
    assert [r["suite"] for r in forked] == list(verify.SUITES)


def test_an_error_in_the_forked_tame_suite_is_raised_here(monkeypatch):
    def boom(seed=0):
        raise ArithmeticError("boom")

    monkeypatch.setattr(verify, "suite_tame", boom)
    forks = count_forks(monkeypatch)
    with pytest.raises(ArithmeticError, match="^boom$"):
        verify.run_suites(["loccoh", "tame"])
    assert_no_child_left()
    assert len(forks) == FORKS_HERE


FAKE_TAME = {"suite": "tame", "checks": [{"name": "run in this process", "status": "pass"}]}

# what the tame suite does in the child only; each ends the child without a report
CHILD_FAILURES = {
    "exit 1": lambda: os._exit(1),
    "exit 0 before writing": lambda: os._exit(0),  # the parent reads nothing
    "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
    # marshal cannot write a Fraction; run in this process, it is a valid report
    "unmarshallable report": lambda: {**FAKE_TAME, "detail": Fraction(1, 3)},
}


@pytest.mark.parametrize("failure", sorted(CHILD_FAILURES))
def test_a_child_that_fails_to_report_is_replaced_by_an_in_process_run(monkeypatch, failure):
    here = os.getpid()
    in_child = CHILD_FAILURES[failure]
    in_here = in_child() if failure == "unmarshallable report" else FAKE_TAME
    monkeypatch.setattr(verify, "suite_tame",
                        lambda seed=0: in_here if os.getpid() == here else in_child())
    forks = count_forks(monkeypatch)
    reports = verify.run_suites(["loccoh", "tame"])
    assert_no_child_left()
    assert len(forks) == FORKS_HERE
    assert reports == [verify.suite_loccoh(), in_here]


def test_the_suites_run_in_process_when_no_process_can_be_started(monkeypatch):
    monkeypatch.setattr(verify, "suite_tame", lambda seed=0: FAKE_TAME)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)

    def fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    assert verify.run_suites(["tame", "loccoh"]) == [FAKE_TAME, verify.suite_loccoh()]
    assert_no_child_left()


def test_the_child_is_killed_when_this_process_raises(monkeypatch):
    here = os.getpid()

    def tame(seed=0):
        if os.getpid() != here:
            time.sleep(60)
        return FAKE_TAME

    def loccoh():
        raise RuntimeError("stop")

    monkeypatch.setattr(verify, "suite_tame", tame)
    monkeypatch.setattr(verify, "suite_loccoh", loccoh)
    forks = count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^stop$"):
        verify.run_suites(["tame", "loccoh"])
    assert time.monotonic() - start < 30
    assert_no_child_left()
    assert len(forks) == FORKS_HERE


def verify_all_json(capfd) -> None:
    """cli verify --suite all prints one JSON document, the recorded one."""
    code = cli.main(["--format", "json", "verify", "--suite", "all"])
    out = capfd.readouterr().out  # file-descriptor level, so a child's writes would show
    assert code == 0
    json.loads(out)  # raises on a second document
    recorded = json.loads(RECORDED.read_text())["verify_seed0_json_sha256"]
    assert hashlib.sha256(out.encode()).hexdigest() == recorded


@pytest.mark.skipif(not FORKS_HERE, reason="the tame suite forks only on two usable CPUs")
def test_verify_all_forks_once_and_prints_one_json_document(monkeypatch, capfd):
    forks = count_forks(monkeypatch)
    verify_all_json(capfd)
    assert_no_child_left()
    assert len(forks) == 1


@pytest.mark.parametrize("condition", ["tame alone", "one usable CPU", "a second thread"])
def test_verify_runs_in_process_when_a_fork_would_not_help(monkeypatch, capfd, condition):
    forks = count_forks(monkeypatch)
    if condition == "tame alone":
        assert cli.main(["--format", "json", "verify", "--suite", "tame"]) == 0
        json.loads(capfd.readouterr().out)
    elif condition == "one usable CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        verify_all_json(capfd)
    else:
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            verify_all_json(capfd)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
    assert forks == []
