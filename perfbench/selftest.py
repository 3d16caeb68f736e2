"""Self-tests of the benchmark (not of the library).

    PYTHONPATH=src python3 perfbench/selftest.py

1. Wrong answers are caught: each workload's checker counts a
   deliberately wrong answer as failed and reports it.
2. The tracer sees calls made through re-exported names: the tame suite
   at seed 0 calls decompose_certified exactly 100 times, all of them
   through the name cubics imports from quiver.
3. A traced name that no longer resolves is an error, not a zero.
4. The speed probe runs while a stretch of code runs, its plain time
   leaves the probes' own time out, and its clock stands still outside
   stretches.

Takes about ten seconds; exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json

import worker
from layertrace import Tracer


def test_wrong_answers_are_failed() -> None:
    from binarycubics import characters as ch, catalog, cubics, quiver as qv

    bad = json.dumps({"reports": [{"suite": "x", "checks": [
        {"name": "ok", "status": "pass"}, {"name": "bad", "status": "fail"}]}]})
    got = worker.check_verify(1, bad)
    assert got["attempted"] == 2 and got["failed"] == 1 and len(got["wrong"]) == 3, got

    names = ("S", "Q0delta")
    tables = {n: ch.truncate(catalog.character_of(n), *worker.BOX) for n in names}
    queries = [("S", (9, 0)), ("S", (12, 3)), ("Q0delta", (200, 0))]
    answers = [catalog.character_of("S").mult(lam) for _, lam in queries[:2]] + [None]
    got = worker.check_chars(tables, queries, answers)
    assert got["failed"] == 1 and not got["wrong"], got  # NoStabilization: failed, not wrong
    tables["S"] = {**tables["S"], (0, 0): 2}
    answers[1] += 1
    got = worker.check_chars(tables, queries, answers)
    assert got["failed"] == 3 and len(got["wrong"]) == 2, got

    R = cubics.rn_family(2, 3)
    assert worker.check_decompose("d4hat", 2, [(R, True), (R, True)]) is None
    assert worker.check_decompose("d4hat", 2, [(qv.direct_sum(R, R), True)]) is not None
    assert worker.check_decompose("d4hat", 2, [(R, True), (R, False)]) is not None
    assert worker.check_decompose("end", 8, [None] * 7) is not None


def test_traced_counts_are_exact() -> None:
    from binarycubics import cli

    tracer = Tracer()
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--format", "json", "--seed", "0", "verify", "--suite", "tame"])
    assert code == 0, code
    metrics = tracer.metrics()
    assert metrics["quiver.decompose_certified.calls"] == 100, metrics
    assert metrics["cubics.random_big_component_rep.calls"] == 100, metrics
    assert metrics["quiver.is_isomorphic.calls"] > 0, metrics
    assert metrics["characters.Character.mult.calls"] == 0, metrics


def test_speed_probe() -> None:
    import time

    speed = worker.SpeedProbe()
    start, clock0 = time.perf_counter(), speed.clock()
    with speed:
        while time.perf_counter() - start < 0.5:
            sum(i * i for i in range(1000))
    wall, clock1 = time.perf_counter() - start, speed.clock()
    assert len(speed.probes) >= 5 + 3, speed.probes
    assert abs(wall - speed.elapsed_s - sum(speed.probes)) < 0.01, (wall, speed.elapsed_s)
    assert clock1 > clock0, (clock0, clock1)
    time.sleep(0.01)
    assert speed.clock() == clock1, "the clock must stand still outside a stretch"


def test_missing_target_is_an_error() -> None:
    from binarycubics import ratlinalg

    original = ratlinalg.eval_poly
    del ratlinalg.eval_poly
    try:
        Tracer().install()
    except LookupError as exc:
        assert "eval_poly" in str(exc), exc
    else:
        raise AssertionError("a missing traced target must raise LookupError")
    finally:
        ratlinalg.eval_poly = original


if __name__ == "__main__":
    # the last test leaves wrappers installed, so it runs last
    for test in (test_wrong_answers_are_failed, test_traced_counts_are_exact,
                 test_speed_probe, test_missing_target_is_an_error):
        test()
        print(f"ok  {test.__name__}")
