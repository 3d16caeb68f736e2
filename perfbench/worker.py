"""One benchmark pass in a fresh, single-threaded interpreter.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED PASS TRACE

WORKLOAD is verify, chars, decompose or setup (import and named-quiver
build only).  The pass draws its inputs from (SEED, PASS), runs them
against src/, checks the answers and prints one JSON line with its
timings, peak RSS, attempted/failed operation counts and any wrong
answers.  A fresh process per pass is what a command-line user gets:
the library's memo tables (catalog._characters, Character._cache,
cubics._cache) start empty and are never reset from here.  TRACE=1
installs the per-layer wrappers of layertrace.py before the body runs.

The set-up and the body are timed with a SpeedProbe, in seconds at a
fixed machine speed read against a probe computation run alongside;
see SpeedProbe for why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: acceptance box of the character tables
BOX = (-30, 30)
#: chars: queries per character name per pass (a multiple of 3), and the
#: largest gap l1 - l2
QUERIES_PER_NAME = 21
MAX_GAP = 600
#: chars: the names whose multiplicities go through the sampled
#: localization (Q1, Q2 are shifts of Q0delta), the only ones that can
#: raise NoStabilization
LOCALIZED = ("Q0delta", "Q1", "Q2")
#: decompose: the seeded parameters are drawn from this range
PARAMS = range(-9, 10)


#: the probe: fixed exact arithmetic of the kind the library does, 0.5-1 ms
PROBE_TERMS = [Fraction(i % 17 - 8, i % 5 + 1) for i in range(200)]
#: seconds between probes while a measured stretch runs
PROBE_INTERVAL_S = 0.05
#: the reference speed of the reported times: one probe() per this many
#: seconds, about the fastest probe seen on a 2-vCPU x86-64 VM under
#: Python 3.11
PROBE_REF_S = 0.0005


def probe() -> Fraction:
    total = Fraction(0)
    for x in PROBE_TERMS:
        total += x * x
    return total


class SpeedProbe:
    """A clock in seconds at a fixed machine speed, read against a probe.

    The benchmark runs on a shared machine whose speed drifts by up to
    1.7x over seconds to minutes, for every process alike, so plain
    times of the same code differ by that much between runs.  While a
    stretch of code runs under `with speed:` (speed a SpeedProbe), a
    SIGALRM every PROBE_INTERVAL_S seconds times one fixed probe() (the
    median of three when the stretch starts), and the program time up
    to the next probe is divided by it: that is the time in probes at
    the speed the machine had just then.  clock() counts these in
    seconds at the reference speed PROBE_REF_S; it stands still outside
    stretches and during probes.  `elapsed_s` is the same program time
    in plain seconds.
    """

    def __init__(self):
        self.units = 0.0
        self.elapsed_s = 0.0
        self.probes: list[float] = []
        self._mark = self._last = None
        self._ticks = 0
        self._probing = False
        for _ in range(3):  # warm up
            probe()

    def clock(self) -> float:
        while True:  # read again if a probe ran meanwhile
            ticks = self._ticks
            units, mark, last = self.units, self._mark, self._last
            now = time.perf_counter()
            if ticks == self._ticks:
                break
        if last is not None:
            units += (now - mark) / last
        return units * PROBE_REF_S

    def _account(self, now: float) -> None:
        if self._last is not None:
            self.elapsed_s += now - self._mark
            self.units += (now - self._mark) / self._last

    def _tick(self, *_signal, repeats: int = 1) -> None:
        if self._probing:
            return
        self._probing = True
        self._ticks += 1
        self._account(time.perf_counter())
        self._last = None  # the clock stands still during the probe
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            probe()
            times.append(time.perf_counter() - start)
        self.probes += times
        self._last = sorted(times)[repeats // 2]
        self._mark = time.perf_counter()
        self._ticks += 1
        self._probing = False

    def __enter__(self) -> "SpeedProbe":
        self._tick(repeats=3)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._ticks += 1
        self._account(time.perf_counter())
        self._last = self._mark = None


def recorded() -> dict:
    return json.loads((HERE / "recorded.json").read_text())


def setup() -> None:
    """Import the package and build every named quiver."""
    from binarycubics import cubics

    for name in cubics.NAMED_QUIVERS:
        cubics.build(name)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def table_digests(tables: dict) -> dict[str, str]:
    return {name: _digest(sorted([list(w), m] for w, m in table.items()))
            for name, table in tables.items()}


# -- verify: the full verification run a user makes, at the CLI's default seed

VERIFY_ARGV = ["--format", "json", "--seed", "0", "verify", "--suite", "all"]


def run_verify(seed: int, pass_index: int, speed: SpeedProbe) -> dict:
    from binarycubics import cli, verify

    phases: dict[str, float] = {}
    for suite in verify.SUITES:
        original = getattr(verify, f"suite_{suite}")

        def timed(*args, _original=original, _suite=suite, **kwargs):
            start = speed.clock()
            try:
                return _original(*args, **kwargs)
            finally:
                phases[f"{_suite}_s"] = speed.clock() - start

        setattr(verify, f"suite_{suite}", timed)

    out = io.StringIO()
    with speed, contextlib.redirect_stdout(out):
        code = cli.main(list(VERIFY_ARGV))
    rss = peak_rss_mb()
    return {"peak_rss_mb": rss, "phases": phases, **check_verify(code, out.getvalue())}


def check_verify(code: int, output: str) -> dict:
    """Every check passes and the output is byte-identical to the recorded run."""
    checks = [c for r in json.loads(output)["reports"] for c in r["checks"]]
    wrong = [f"verify check {c['name']!r}: {c['status']}" for c in checks if c["status"] != "pass"]
    if code != 0:
        wrong.append(f"verify exit code {code}")
    if hashlib.sha256(output.encode()).hexdigest() != recorded()["verify_seed0_json_sha256"]:
        wrong.append("verify json output differs from the recorded seed-commit output")
    return {"attempted": len(checks),
            "failed": sum(c["status"] == "fail" for c in checks),
            "inconclusive": sum(c["status"] == "inconclusive" for c in checks),
            "wrong": wrong}


# -- chars: box tables of all 19 names, then seeded multiplicity queries

def chars_queries(seed: int, pass_index: int, names) -> list[tuple[str, tuple[int, int]]]:
    """QUERIES_PER_NAME queries per name, stratified so that the work in a
    pass varies little from seed to seed.

    Every name is drawn equally often, l1 + l2 lies in [-60, 60], and
    for each residue of l1 + l2 mod 3 the gaps cover [0, MAX_GAP]
    evenly (one uniform draw per stratum).  The residue matters because
    the D-type counts vanish off one class, so with a free residue the
    number of costly queries in a pass would be binomial.  The queries
    on the LOCALIZED names depend on the pass but not on the seed: which
    of them raise NoStabilization turns on the exact weight, so this
    keeps the number of failed operations of a run the same for every
    seed.  The order is shuffled.
    """
    rng = random.Random(f"chars/{seed}/{pass_index}")
    localized_rng = random.Random(f"chars/localized/{pass_index}")
    queries = []
    strata = QUERIES_PER_NAME // 3
    width = (MAX_GAP + 1) / strata
    for name in names:
        draw = localized_rng if name in LOCALIZED else rng
        for residue in range(3):
            for k in range(strata):
                gap = int((k + draw.random()) * width)
                l2 = draw.randint(-30, 28) - gap // 2
                while (2 * l2 + gap - residue) % 3:
                    l2 += 1
                queries.append((name, (l2 + gap, l2)))
    rng.shuffle(queries)
    return queries


def run_chars(seed: int, pass_index: int, speed: SpeedProbe) -> dict:
    from binarycubics import catalog, characters as ch

    names = catalog.all_character_names()
    queries = chars_queries(seed, pass_index, names)
    clock = speed.clock
    latencies, answers = [], []
    with speed:
        start = clock()
        tables = {name: ch.truncate(catalog.character_of(name), *BOX) for name in names}
        table_s = clock() - start
        for name, lam in queries:
            t0 = clock()
            try:
                value = catalog.character_of(name).mult(lam)
            except ch.NoStabilization:
                value = None
            latencies.append(clock() - t0)
            answers.append(value)
    rss = peak_rss_mb()
    return {"peak_rss_mb": rss,
            "phases": {"table_s": table_s},
            "latencies_s": latencies,
            **check_chars(tables, queries, answers)}


def check_chars(tables: dict, queries, answers) -> dict:
    """Tables match the recorded digests; simples are non-negative; S
    agrees with the Fourier image of the independent closed form E.

    A query that raised NoStabilization (answer None) is a failed
    operation but not a wrong answer; a wrong answer is both.
    """
    from binarycubics import catalog, characters as ch

    wrong = []
    want = recorded()["chars_table_sha256"]
    for name, digest in table_digests(tables).items():
        if digest != want.get(name):
            wrong.append(f"table of {name} on the box differs from the recorded digest")
    unstable = 0
    for (name, lam), value in zip(queries, answers):
        if value is None:
            unstable += 1
        elif name in catalog.SIMPLES and value < 0:
            wrong.append(f"{name}{lam} = {value} < 0")
        elif name == "S":
            other = catalog.character_of("E").mult(ch.fourier_weight(lam))
            if value != other:
                wrong.append(f"S{lam} = {value} but E(fourier_weight) = {other}")
    return {"attempted": len(tables) + len(queries), "failed": unstable + len(wrong),
            "wrong": wrong}


# -- decompose: a few large exact systems on d4hat and big_component

def decompose_inputs(seed: int, pass_index: int) -> list[tuple[str, int, int, int]]:
    """(kind, n, lambda, mu) per operation, lambda != mu drawn per operation."""
    rng = random.Random(f"decompose/{seed}/{pass_index}")
    kinds = [("d4hat", 2), ("d4hat", 3), ("d4hat", 4),
             ("big_component", 1), ("big_component", 2), ("end", 8)]
    return [(kind, n, *rng.sample(PARAMS, 2)) for kind, n in kinds]


def decompose_op(kind: str, n: int, lam: int, mu: int):
    from binarycubics import cubics, quiver as qv

    if kind == "d4hat":
        return qv.decompose_certified(qv.direct_sum(cubics.rn_family(n, lam), cubics.rn_family(n, mu)))
    if kind == "big_component":
        return qv.decompose_certified(qv.direct_sum(
            cubics.embed_alpha(cubics.rn_family(n, lam)), cubics.embed_beta(cubics.rn_family(n, mu))))
    R = cubics.embed_alpha(cubics.rn_family(n, lam))
    return qv.hom_basis(R, R)


def check_decompose(kind: str, n: int, result) -> str | None:
    """None when right, else what is wrong."""
    if kind == "end":
        return None if len(result) == n else f"dim End(embed_alpha(R_{n})) = {len(result)}, want {n}"
    want = (n, n, n, n, 2 * n)
    got = sorted((W.dim_vector(), certified) for W, certified in result)
    if got != [(want, True), (want, True)]:
        return f"{kind} n={n}: summands {got}, want two certified {want}"
    return None


def run_decompose(seed: int, pass_index: int, speed: SpeedProbe) -> dict:
    ops = decompose_inputs(seed, pass_index)
    phases = {"d4hat_s": 0.0, "big_component_s": 0.0, "end_s": 0.0}
    results = []
    with speed:
        for kind, n, lam, mu in ops:
            t0 = speed.clock()
            results.append(decompose_op(kind, n, lam, mu))
            phases[f"{kind}_s"] += speed.clock() - t0
    rss = peak_rss_mb()
    wrong = [w for (kind, n, _, _), r in zip(ops, results)
             if (w := check_decompose(kind, n, r)) is not None]
    return {"peak_rss_mb": rss, "phases": phases,
            "attempted": len(ops), "failed": len(wrong), "wrong": wrong}


WORKLOADS = {"verify": run_verify, "chars": run_chars, "decompose": run_decompose}


def probed(speed: SpeedProbe, fn) -> float:
    """Run fn() under the probe; its time in seconds at the reference speed."""
    before = speed.clock()
    with speed:
        fn()
    return speed.clock() - before


def main(argv: list[str]) -> int:
    workload, seed, pass_index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    speed = SpeedProbe()
    result = {"setup_s": probed(speed, setup)}
    if workload != "setup":
        tracer = None
        if trace:
            from layertrace import Tracer

            # sympy is imported lazily by the program; import it apart so
            # the tracing overhead can be told from the import
            result["sympy_import_s"] = probed(speed, lambda: importlib.import_module("sympy"))
            tracer = Tracer(clock=speed.clock)
            result["install_s"] = probed(speed, tracer.install)
        before, elapsed = speed.clock(), speed.elapsed_s
        result.update(WORKLOADS[workload](seed, pass_index, speed))
        result["wall_s"] = speed.clock() - before
        result["clock_s"] = speed.elapsed_s - elapsed
        result["imports_sympy"] = "sympy" in sys.modules
        if tracer is not None:
            result["trace"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
