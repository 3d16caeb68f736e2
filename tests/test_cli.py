"""Command-line surface tests: parsing, output formats, exit codes,
representation files."""

import hashlib
import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

from binarycubics import cli, cubics, quiver as qv

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "perfbench" / "recorded.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, expected", [
    (("mult", "D0", "-1", "-5"), "1"),
    (("mult", "P", "3", "-3"), "1"),
    (("mult", "S", "1", "0"), "0"),
    (("mult", "F-1", "-7", "-7"), "1"),
    (("mult", "SdeltaModS", "-6", "-6"), "1"),
    (("mult", "Q0delta", "300", "-300"), "200"),
    (("mult", "Q0delta", "0", "-330"), "110"),
    (("mult", "P", "4800", "-4800"), "1601"),
])
def test_mult_values(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


def test_mult_unknown_name(capsys):
    code, _, err = run(capsys, "mult", "Z9", "0", "0")
    assert code == 2
    assert "unknown character" in err


def test_malformed_weight(capsys):
    code, _, _ = run(capsys, "mult", "S", "zero", "0")
    assert code == 2


def test_table_output(capsys):
    code, out, _ = run(capsys, "table", "S", "--lo", "-2", "--hi", "8")
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["(0,0)"] == "1"
    assert lines["(6,3)"] == "1"
    assert len(lines) == 8


def test_table_json_stable(capsys):
    code1, out1, _ = run(capsys, "--format", "json", "table", "E", "--lo", "-12", "--hi", "0")
    code2, out2, _ = run(capsys, "--format", "json", "table", "E", "--lo", "-12", "--hi", "0")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    entries = [tuple(w) for w, _ in payload["entries"]]
    assert entries == sorted(entries)
    assert [[-6, -6], 1] in payload["entries"]


def test_quiver_paths(capsys):
    code, out, _ = run(capsys, "quiver", "paths", "paper_full", "e", "s")
    assert code == 0
    assert out.strip() == "alpha3 beta1"


def test_quiver_trivial_path(capsys):
    code, out, _ = run(capsys, "quiver", "paths", "d4hat", "5", "5")
    assert code == 0
    assert out.strip() == "e_5"


def test_quiver_injective(capsys):
    code, out, _ = run(capsys, "--format", "json", "quiver", "injective", "paper_full", "s")
    assert code == 0
    dims = json.loads(out)["dims"]
    assert {v: d for v, d in dims.items() if d} == {"s": 1, "p": 1, "e": 1}


def test_quiver_ext1(capsys):
    code, out, _ = run(capsys, "quiver", "ext1", "paper_full", "d1", "g1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "quiver", "ext1", "paper_full", "e", "s")
    assert code == 0 and out.strip() == "0"


def test_quiver_bad_vertex(capsys):
    code, _, err = run(capsys, "quiver", "ext1", "paper_full", "zz", "s")
    assert code == 2 and "unknown vertex" in err


@pytest.mark.parametrize("route", ["quiver", "rep"])
def test_unknown_quiver_name_lists_the_named_quivers(tmp_path, capsys, route):
    if route == "quiver":
        code, _, err = run(capsys, "quiver", "paths", "separated", "1", "2")
    else:
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"quiver": "separated", "dims": {}}))
        code, _, err = run(capsys, "rep", "decompose", str(path))
    assert code == 2
    assert ("unknown quiver 'separated'; expected one of "
            "paper_full, big_component, d4hat, two_vertex_pair") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    ('{"quiver": "separated", "dims": {}}',
     "unknown quiver 'separated'; expected one of "
     "paper_full, big_component, d4hat, two_vertex_pair"),
    ('{"quiver": "d4hat"}', 'missing key "dims"'),
    ('{"dims": {}}', 'missing key "quiver"'),
    ('{"quiver": {"arrows": []}, "dims": {}}', 'missing key "vertices"'),
], ids=["unknown_quiver", "no_dims", "no_quiver", "no_vertices"])
def test_rep_key_errors_print_their_message(tmp_path, capsys, content, message):
    path = tmp_path / "rep.json"
    path.write_text(content)
    code, _, err = run(capsys, "rep", "decompose", str(path))
    assert code == 2
    assert err == f"error: bad representation file: {message}\n"


def test_rep_decompose_peels_simple_summands_as_before(tmp_path, capsys):
    # S_1 + S_1 + S_5 + P_1 + alpha(R_2(0)) on big_component, conjugated: the
    # rows are those decompose_certified gave before simples were peeled
    bq = cubics.build("big_component")
    parts = [bq.simple("1"), bq.simple("1"), bq.simple("5"), bq.projective("1"),
             cubics.embed_alpha(cubics.rn_family(2, 0))]
    V = qv.conjugate(reduce(qv.direct_sum, parts), seed=3)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(qv.rep_to_dict(V)))
    code, out, _ = run(capsys, "--format", "json", "rep", "decompose", str(path))
    assert code == 0
    assert [(s["dims"], s["verdict"]) for s in json.loads(out)["summands"]] == [
        ([0, 0, 0, 0, 1], "indecomposable"), ([1, 0, 0, 0, 0], "indecomposable"),
        ([1, 0, 0, 0, 0], "indecomposable"), ([1, 1, 0, 0, 1], "indecomposable"),
        ([2, 2, 2, 2, 4], "indecomposable")]


def test_rep_decompose_file(tmp_path, capsys):
    V = qv.direct_sum(cubics.rn_family(1, 2), cubics.build("d4hat").simple("1"))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(qv.rep_to_dict(V)))
    code, out, _ = run(capsys, "--format", "json", "rep", "decompose", str(path))
    assert code == 0
    summands = json.loads(out)["summands"]
    assert sorted(tuple(s["dims"]) for s in summands) == [(1, 0, 0, 0, 0), (1, 1, 1, 1, 2)]
    assert all(s["verdict"] == "indecomposable" for s in summands)


def test_rep_decompose_lists_summands_by_dims_in_every_format(tmp_path, capsys):
    bq = cubics.build("d4hat")
    V = qv.direct_sum(qv.direct_sum(bq.simple("5"), cubics.rn_family(1, 2)), bq.simple("1"))
    stack_order = [W.dim_vector() for W, _ in qv.decompose_certified(V)]
    assert stack_order != sorted(stack_order)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(qv.rep_to_dict(V)))
    listed = {}
    for fmt in ("json", "text", "tsv"):
        code, out, _ = run(capsys, "--format", fmt, "rep", "decompose", str(path))
        assert code == 0
        if fmt == "json":
            listed[fmt] = [(tuple(s["dims"]), s["verdict"]) for s in json.loads(out)["summands"]]
        elif fmt == "text":
            listed[fmt] = [(tuple(int(d) for d in dims.strip("()").split(",")), verdict)
                           for dims, verdict in (line.split() for line in out.splitlines())]
        else:
            listed[fmt] = [(tuple(int(d) for d in row[:-1]), row[-1])
                           for row in (line.split("\t") for line in out.splitlines())]
    assert listed["json"] == listed["text"] == listed["tsv"]
    assert [dims for dims, _ in listed["json"]] == sorted(stack_order)


def test_rep_decompose_inline_quiver(tmp_path, capsys):
    bq = cubics.build("two_vertex_pair")
    V = qv.direct_sum(bq.projective("1"), bq.simple("2"))
    data = qv.rep_to_dict(V)
    data["quiver"] = qv.quiver_to_dict(bq)
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "rep", "decompose", str(path))
    assert code == 0
    assert "indecomposable" in out


def test_rep_unreadable_file(capsys):
    code, _, err = run(capsys, "rep", "decompose", "/nonexistent/rep.json")
    assert code == 2 and "cannot read" in err


def test_rep_bad_json(tmp_path, capsys):
    contents = {
        "syntax": "{not json",
        "long-integer": "1" * 5000,  # json.load raises a bare ValueError past 4,300 digits
        "deep-nesting": "[" * 100_000,  # and RecursionError on deep nesting
    }
    for label, content in contents.items():
        path = tmp_path / f"{label}.json"
        path.write_text(content)
        code, _, err = run(capsys, "rep", "decompose", str(path))
        assert code == 2 and "is not valid JSON" in err, label


def test_rep_non_utf8_file(tmp_path, capsys):
    # a UTF-16 byte-order mark and a brace: not UTF-8, so a usage error, not a traceback
    path = tmp_path / "utf16.json"
    path.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x7B]))
    code, _, err = run(capsys, "rep", "decompose", str(path))
    assert code == 2 and "cannot read" in err and "utf-8" in err


def test_verify_loccoh_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "loccoh")
    assert code == 0
    assert "FAIL" not in out and "INCONCLUSIVE" not in out
    assert "suite loccoh:" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--suite", "loccoh")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert reports[0]["suite"] == "loccoh"
    for check in reports[0]["checks"]:
        assert set(check) <= {"name", "status", "witness"}
        assert check["status"] == "pass"


def test_verify_all_suites_exit_zero(capsys):
    # the fixed-seed JSON output is byte-identical to the recorded answers
    code, out, _ = run(capsys, "--format", "json", "--seed", "0", "verify", "--suite", "all")
    assert code == 0
    recorded = json.loads(RECORDED.read_text())["verify_seed0_json_sha256"]
    assert hashlib.sha256(out.encode()).hexdigest() == recorded
    reports = json.loads(out)["reports"]
    assert [r["suite"] for r in reports] == ["characters", "quiver", "loccoh", "tame"]
    assert all(c["status"] == "pass" for r in reports for c in r["checks"])


def test_verify_exit_codes_for_nonpass_reports(capsys, monkeypatch):
    from binarycubics import verify

    def fake(names, seed=0):
        return [{"suite": "tame", "checks": [
            {"name": "rate", "status": "inconclusive", "witness": "3 of 40"}]}]

    monkeypatch.setattr(verify, "run_suites", fake)
    code, out, _ = run(capsys, "verify", "--suite", "tame")
    assert code == 3 and "INCONCLUSIVE" in out

    def fake_fail(names, seed=0):
        return [{"suite": "tame", "checks": [
            {"name": "cases", "status": "fail"},
            {"name": "rate", "status": "inconclusive"}]}]

    monkeypatch.setattr(verify, "run_suites", fake_fail)
    code, _, _ = run(capsys, "verify", "--suite", "tame")
    assert code == 1  # failure outranks inconclusive


@pytest.mark.parametrize("content", [
    '{"quiver": "d4hat", "dims": {}, "maps": {"alpha1": 5}}',
    '[1, 2]',
    '{"quiver": "d4hat", "dims": {"1": "one"}}',
    '{"quiver": "d4hat", "dims": [1, 1, 1, 1, 2]}',
    '{"quiver": "d4hat", "dims": {"1": 1, "5": 2}, "maps": {"alpha1": [1, 0]}}',
    '{"quiver": 5, "dims": {}}',
    '{"quiver": "d4hat", "dims": {"1": 1, "5": 2}, "maps": {"zzz": [["1"]]}}',
    '{"quiver": {"vertices": ["a"], "arrows": [["x", "a"]]}, "dims": {}}',
    '{"quiver": {"vertices": ["a"], "arrows": [], "max_path_length": 0}, "dims": {}}',
    # wrong shapes at a zero-dimensional vertex
    '{"quiver": "d4hat", "dims": {"1": 0, "5": 1}, "maps": {"alpha1": [[1, 2]]}}',
    '{"quiver": "d4hat", "dims": {"1": 2, "5": 0}, "maps": {"alpha1": [[1, 2], [3, 4]]}}',
])
def test_rep_bad_schema(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, _, err = run(capsys, "rep", "decompose", str(path))
    assert code == 2
    assert "bad representation file" in err and "Traceback" not in err


def test_rep_inline_quiver_with_unknown_arrow_in_a_relation(tmp_path, capsys):
    path = tmp_path / "inline.json"
    path.write_text(json.dumps({
        "quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]],
                   "relations": [[[1, ["a", "zz"]]]]},
        "dims": {"1": 1, "2": 1}, "maps": {"a": [["1"]]}}))
    code, _, err = run(capsys, "rep", "decompose", str(path))
    assert code == 2
    assert "bad representation file" in err and "unknown arrow 'zz'" in err
    assert "Traceback" not in err


def test_rep_inline_quiver_with_a_short_relation_prints_it_as_written(tmp_path, capsys):
    path = tmp_path / "inline.json"
    path.write_text(json.dumps({
        "quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]],
                   "relations": [[["1", ["a"]]]]},
        "dims": {"1": 1, "2": 1}, "maps": {"a": [["1"]]}}))
    code, _, err = run(capsys, "rep", "decompose", str(path))
    assert code == 2
    assert err == ('error: bad representation file: relation [["1", ["a"]]] '
                   "involves a path of length < 2\n")
    assert "Fraction(" not in err


@pytest.mark.parametrize("entry", ['"1.5"', "1.5", "1.0", '"1e3"', '"1/0"', '" 1"', "true"])
def test_rep_rejects_inexact_entries(tmp_path, capsys, entry):
    path = tmp_path / "decimal.json"
    path.write_text('{"quiver": "d4hat", "dims": {"1": 1, "5": 2}, '
                    '"maps": {"alpha1": [[%s], ["0"]]}}' % entry)
    code, _, err = run(capsys, "rep", "decompose", str(path))
    assert code == 2
    assert "bad representation file" in err and "Traceback" not in err


def test_rep_accepts_integers_and_fraction_strings(tmp_path, capsys):
    path = tmp_path / "exact.json"
    path.write_text('{"quiver": "d4hat", "dims": {"1": 1, "5": 2}, '
                    '"maps": {"alpha1": [[3], ["-5/7"]]}}')
    code, out, _ = run(capsys, "rep", "decompose", str(path))
    assert code == 0 and "indecomposable" in out


def test_python_m_binarycubics_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "binarycubics", "--format", "json", "--seed", "0",
                           "verify", "--suite", "loccoh"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert [r["suite"] for r in json.loads(done.stdout)["reports"]] == ["loccoh"]
