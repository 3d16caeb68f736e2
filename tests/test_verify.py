"""The verification layer's check records and scans."""

from binarycubics import catalog, verify


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

