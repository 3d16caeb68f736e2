"""Catalog tests: pairings, characters of the 14 simples, composition
series, local cohomology tables, and the self-verification report."""

import hashlib
import json
from pathlib import Path

import pytest

from binarycubics import catalog, characters as ch, ratlinalg as rl, verify

RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "recorded.json"


class TestPairings:
    def test_exactly_fourteen_simples(self):
        assert len(catalog.SIMPLES) == 14
        assert len(set(catalog.SIMPLES)) == 14

    def test_support_partition(self):
        by_orbit = {}
        for name in catalog.SIMPLES:
            by_orbit.setdefault(catalog.SUPPORT[name], []).append(name)
        assert len(by_orbit["O4"]) == 9
        assert by_orbit["O3"] == ["P"]
        assert sorted(by_orbit["O2"]) == ["D0", "D1", "D2"]
        assert by_orbit["O0"] == ["E"]

    def test_orbit_local_system_counts(self):
        counts = {o.name: o.local_systems for o in catalog.ORBITS}
        assert counts == {"O0": 1, "O2": 3, "O3": 1, "O4": 9}
        assert sum(counts.values()) == 14
        assert {o.name: o.dim for o in catalog.ORBITS} == {"O0": 0, "O2": 2, "O3": 3, "O4": 4}

    def test_fourier_pairing(self):
        assert catalog.fourier_partner("S") == "E"
        assert catalog.fourier_partner("P") == "P"
        assert catalog.fourier_partner("G3") == "G3"
        assert catalog.fourier_partner("D0") == "Q0"
        for x in catalog.SIMPLES:
            assert catalog.fourier_partner(catalog.fourier_partner(x)) == x

    def test_duality_pairing(self):
        assert catalog.dual_partner("G3") == "G3"
        assert catalog.dual_partner("D1") == "D2"
        assert catalog.dual_partner("G1") == "G-1"
        for x in ("S", "Q0", "P", "D0", "E"):
            assert catalog.dual_partner(x) == x
        for x in catalog.SIMPLES:
            assert catalog.dual_partner(catalog.dual_partner(x)) == x

    def test_unknown_simple_rejected(self):
        with pytest.raises(KeyError):
            catalog.fourier_partner("X")
        with pytest.raises(KeyError):
            catalog.character_of("nope")


class TestCharacters:
    @pytest.mark.parametrize("name, lam, expected", [
        ("P", (3, -3), 1),
        ("P", (-6, -9), 0),
        ("G3", (3, 3), 1),          # shift of <[Sdelta], e^(0,0)> = 1
        ("Q1", (0, -2), 1),
        ("D1", (-5, -5), 1),
        ("E", (-6, -9), 1),
        ("S", (3, 0), 1),
        ("Q0", (0, -3), 0),
        ("Sdelta", (3, -3), 1),
        ("Q0delta", (-2, -4), 1),
        ("F1", (1, 1), 1),
        ("F1", (-5, -5), 1),
        ("SdeltaModS", (-6, -6), 1),
    ])
    def test_frozen_multiplicities(self, name, lam, expected):
        assert catalog.character_of(name).mult(lam) == expected

    def test_character_instances_shared(self):
        assert catalog.character_of("S") is catalog.character_of("S")

    def test_composition_series_on_box(self):
        for fact in catalog.COMPOSITION_SERIES:
            ambient = catalog.character_of(fact.ambient)
            first, *rest = fact.factors
            total = catalog.character_of(first)
            for name in rest:
                total = total + catalog.character_of(name)
            assert ch.first_disagreement(ambient, total, -15, 15) is None, fact.ambient

    def test_fourier_coherence_small_box(self):
        for check in catalog.fourier_coherence(-12, 12):
            assert check["status"] == "pass", check

    def test_p_nonnegative(self):
        p = catalog.character_of("P")
        assert all(p.mult(lam) >= 0 for lam in ch.box_weights(-15, 15))

    def test_box_tables_match_recorded_digests(self):
        # the 19 tables on the -30..30 box against perfbench/recorded.json
        # (read only), hashed by the rule of perfbench/worker.table_digests
        recorded = json.loads(RECORDED.read_text())["chars_table_sha256"]
        digests = {}
        for name in catalog.all_character_names():
            table = ch.truncate(catalog.character_of(name), -30, 30)
            payload = json.dumps(sorted([list(w), m] for w, m in table.items()), sort_keys=True)
            digests[name] = hashlib.sha256(payload.encode()).hexdigest()
        assert len(digests) == 19
        assert digests == recorded


class TestInjectiveEnvelopes:
    @staticmethod
    def rank_of_simples(lo, hi):
        weights = list(ch.box_weights(lo, hi))
        rows = [[catalog.character_of(name).mult(lam) for lam in weights]
                for name in catalog.SIMPLES]
        return len(weights), rl.rank(rl.mat(rows, len(rows), len(weights)))

    def test_simple_characters_independent_on_the_envelope_box(self):
        # rank 14 on the 91 dominant weights of (-6, 6), so a character
        # there fixes its composition-factor multiset; (-5, 5) is too small
        assert self.rank_of_simples(*verify.ENVELOPE_BOX) == (91, 14)
        assert self.rank_of_simples(-5, 5) == (66, 13)

    def test_unknown_simple_rejected(self):
        for name in ("X", "Sdelta"):
            with pytest.raises(KeyError):
                catalog.injective_envelope_character(name)


class TestLocalCohomology:
    @pytest.mark.parametrize("name, support, k, expected", [
        ("S", "O2bar", 2, ("D0",)),
        ("P", "O2bar", 1, ("D0", "E")),
        ("Q0", "O3bar", 1, ("D0", "P")),
        ("S", "O3bar", 1, ("E", "P")),
        ("D0", "O0", 2, ("E",)),
        ("G1", "O2bar", 1, ("D1",)),
    ])
    def test_table_entries(self, name, support, k, expected):
        assert tuple(sorted(catalog.local_cohomology(name, support, k))) == expected

    def test_full_support_modules_have_no_local_cohomology(self):
        for name in ("G2", "G3", "G4", "Q1", "Q2"):
            for support in catalog.SUPPORT_CLOSURES:
                for k in range(7):
                    assert catalog.local_cohomology(name, support, k) == ()

    def test_degree_zero_rule_for_large_supports(self):
        assert catalog.local_cohomology("E", "O0", 0) == ("E",)
        assert catalog.local_cohomology("E", "O2bar", 0) == ("E",)
        assert catalog.local_cohomology("D1", "O2bar", 0) == ("D1",)
        assert catalog.local_cohomology("D1", "O2bar", 1) == ()
        assert catalog.local_cohomology("P", "O3bar", 0) == ("P",)

    def test_extension_flags(self):
        assert catalog.local_cohomology_is_extension("S", "O3bar", 1)
        assert catalog.local_cohomology_is_extension("Q0", "O3bar", 1)
        assert not catalog.local_cohomology_is_extension("P", "O2bar", 1)

    @pytest.mark.parametrize("k", [1.0, True, "1"])
    def test_degree_must_be_an_integer(self, k):
        with pytest.raises(TypeError, match="is not an integer"):
            catalog.local_cohomology("S", "O3bar", k)
        with pytest.raises(TypeError, match="is not an integer"):
            catalog.local_cohomology_is_extension("S", "O3bar", k)

    def test_degree_accepts_numpy_integers(self):
        import numpy as np

        assert sorted(catalog.local_cohomology("S", "O3bar", np.int64(1))) == ["E", "P"]

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            catalog.local_cohomology("S", "O1bar", 1)
        with pytest.raises(KeyError):
            catalog.local_cohomology("Sx", "O0", 1)

    @pytest.mark.parametrize("name, support, message", [
        ("S", "bogus", "unknown support: 'bogus'"), ("Nope", "O0", "unknown module name: 'Nope'")])
    def test_both_lookups_reject_an_unknown_name_alike(self, name, support, message):
        for lookup in (catalog.local_cohomology, catalog.local_cohomology_is_extension):
            with pytest.raises(KeyError, match=message):
                lookup(name, support, 1)


def _o3bar_euler_disagreement(name: str):
    """First weight on the box [-30, 30] where sum_k (-1)^k [H^k_O3bar(M)],
    read row by row off catalog.local_cohomology, differs from
    [M] - localize([M]); None where the Euler identity holds."""
    rows = [((-1) ** k, catalog.character_of(factor)) for k in range(5)
            for factor in catalog.local_cohomology(name, "O3bar", k)]
    euler = ch.Character(lambda lam: sum(sign * c.mult(lam) for sign, c in rows), "euler")
    M = catalog.character_of(name)
    return ch.first_disagreement(euler, M - ch.localize(M), -30, 30)


class TestO3barEulerIdentity:
    """A second route for the O3bar rows of the local cohomology table: the
    alternating sum of the rows is [M] minus its localization at Delta."""

    @pytest.mark.parametrize("name", catalog.SIMPLES + ("SdeltaModS",))
    def test_rows_sum_to_m_minus_its_localization(self, name):
        assert _o3bar_euler_disagreement(name) is None

    def test_a_row_missing_a_factor_breaks_the_identity(self, monkeypatch):
        monkeypatch.setitem(catalog._LOCAL_COHOMOLOGY, ("S", "O3bar", 1), (("P",), True))
        assert _o3bar_euler_disagreement("S") == (-30, -30)


class TestVerifyIdentities:
    def test_all_pass_on_box(self):
        for check in catalog.verify_identities(-12, 12):
            assert check["status"] == "pass", check

    def test_empty_box_is_vacuous(self):
        for check in catalog.verify_identities(5, 4):
            assert "fail" not in check["status"] or check["status"] == "pass"

    def test_perturbed_p_is_caught_at_origin(self, monkeypatch):
        broken = catalog.character_of("P") + ch.Character(lambda lam: int(lam == (0, 0)))
        monkeypatch.setitem(catalog._characters, "P", broken)
        checks = catalog.verify_identities(-8, 8)
        failures = [c for c in checks if c["status"] == "fail"]
        assert failures
        assert any(c.get("witness") == "(0, 0)" for c in failures)
