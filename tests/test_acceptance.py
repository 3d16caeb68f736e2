"""Acceptance criteria, one test per criterion, exact equality throughout.

Character identities run coefficientwise on the box
{-30 <= l2 <= l1 <= 30}; randomized criteria use fixed seeds and the
sample counts stated below.  Each test prints one PASS line (visible
with pytest -s / -v) after all of its assertions hold.
"""

from binarycubics import catalog, characters as ch, cubics, quiver as qv

BOX_LO, BOX_HI = -30, 30


def _passed(k, message):
    print(f"ACCEPTANCE {k:>2}: PASS  {message}")


def _assert_equal_on_box(left, right, label):
    witness = ch.first_disagreement(left, right, BOX_LO, BOX_HI)
    assert witness is None, f"{label} differs at {witness}"


def test_criterion_01_golden_multiplicities():
    golden = [
        (catalog.character_of("Sdelta").mult((3, -3)), 1),
        (catalog.character_of("Sdelta").mult((-1, -5)), 0),
        (catalog.character_of("S").mult((0, 0)), 1),
        (catalog.character_of("S").mult((3, 0)), 1),
        (catalog.character_of("E").mult((3, 0)), 0),
        (catalog.character_of("E").mult((-6, -9)), 1),
        (ch.mult_d(0, (-1, -5)), 1),
        (ch.mult_d(0, (3, 0)), 0),
        (ch.mult_d(0, (-6, -9)), 1),
        (ch.mult_d(0, (-2, -4)), 0),
        (ch.mult_d(0, (0, -3)), 0),
        (ch.mult_d(0, (-3, -6)), 0),
        (ch.mult_d(2, (-5, -9)), 1),
        (ch.mult_d(1, (3, -1)), 0),
        (ch.m_diag(6), -1),
        (ch.m_diag(5), 1),
        (ch.m_diag(4), 0),
        (ch.fourier(catalog.character_of("D0")).mult((3, 0)), 1),
        (ch.fourier(catalog.character_of("S")).mult((-6, -6)), 1),
        (ch.localize(catalog.character_of("S")).mult((-6, -6)), 1),
        (catalog.character_of("Q0delta").mult((-2, -4)), 1),
        (catalog.character_of("Q0delta").mult((-6, -9)), 1),
        (catalog.character_of("Q1").mult((0, -2)), 1),
        (catalog.character_of("P").mult((3, -3)), 1),
        (catalog.character_of("P").mult((-6, -9)), 0),
        (catalog.character_of("D1").mult((-5, -5)), 1),
        (catalog.character_of("Q0").mult((0, -3)), 0),
        (ch.nu(0), 1),
        (ch.nu(1), 0),
        (ch.nu(6), 2),
    ]
    for idx, (got, want) in enumerate(golden):
        assert got == want, f"golden value #{idx}: got {got}, want {want}"
    for a in range(-10, 61):
        want = -1 if (a >= 6 and a % 6 == 0) else 1 if (a >= 5 and a % 6 in (1, 5)) else 0
        assert ch.m_diag(a) == want
    for a in range(-30, 31):
        assert ch.mult_d(1, (a, a)) == (1 if a % 6 == 1 and a <= -5 else 0)
        assert ch.mult_d(0, (a, a)) == 0
    _passed(1, f"{len(golden)} golden multiplicities plus the diagonal tables")


def test_criterion_02_composition_series_on_box():
    S, P, E = (catalog.character_of(n) for n in ("S", "P", "E"))
    _assert_equal_on_box(ch.localize(S), S + P + E, "[Sdelta] = [S]+[P]+[E]")
    Q0, D0 = catalog.character_of("Q0"), catalog.character_of("D0")
    _assert_equal_on_box(ch.localize(Q0), Q0 + P + D0, "[Q0delta] = [Q0]+[P]+[D0]")
    d1_direct = ch.Character(lambda lam: ch.mult_d(1, lam))
    d2_direct = ch.Character(lambda lam: ch.mult_d(2, lam))
    _assert_equal_on_box(
        catalog.character_of("F1"),
        catalog.character_of("G1") + d1_direct, "[F1] = [G1]+[D1]")
    _assert_equal_on_box(
        catalog.character_of("F-1"),
        catalog.character_of("G-1") + d2_direct, "[F-1] = [G-1]+[D2]")
    _passed(2, "composition series identities, localize vs independent formulas")


def test_criterion_03_fourier_coherence():
    S, E = catalog.character_of("S"), catalog.character_of("E")
    for lam in ch.box_weights(BOX_LO, BOX_HI):
        assert E.mult(lam) == S.mult(ch.fourier_weight(lam))
    for check in catalog.fourier_coherence(BOX_LO, BOX_HI):
        assert check["status"] == "pass", check
    _passed(3, "E = F(S) pointwise and all 14 Fourier partners coherent")


def test_criterion_04_congruence_and_sl_invariants():
    for j in (0, 1, 2):
        dj = catalog.character_of(f"D{j}")
        qj = catalog.character_of(("Q0", "Q1", "Q2")[j])
        for lam in ch.box_weights(BOX_LO, BOX_HI):
            if dj.mult(lam) != 0:
                assert (lam[0] + lam[1] + j) % 3 == 0, (j, lam)
            if qj.mult(lam) != 0:
                assert (lam[0] + lam[1] - j) % 3 == 0, (j, lam)
    D0, D1, D2 = (catalog.character_of(f"D{j}") for j in (0, 1, 2))
    for a in range(BOX_LO, BOX_HI + 1):
        assert D0.mult((a, a)) == 0
        assert D1.mult((a, a)) == (1 if a % 6 == 1 and a <= -5 else 0)
        assert D2.mult((a, a)) == (1 if a % 6 == 5 and a <= -7 else 0)
    P = catalog.character_of("P")
    for lam in ch.box_weights(BOX_LO, BOX_HI):
        assert P.mult(lam) >= 0, lam
    _passed(4, "weight congruences, SL-invariant patterns, [P] non-negative")


def test_criterion_05_quiver_catalog_agreement():
    pf = cubics.build("paper_full")
    for vertex, simple in pf.vertex_labels.items():
        inj = pf.injective(vertex)
        factors = [pf.vertex_labels[v] for v in pf.quiver.vertices for _ in range(inj.dims[v])]
        got = ch.Character(lambda lam: sum(catalog.character_of(f).mult(lam) for f in factors))
        want = catalog.injective_envelope_character(simple)
        assert ch.first_disagreement(got, want, -6, 6) is None, simple
    assert pf.arrow_count("d1", "g1") == 1
    assert pf.arrow_count("e", "s") == 0
    assert pf.arrow_count("d0", "s") == 0
    assert pf.arrow_count("q0", "e") == 0
    to_vertex = {s: v for v, s in pf.vertex_labels.items()}
    for x in pf.quiver.vertices:
        for y in pf.quiver.vertices:
            dx = to_vertex[catalog.dual_partner(pf.vertex_labels[x])]
            dy = to_vertex[catalog.dual_partner(pf.vertex_labels[y])]
            assert pf.arrow_count(x, y) == pf.arrow_count(dy, dx), (x, y)
    _passed(5, "injective envelopes (14 vertices) vs their characters, arrow facts, duality symmetry")


def test_criterion_06_projective_injective_identifications():
    bc = cubics.build("big_component")
    for i, j in ((1, 2), (2, 1), (3, 4), (4, 3)):
        assert qv.is_isomorphic(bc.projective(str(i)), bc.injective(str(j))), (i, j)
    _passed(6, "P1=I2, P2=I1, P3=I4, P4=I3 over the big component")


def test_criterion_07_injective_envelope_of_p():
    I_P = cubics.injective_envelope_of_P()  # asserts the isomorphism internally
    pf = cubics.build("paper_full")
    assert qv.is_isomorphic(I_P, pf.injective("p"))
    _passed(7, "cokernel of P -> H + F(H) is the injective envelope of P")


def test_criterion_08_four_subspace_families():
    for n in (1, 2, 3, 4):
        for lam in (0, 1, -1, 5):
            R = cubics.rn_family(n, lam)
            assert qv.is_indecomposable(R) == "yes", (n, lam)
            assert qv.is_indecomposable(cubics.embed_alpha(R)) == "yes", (n, lam, "alpha")
            assert qv.is_indecomposable(cubics.embed_beta(R)) == "yes", (n, lam, "beta")
    for a, b in ((0, 1), (0, -1), (1, 5), (-1, 5), (2, 7)):
        assert qv.is_isomorphic(cubics.rn_family(1, a), cubics.rn_family(1, b)) is False
    _passed(8, "R_n(lam) and both embeddings indecomposable (16 x 3), 5 non-isomorphic pairs")


def test_criterion_09_tame_property_suite():
    report = cubics.check_tame_classification(samples=100, seed=0)
    assert report["violations"] == [], report["violations"][:5]
    assert report["summands"] > 0
    assert report["inconclusive_rate"] < 0.05, report["inconclusive"]
    _passed(9, f"100 samples, {report['summands']} summands in the three cases, "
               f"inconclusive rate {report['inconclusive_rate']:.3f}")


def test_criterion_10_two_vertex_component():
    report = cubics.check_two_vertex_component(samples=50, seed=0)
    assert report["violations"] == [], report["violations"][:5]
    classified = (report["simple_1"] + report["simple_2"]
                  + report["arrow_a"] + report["arrow_b"])
    assert classified == report["summands"] > 0
    _passed(10, f"50 samples, {report['summands']} summands among the four indecomposables")


def test_criterion_11_local_cohomology_tables():
    expected = {
        ("S", "O3bar", 1): ("E", "P"),
        ("S", "O2bar", 2): ("D0",),
        ("S", "O0", 4): ("E",),
        ("SdeltaModS", "O2bar", 1): ("D0",),
        ("SdeltaModS", "O0", 3): ("E",),
        ("D0", "O0", 2): ("E",),
        ("P", "O2bar", 1): ("D0", "E"),
        ("P", "O0", 1): ("E",),
        ("P", "O0", 3): ("E",),
        ("Q0", "O3bar", 1): ("D0", "P"),
        ("Q0", "O2bar", 2): ("E",),
        ("Q0", "O0", 2): ("E",),
        ("G1", "O3bar", 1): ("D1",),
        ("G1", "O2bar", 1): ("D1",),
        ("G-1", "O3bar", 1): ("D2",),
        ("G-1", "O2bar", 1): ("D2",),
    }
    for (name, support, k), want in expected.items():
        got = tuple(sorted(catalog.local_cohomology(name, support, k)))
        assert got == want, (name, support, k, got)
    own_dim = {"O0": 0, "O2": 2, "O3": 3, "O4": 4}
    closure_dim = {"O3bar": 3, "O2bar": 2, "O0": 0}
    for name in catalog.SIMPLES + ("SdeltaModS",):
        base = own_dim[catalog.SUPPORT.get(name, "O3")]
        for support, dim in closure_dim.items():
            if dim >= base:
                continue
            for k in range(0, 8):
                got = catalog.local_cohomology(name, support, k)
                want = expected.get((name, support, k), ())
                assert tuple(sorted(got)) == tuple(sorted(want)), (name, support, k)
    g1 = catalog.character_of("G1")
    _assert_equal_on_box(ch.localize(g1) - g1, catalog.character_of("D1"),
                         "[H^1_O3bar(G1)] = [D1]")
    _passed(11, "all table rows, all off-table queries empty, H^1(G1) identity on the box")


def test_criterion_12_nu_oracle():
    coeffs = [0] * 61
    coeffs[0] = 1
    for step in (2, 3):
        for i in range(step, 61):
            coeffs[i] += coeffs[i - step]
    assert [ch.nu(i) for i in range(61)] == coeffs
    _passed(12, "nu matches the dynamic-programming expansion on [0, 60]")
