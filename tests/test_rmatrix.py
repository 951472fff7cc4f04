from g2crystal import rmatrix as R
from g2crystal.cartan import ROOT_NORMS
from g2crystal.level1 import BASIS, E_TABLE, F_TABLE, qint, weight_pairing
from g2crystal.qlaurent import ONE, QRat, put

q = QRat.q_power


def test_tensor_lowering_comultiplication():
    # f_1 (v1 (x) v1) = v2 (x) v1 + q_1 v1 (x) v2
    img = R.tensor_apply(("f", 1), R.tvec(1, 1))
    assert img[(2, 1)] == R.XY.monomial(0, 0, ONE)
    assert img[(1, 2)] == R.XY.monomial(0, 0, q(3))


def test_spectral_twist_on_affine_color():
    img = R.tensor_apply(("f", 0), R.tvec(9, 9))
    # first factor picks up x^-1, second y^-1 with the t-twist of label 9
    assert img[(1, 9)] == R.XY.monomial(-1, 0, qint(2, 0))
    assert img[(9, 1)] == R.XY.monomial(0, -1, qint(2, 0))


def _comultiplication(gen, u):
    """tensor_apply term by term: f = f (x) 1 + t (x) f, e = e (x) t^-1 + 1 (x) e,
    the twist worked out per term; the oracle of the twisted step tables."""
    kind, i = gen
    twist = 1 if i == 0 else 0
    out = {}
    if kind == "f":
        for (a, b), c in u.items():
            for a2, coef in F_TABLE[i].get(a, ()):
                put(out, (a2, b), c.scale(coef).shift(-twist, 0))
            tw = q(ROOT_NORMS[i] * weight_pairing(i, a))
            for b2, coef in F_TABLE[i].get(b, ()):
                put(out, (a, b2), c.scale(tw * coef).shift(0, -twist))
    else:
        for (a, b), c in u.items():
            tw = q(-ROOT_NORMS[i] * weight_pairing(i, b))
            for a2, coef in E_TABLE[i].get(a, ()):
                put(out, (a2, b), c.scale(coef * tw).shift(twist, 0))
            for b2, coef in E_TABLE[i].get(b, ()):
                put(out, (a, b2), c.scale(coef).shift(0, twist))
    return out


def test_twisted_tables_match_the_comultiplication():
    c = R.XY({(0, 0): ONE, (1, -1): q(2) + 1, (-2, 3): -q(-1) / qint(2, 1)})
    moved = 0
    for gen in [(kind, i) for kind in "fe" for i in range(3)]:
        for a in BASIS:
            for b in BASIS:
                u = {(a, b): c}
                got = R.tensor_apply(gen, u)
                assert got == _comultiplication(gen, u), (gen, a, b)
                moved += len(got)
    assert moved > 1000


def test_singular_vectors_all_killed():
    rep = R.verify_singular()
    assert rep["pass"], rep
    assert rep["u02_partial_match"]


def test_u02_resolved_coefficient():
    # the garbled mixed-pair coefficient resolves to -q^6/([2]_1 [2]_2)
    _, coeff = R.solve_u02()
    assert coeff == -q(6) / (qint(2, 1) * qint(2, 2))


def test_weight_zero_singular_space_dimension():
    pairs = [(a, b) for a in R.BASIS for b in R.BASIS
             if (R._WT12[a][0] + R._WT12[b][0], R._WT12[a][1] + R._WT12[b][1]) == (0, 0)]
    assert len(pairs) == 21
    # solve_u02 raises unless the kernel is two dimensional
    R.solve_u02()


def test_singular_weights():
    vecs = R.singular_vectors()
    assert R.tensor_weight(vecs["u_3La2"]) == (0, 3)
    assert R.tensor_weight(vecs["u_2La2"]) == (0, 2)
    for i in (1, 2):
        assert not R.tensor_apply(("e", i), vecs["u_3La2"])


def test_decomposition_catches_a_vector_of_another_weight(monkeypatch):
    vecs = R.singular_vectors()
    vecs["u_La1_3"] = R.tvec(1, 2)  # weight (0, 3) in place of (1, 0)
    monkeypatch.setattr(R, "singular_vectors", lambda: vecs)
    rep = R.verify_singular()
    assert not rep["decomposition"] and not rep["pass"]


def test_fusion_identities_all():
    rep = R.verify_fusion_identities()
    assert rep["pass"], {n: v for n, v in rep["items"].items() if not v["pass"]}


def test_fusion_item_7_and_9_spot():
    sing = R.singular_vectors()
    img = R._string(R.STR_F0, sing["u_La1_1"])
    assert img == {(1, 1): R.XY.monomial(0, -1, qint(2, 1) * q(-6))}
    img = R._string(R.STR_F0, sing["u_La1_3"])
    assert img == {}


def test_fusion_item_14_spot():
    sing = R.singular_vectors()
    img = R._string(R.STR_14, sing["u_3La2"])
    expected = ((R.X - R.Y.scale(q(6))) * (R.X + R.Y)
                * R.XY.monomial(-2, -2, q(-3)))
    assert img == {(1, 1): expected}


def test_fusion_strings_are_applied_once(monkeypatch):
    calls = []
    string = R._string
    monkeypatch.setattr(R, "_string", lambda ops, u: calls.append(ops) or string(ops, u))
    R.fusion_values.cache_clear()
    assert R.verify_fusion_identities()["pass"]
    assert R.rmatrix_checks()["pass"]
    assert len(calls) == 15


def test_stray_term_beside_the_target_is_no_coefficient(monkeypatch, fresh_qsuite):
    # one stray pure tensor beside the target makes the coefficient None,
    # which fails the item and every row of its family
    string = R._string

    def stray(ops, u):
        img = string(ops, u)
        return {**img, (2, 1): R.XY.monomial(0, 0, ONE)} if ops is R.STR_F0 else img

    monkeypatch.setattr(R, "_string", stray)
    assert [n for n, (got, _) in R.fusion_values().items() if got is None] == [7, 8, 9]
    items = R.verify_fusion_identities()["items"]
    assert [n for n in items if not items[n]["pass"]] == [7, 8, 9]
    assert R.rmatrix_checks()["relation_f0_family"] == {"pass": False, "failures": [1, 2, 3]}


def test_rmatrix_relations_and_kernel():
    rep = R.rmatrix_checks()
    assert rep["pass"], {k: v for k, v in rep.items()
                         if isinstance(v, dict) and not v["pass"]}


def test_top_scalar_nonvanishing_at_fusion_points():
    a = R.a_polynomials()
    for k in range(1, 6):
        assert R._zeval(a["2La1"], q(6 * k))
    # but the shifted components do vanish at the first point
    assert not R._zeval(a["3La2"], q(6))
    assert not R._zeval(a["2La2"], q(6))
    assert not R._zeval(a["L33"], q(6))


def test_proportionality_relation_in_z():
    # (z - q^6) a_top = a_(3La2) (1 - q^6 z) as polynomials in z = x/y
    a = R.a_polynomials()
    assert R._z(-q(6), ONE) * a["2La1"] == R._z(ONE, -q(6)) * a["3La2"]


def test_a_polynomials_are_polynomials_in_z():
    for name, poly in R.a_polynomials().items():
        assert isinstance(poly, R.XY) and poly, name
        assert all(dx == -dy >= 0 for dx, dy in poly.terms), name


def test_perturbed_polynomial_fails_the_relations(monkeypatch):
    # a copy: the cached dict stays as it is
    a = dict(R.a_polynomials())
    a["L12"] = a["L12"] + R.XY.monomial(0, 0, q(2))
    monkeypatch.setattr(R, "a_polynomials", lambda: a)
    rep = R.rmatrix_checks()
    failed = {k for k, v in rep.items() if isinstance(v, dict) and not v["pass"]}
    assert failed == {"relation_F_family", "relation_E_family",
                      "relation_f0_family", "a_L1j_eq_L2j"}
    assert not rep["pass"]
