import pytest

from g2crystal import level1 as L
from g2crystal.cartan import ROOT_NORMS
from g2crystal.qlaurent import ONE, QRat

q = QRat.q_power


def test_qint_examples():
    for i in (0, 1, 2):
        assert L.qint(1, i) == 1
    assert L.qint(2, 1) == q(3) + q(-3)
    assert L.qint(3, 2) == q(2) + 1 + q(-2)
    assert L.qint(2, 0) == L.qint(2, 1)


def test_action_examples():
    assert L.v1_apply(("f", 1), L.vec(1)) == {2: ONE}
    assert L.v1_apply(("f", 2), L.vec(3)) == {4: L.qint(2, 2)}
    assert L.v1_apply(("f", 0), L.vec(-6)) == {2: ONE}
    assert L.v1_apply(("f", 0), L.vec(9)) == {1: L.qint(2, 0)}
    assert L.v1_apply(("e", 0), L.vec(9)) == {-1: L.qint(2, 0)}
    # the resolved secondary terms
    img = L.v1_apply(("f", 1), L.vec(6))
    assert img[8] == ONE
    assert img[7] == L.qint(2, 2).inv()
    assert img[9] == L.qint(2, 1).inv()


def test_middle_string_bracket_is_color1():
    # the 6 -> 0_2 -> barred-6 string carries the color-1 bracket; the
    # commutator relation on its top forces it
    assert L.v1_apply(("e", 1), L.vec(8)) == {6: L.qint(2, 1)}
    assert L.v1_apply(("f", 1), L.vec(8)) == {-6: L.qint(2, 1)}


def test_commutator_spot():
    u = L.vec(1)
    lhs = L.vsub(L.v1_apply(("e", 1), L.v1_apply(("f", 1), u)),
                 L.v1_apply(("f", 1), L.v1_apply(("e", 1), u)))
    assert lhs == u  # [1]_1 * v_1


def test_all_defining_relations():
    rep = L.verify_module_relations()
    assert rep["all_pass"], {k: v for k, v in rep.items()
                             if isinstance(v, dict) and not v["pass"]}


def test_serre_21_spot():
    # the length-four relation between the two finite colors annihilates
    # every basis vector
    for a in L.BASIS:
        acc = {}
        for k in range(5):
            term = L.v1_divided("e", 2, 4 - k, L.vec(a))
            term = L.v1_apply(("e", 1), term)
            term = L.v1_divided("e", 2, k, term)
            if k % 2:
                term = L.vscale(-ONE, term)
            acc = L.vadd(acc, term)
        assert not acc


def test_prepolarization():
    rep = L.verify_prepolarization()
    assert rep["pass"], rep["failures"]


def test_prepolarization_builds_each_image_once(monkeypatch):
    calls = []
    apply = L.v1_apply
    monkeypatch.setattr(L, "v1_apply", lambda gen, u: calls.append(gen) or apply(gen, u))
    L.polarization_gram.cache_clear()
    assert L.verify_prepolarization()["pass"]
    assert len(calls) == 270  # 3 colors x 15 labels x (2 left + 4 right)


def test_polarization_normalization_and_symmetry():
    g = L.polarization_gram()
    assert L.gram(1, 1) == 1
    assert not L.gram(1, 2)
    # the weight-zero block is genuinely mixed in this basis
    assert L.gram(7, 8)
    assert L.gram(8, 9)


def test_polarization_norm_families():
    n1 = [L.gram(a, a) for a in (1, 2, 6, -6, -2, -1)]
    n2 = [L.gram(a, a) for a in (3, 4, 5, -5, -4, -3)]
    assert all(x == n1[0] for x in n1)
    assert all(x == n2[0] for x in n2)
    assert n1[0] == q(-2) * L.qint(3, 2).inv() * n2[0]


def test_string_norm_lemma():
    pair = L.vec_pair
    cases = [(1, 1, 1), (1, 4, 1), (1, 6, 2), (2, 2, 3), (2, 5, 2),
             (1, -5, 1), (1, -2, 1), (2, -6, 3)]
    for i, b, m in cases:
        u = L.vec(b)
        assert not L.v1_apply(("e", i), u)
        if m == 1:
            fu = L.v1_apply(("f", i), u)
            assert pair(u, u) == pair(fu, fu)
        elif m == 2:
            fu = L.v1_apply(("f", i), u)
            f2u = L.v1_divided("f", i, 2, u)
            assert pair(u, u) == pair(f2u, f2u)
            assert pair(u, u) == q(-ROOT_NORMS[i]) * L.qint(2, i).inv() * pair(fu, fu)
        else:
            f2u = L.v1_divided("f", i, 2, u)
            f3u = L.v1_divided("f", i, 3, u)
            assert pair(u, u) == pair(f3u, f3u)
            assert pair(u, u) == q(-2 * ROOT_NORMS[i]) * L.qint(3, i).inv() * pair(f2u, f2u)


def test_crystal_compatibility():
    rep = L.crystal_compat_report()
    assert rep["pass"], rep["failures"]


def test_kashiwara_spot_values():
    # on the middle of the 6-string the modified operator steps with the
    # divided-power normalization
    img = L.kashiwara("f", 1, L.vec(1))
    assert img == {2: ONE}
    img = L.kashiwara("f", 0, L.vec(9))
    # leading term is the next letter of the level-1 affine table
    assert img[1] == 1


def test_string_coordinates_are_solved_once_per_color(monkeypatch):
    # 39 kernels find the primitives of the three colors' weight classes and
    # one kernel per color gives every label's string coordinates
    calls = []
    nullspace = L.nullspace
    monkeypatch.setattr(L, "nullspace", lambda rows, n: calls.append(n) or nullspace(rows, n))
    L._string_basis.cache_clear()
    L._label_coords.cache_clear()
    assert L.crystal_compat_report()["pass"]
    assert len(calls) == 42
    # the operator is linear in its argument
    u = {1: ONE, 6: q(2), 9: q(-1)}
    parts = [L.vscale(c, L.kashiwara("f", 1, L.vec(a))) for a, c in u.items()]
    assert L.kashiwara("f", 1, u) == L.vadd(L.vadd(parts[0], parts[1]), parts[2])


def test_dependent_string_chains_are_an_arithmetic_error(monkeypatch):
    basis = L._string_basis

    def repeated(i):
        chains = list(basis(i))
        chains[1] = chains[0]
        return chains

    monkeypatch.setattr(L, "_string_basis", repeated)
    L._label_coords.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not a basis"):
            L._label_coords(1)
    finally:
        L._label_coords.cache_clear()
