from collections import Counter
from operator import ge, gt

import pytest

from g2crystal import affine, perfect
from g2crystal.affine import bl_crystal, gl_count
from g2crystal.cartan import ClassicalWeight, dominant_weights, simple_root


def level(w):
    """<c, w> with c = h_0 + 2 h_1 + h_2."""
    return w.m0 + 2 * w.m1 + w.m2


def eps_weight(bl, w):
    return ClassicalWeight(*(bl.eps(i, w) for i in (0, 1, 2)))


def phi_weight(bl, w):
    return ClassicalWeight(*(bl.phi_i(i, w) for i in (0, 1, 2)))


def square_rule(bl):
    """Kashiwara's two-factor rule on x (x) y, per colour i: phi_i, eps_i
    and, for f_i and then e_i, its position table and the test on
    (phi_i(x), eps_i(y)) under which it acts on x, not on y: f_i iff
    phi_i(x) > eps_i(y), e_i iff phi_i(x) >= eps_i(y)."""
    return [(bl._phi[i], bl._eps[i], ((bl._fpos[i], gt), (bl._epos[i], ge))) for i in (0, 1, 2)]


def square_connected(bl):
    """(states reached from () (x) (), all states) of the tensor square x (x) y.

    The flat BFS over all |B^l|^2 states, each coded x*n + y, stepping by
    ``square_rule``: the reference for ``perfect._square_components``.
    """
    n = len(bl.elements)
    s = bl.index[()]
    start = s * n + s
    seen = bytearray(n * n)
    seen[start] = 1
    frontier = [start]
    count = 1
    rule = square_rule(bl)
    while frontier:
        nxt = []
        for code in frontier:
            x = code // n
            y = code - x * n
            for phi, eps, ops in rule:
                px, ey = phi[x], eps[y]
                for img, on_x in ops:
                    if on_x(px, ey):
                        t = img[x]
                        if t is None:
                            continue
                        step = t * n + y
                    else:
                        t = img[y]
                        if t is None:
                            continue
                        step = x * n + t
                    if not seen[step]:
                        seen[step] = 1
                        nxt.append(step)
        count += len(nxt)
        frontier = nxt
    return count, n * n


EXPECTED_MINIMAL = {
    1: {(), (7,)},
    2: {(), (7,), (1, -1), (3, -3)},
    3: {(), (7,), (1, -1), (3, -3), (1, 7, -1), (2, 8, -2)},
}


def test_empty_word_distances_level1():
    bl = bl_crystal(1)
    assert eps_weight(bl, ()) == ClassicalWeight(1, 0, 0)
    assert phi_weight(bl, ()) == ClassicalWeight(1, 0, 0)


def test_highest_word_eps1():
    for l in (1, 2, 3):
        bl = bl_crystal(l)
        assert bl.eps(1, (1,) * l) == 0


def test_weight_is_phi_minus_eps():
    for l in (1, 2, 3):
        bl = bl_crystal(l)
        for w in bl.elements:
            assert bl.weight(w) == phi_weight(bl, w) - eps_weight(bl, w)


def test_minimal_elements_lists():
    for l, expect in EXPECTED_MINIMAL.items():
        assert set(perfect.minimal_elements(l)) == expect


def test_minimal_elements_are_the_level_l_eps_weights():
    # the eps and phi tables read directly, against ClassicalWeight and
    # this module's level; minimal_elements lists the words of minimal_rows
    for l in range(1, 7):
        bl = bl_crystal(l)
        rows = [(w, eps_weight(bl, w), phi_weight(bl, w)) for w in bl.elements
                if level(eps_weight(bl, w)) == l]
        assert perfect.minimal_rows(l) == rows
        assert perfect.minimal_elements(l) == [w for w, _, _ in rows]


def test_minimal_stability():
    prev = set(perfect.minimal_elements(1))
    for l in (2, 3, 4, 5):
        cur = set(perfect.minimal_elements(l))
        assert prev <= cur
        assert len(cur) == len(dominant_weights(l))
        prev = cur


def test_check_perfect_small_levels():
    for l in (1, 2):
        rep = perfect.check_perfect(l)
        assert rep.all_pass(), rep.to_json()
        assert rep.square_size == len(bl_crystal(l).elements) ** 2
        assert rep.top_weight == ClassicalWeight(-2 * l, l, 0)


def test_level_bound_strict_above_minimal():
    bl = bl_crystal(2)
    for w in bl.elements:
        assert level(eps_weight(bl, w)) >= 2


def test_eps_phi_bijective_onto_dominant():
    rep = perfect.check_perfect(2)
    eps_img = {e for (_, e, _) in rep.minimal}
    phi_img = {p for (_, _, p) in rep.minimal}
    dom = dominant_weights(2)
    assert eps_img == dom and phi_img == dom


def test_string_minimum_bound():
    # over the color-2-primitive elements of the top tableau layer, the
    # minimum of twice the color-1 plus the color-2 lowering distances
    # along the 2-string is bounded below by l - floor(wt_0 / 2)
    from g2crystal import g2

    for l in range(1, 5):
        for w in g2.enumerate_tableaux(l):
            if g2.eps(2, w) != 0:
                continue
            wt = g2.weight(w)
            vals = []
            x = w
            while x is not None:
                vals.append(2 * g2.phi(1, x) + g2.phi(2, x))
                x = g2.apply("f", 2, x)
            assert min(vals) >= l - (wt.m0 // 2)


def test_report_json_shape():
    rep = perfect.check_perfect(1)
    data = rep.to_json()
    assert data["level"] == 1
    assert data["minimal_count"] == 2
    assert data["square_size"] == 225


def test_level4_self_connected():
    assert perfect._self_connected(bl_crystal(4))


def test_self_connected_detects_two_components():
    from types import SimpleNamespace

    split = SimpleNamespace(elements=[(), (1,)], _fpos=([None] * 2, [None] * 2, [None] * 2))
    assert not perfect._self_connected(split)
    split._fpos[0][0] = 1
    assert perfect._self_connected(split)


def test_square_rule_matches_brackets_two_factor_f_and_e():
    # the flat BFS's two-factor rule, f and e, and the raising-only
    # _pair_step, on every pair x (x) y of B^2, against the general
    # bracketing rule: bracket's f_at and e_at fields
    from g2crystal.signature import bracket

    bl = bl_crystal(2)
    idx = bl.index
    for i, (phi, eps, ops) in enumerate(square_rule(bl)):
        for x, nx in idx.items():
            for y, ny in idx.items():
                ep = [(eps[nx], phi[nx]), (eps[ny], phi[ny])]
                for (op, step), (img, on_x) in zip((("f", bl.f), ("e", bl.e)), ops):
                    k = bracket(ep)[2 if op == "f" else 3]
                    if on_x(phi[nx], eps[ny]):
                        assert k == (0 if step(i, x) is not None else None)
                        got = None if img[nx] is None else (img[nx], ny)
                    else:
                        assert k == (1 if step(i, y) is not None else None)
                        got = None if img[ny] is None else (nx, img[ny])
                    expect = (None if k is None else
                              (idx[step(i, x)], ny) if k == 0 else (nx, idx[step(i, y)]))
                    assert got == expect
                    if op == "e":
                        assert perfect._pair_step(bl, i, nx, ny) == expect


def _sl2():
    # the sl2 string B(2) in color 1, () its middle element
    from types import SimpleNamespace

    none = [None] * 3
    return SimpleNamespace(
        elements=[(1,), (), (2,)], index={(1,): 0, (): 1, (2,): 2},
        _eps=([0] * 3, [0, 1, 2], [0] * 3), _phi=([0] * 3, [2, 1, 0], [0] * 3),
        _fpos=(none[:], [1, 2, None], none[:]), _epos=(none[:], [None, 0, 1], none[:]))


def test_square_bfs_reaches_one_component():
    # from () (x) () the BFS must reach exactly the B(2) component of
    # B(2) (x) B(2) = B(4) + B(2) + B(0); either comparison turned the other
    # way reaches 7
    assert square_connected(_sl2()) == (3, 9)


def test_square_proof_keeps_the_components_of_a_disconnected_square():
    # B(2) (x) B(2) has three highest elements and no color-0 edge joins them
    components, roots, _ = perfect._square_components(_sl2())
    assert components == 3 and roots == 3


def test_square_proof_counts_an_escaped_probe_as_a_root():
    # e_0 sends (1,) to (2,): the three highest elements' probes raise to
    # (1,) (x) (2,) and (1,) (x) (1,), which joins all three; with e_1
    # dropped at (2,) two probes stop outside them, at (2,) (x) (1,) and
    # (2,) (x) (2,), and count as roots of their own
    sl2 = _sl2()
    top, low = 0, 2
    sl2._epos[0][top], sl2._fpos[0][low] = low, top
    sl2._eps[0][:] = [1, 0, 0]
    sl2._phi[0][:] = [0, 0, 1]
    assert perfect._square_components(sl2)[:2] == (3, 1)
    sl2._epos[1][low] = None
    assert perfect._square_components(sl2)[:2] == (3, 4)


def test_greedy_walk_on_a_cycle_is_a_construction_fault():
    from g2crystal.affine import ConstructionFault

    sl2 = _sl2()
    sl2._epos[1][0] = 2
    sl2._eps[1][0] = 1
    with pytest.raises(ConstructionFault, match="does not end"):
        perfect._greedy(sl2, (0, 0))


def test_square_proof_makes_one_probe_per_component(monkeypatch):
    # one e_0 probe and one raising walk per component: K = 373 at l = 4
    calls = {"greedy": 0, "step": 0}
    greedy, step = perfect._greedy, perfect._pair_step

    def count(name, fn):
        return lambda *a: calls.__setitem__(name, calls[name] + 1) or fn(*a)

    monkeypatch.setattr(perfect, "_greedy", count("greedy", greedy))
    monkeypatch.setattr(perfect, "_pair_step", count("step", step))
    components, roots, _ = perfect._square_components(bl_crystal(4))
    assert (components, roots) == (373, 1)
    assert calls["greedy"] <= components and calls["step"] <= 5 * components


def test_highest_pairs_are_the_scan_of_every_pair():
    # grouping y by (eps_1, eps_2) gives the scan's list, in its order
    for bl in [_sl2()] + [bl_crystal(l) for l in range(9)]:
        eps, phi = bl._eps, bl._phi
        n = len(bl.elements)
        scan = [(x, y) for x in range(n) if eps[1][x] == 0 and eps[2][x] == 0
                for y in range(n) if eps[1][y] <= phi[1][x] and eps[2][y] <= phi[2][x]]
        assert perfect._highest_pairs(bl) == scan


def test_square_proof_matches_the_flat_bfs():
    for l in (1, 2, 3, 4):
        bl = bl_crystal(l)
        reached, states = square_connected(bl)
        _, roots, size = perfect._square_components(bl)
        assert reached == states, l
        assert roots == 1 and size == reached, l


def test_square_without_color_0_is_not_connected(monkeypatch, fresh_caches):
    bl = bl_crystal(2)
    none = [None] * len(bl.elements)
    monkeypatch.setattr(bl, "_fpos", (none,) + bl._fpos[1:])
    monkeypatch.setattr(bl, "_epos", (none,) + bl._epos[1:])
    components, roots, size = perfect._square_components(bl)
    assert components == 38 and roots > 1 and size == 92 ** 2
    rep = perfect.check_perfect(2)
    assert not rep.cond_connected_square and rep.square_roots == roots
    assert not rep.all_pass()


def test_check_perfect_levels_4_to_7():
    for l in (4, 5, 6, 7):
        rep = perfect.check_perfect(l)
        assert rep.all_pass(), rep.to_json()
        assert rep.square_size == gl_count(l) ** 2
        assert rep.square_roots == 1


def test_check_perfect_reads_weights_off_the_tables(monkeypatch):
    from g2crystal import g2

    calls = []
    weight = g2.weight
    monkeypatch.setattr(g2, "weight", lambda w: calls.append(w) or weight(w))
    bl_crystal(3)
    assert perfect.check_perfect(3).all_pass()
    assert calls == []


def test_top_weight_reads_phi_minus_eps(fresh_caches):
    bl = bl_crystal(2)
    bl._phi[2][bl.index[(1, 1)]] += 1
    assert not perfect.check_perfect(2).cond_unique_top_weight


def test_level_bound_reads_the_eps_table(fresh_caches):
    bl = bl_crystal(2)
    bl._eps[0][bl.index[()]] = 0
    assert not perfect.check_perfect(2).cond_level_bound


def test_cone_closed_form_matches_the_cone():
    # x, y < 150 covers every |m_i| <= 20, where x <= 60 and y <= 100
    from g2crystal.cartan import simple_root

    a1, a2 = simple_root(1), simple_root(2)
    cone = {ClassicalWeight(x * a1.m0 + y * a2.m0, x * a1.m1 + y * a2.m1, x * a1.m2 + y * a2.m2)
            for x in range(150) for y in range(150)}
    for m0 in range(-20, 21):
        for m1 in range(-20, 21):
            for m2 in range(-20, 21):
                d = ClassicalWeight(m0, m1, m2)
                assert perfect._in_cone(d) == (d in cone), d


def _reference_report(bl, l):
    """check_perfect's report from one ClassicalWeight per element: the
    reference for the pass over B^l's tables as ints."""
    rep = perfect.PerfectReport(level=l)
    rep.cond_self_connected = perfect._self_connected(bl)
    rep.square_components, rep.square_roots, rep.square_size = perfect._square_components(bl)
    rep.cond_connected_square = (rep.square_roots == 1
                                 and rep.square_size == len(bl.elements) ** 2)
    weights = Counter()
    rep.cond_level_bound = True
    for w, e0, e1, e2, p0, p1, p2 in zip(bl.elements, *bl._eps, *bl._phi):
        e, p = ClassicalWeight(e0, e1, e2), ClassicalWeight(p0, p1, p2)
        weights[p - e] += 1
        lev = level(e)
        rep.cond_level_bound &= lev >= l
        if lev == l:
            rep.minimal.append((w, e, p))
    shifts = [simple_root(1), simple_root(2)]
    tops = [wt for wt in weights if all(wt + s not in weights for s in shifts)]
    if len(tops) == 1:
        rep.top_weight = lam0 = tops[0]
        rep.cond_unique_top_weight = (weights[lam0] == 1
                                      and all(perfect._in_cone(lam0 - wt) for wt in weights))
    dom = dominant_weights(l)
    rep.cond_eps_phi_bijective = (len(rep.minimal) == len(dom)
                                  and {e for _, e, _ in rep.minimal} == dom
                                  == {p for _, _, p in rep.minimal})
    return rep


def test_int_pass_matches_the_classical_weight_pass():
    for l in range(1, 6):
        rep, ref = perfect.check_perfect(l), _reference_report(bl_crystal(l), l)
        assert rep.minimal == ref.minimal, l
        assert rep.top_weight == ref.top_weight == ClassicalWeight(-2 * l, l, 0), l
        assert rep == ref, l


def test_int_pass_matches_the_reference_on_poisoned_tables(monkeypatch):
    # a private B^3, never the cached one: the minimal (1, -1) drops to
    # eps_1 = 0, of level 1, and (1, 1) gains a phi_2, which breaks the level
    # bound, the bijection and the top weight
    bl = affine.BlCrystal(3)
    bl._eps[1][bl.index[(1, -1)]] -= 1
    bl._phi[2][bl.index[(1, 1)]] += 1
    monkeypatch.setattr(perfect, "bl_crystal", lambda l: bl)
    rep = perfect.check_perfect(3)
    assert rep == _reference_report(bl, 3)
    assert not (rep.cond_level_bound or rep.cond_eps_phi_bijective
                or rep.cond_unique_top_weight)
    assert bl_crystal(3)._eps[1] != bl._eps[1]


def test_weight_passes_build_few_classical_weights(monkeypatch):
    # one ClassicalWeight per distinct weight and per minimal element, not
    # three per element (19,893 at l = 6); none in the construction check or
    # in the builds
    made = []
    new = ClassicalWeight.__new__
    monkeypatch.setattr(ClassicalWeight, "__new__", lambda cls, *a: made.append(a) or new(cls, *a))
    assert perfect.check_perfect(6).all_pass()
    assert 0 < len(made) <= 1200
    made.clear()
    assert affine.verify_construction(4)["all_pass"]
    assert made == []
