import pytest

from g2crystal import perfect
from g2crystal.affine import bl_crystal, gl_count
from g2crystal.cartan import ClassicalWeight, dominant_weights, level


EXPECTED_MINIMAL = {
    1: {(), (7,)},
    2: {(), (7,), (1, -1), (3, -3)},
    3: {(), (7,), (1, -1), (3, -3), (1, 7, -1), (2, 8, -2)},
}


def test_empty_word_distances_level1():
    bl = bl_crystal(1)
    assert bl.eps_weight(()) == ClassicalWeight(1, 0, 0)
    assert bl.phi_weight(()) == ClassicalWeight(1, 0, 0)


def test_highest_word_eps1():
    for l in (1, 2, 3):
        bl = bl_crystal(l)
        assert bl.eps(1, (1,) * l) == 0


def test_weight_is_phi_minus_eps():
    for l in (1, 2, 3):
        bl = bl_crystal(l)
        for w in bl.elements:
            assert bl.weight(w) == bl.phi_weight(w) - bl.eps_weight(w)


def test_minimal_elements_lists():
    for l, expect in EXPECTED_MINIMAL.items():
        assert set(perfect.minimal_elements(l)) == expect


def test_minimal_elements_are_the_level_l_eps_weights():
    # the eps table read directly, against ClassicalWeight and cartan.level
    for l in range(1, 7):
        bl = bl_crystal(l)
        assert perfect.minimal_elements(l) == [w for w in bl.elements
                                               if level(bl.eps_weight(w)) == l]


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
        assert level(bl.eps_weight(w)) >= 2


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

    split = SimpleNamespace(elements=[(), (1,)], index={(): 0, (1,): 1},
                            _f={0: {}, 1: {}, 2: {}})
    assert not perfect._self_connected(split)
    split._f[0][()] = (1,)
    assert perfect._self_connected(split)


def test_square_rule_matches_act_factor():
    # the two-factor closed form of _pair_step, and _pair_step itself, on
    # every pair x (x) y of B^2, against the general bracketing rule
    from g2crystal.signature import act_factor

    bl = bl_crystal(2)
    tables = perfect._index_tables(bl)
    idx = bl.index
    for i in (0, 1, 2):
        eps, phi = bl._eps[i], bl._phi[i]
        for x in bl.elements:
            nx = idx[x]
            for y in bl.elements:
                ny = idx[y]
                ep = [(eps[nx], phi[nx]), (eps[ny], phi[ny])]
                for op, step, left_wins in (("f", bl.f, phi[nx] > eps[ny]),
                                            ("e", bl.e, phi[nx] >= eps[ny])):
                    k = act_factor(op, ep)
                    if left_wins:
                        assert k == (0 if step(i, x) is not None else None)
                    else:
                        assert k == (1 if step(i, y) is not None else None)
                    expect = (None if k is None else
                              (idx[step(i, x)], ny) if k == 0 else (nx, idx[step(i, y)]))
                    assert perfect._pair_step(tables, op, i, nx, ny) == expect


def _sl2():
    # the sl2 string B(2) in color 1, () its middle element
    from types import SimpleNamespace

    top, mid, low = (1,), (), (2,)
    return SimpleNamespace(
        elements=[top, mid, low], index={top: 0, mid: 1, low: 2},
        _eps=([0] * 3, [0, 1, 2], [0] * 3), _phi=([0] * 3, [2, 1, 0], [0] * 3),
        _f={0: {}, 1: {top: mid, mid: low}, 2: {}}, _e={0: {}, 1: {mid: top, low: mid}, 2: {}})


def test_square_bfs_reaches_one_component():
    # from () (x) () the BFS must reach exactly the B(2) component of
    # B(2) (x) B(2) = B(4) + B(2) + B(0); either comparison turned the other
    # way reaches 7
    assert perfect._square_connected(_sl2()) == (3, 9)


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
    top, low = (1,), (2,)
    sl2._e[0][top], sl2._f[0][low] = low, top
    sl2._eps[0][:] = [1, 0, 0]
    sl2._phi[0][:] = [0, 0, 1]
    assert perfect._square_components(sl2)[:2] == (3, 1)
    del sl2._e[1][low]
    assert perfect._square_components(sl2)[:2] == (3, 4)


def test_greedy_walk_on_a_cycle_is_a_construction_fault():
    from g2crystal.affine import ConstructionFault

    sl2 = _sl2()
    sl2._e[1][(1,)] = (2,)
    sl2._eps[1][0] = 1
    tables = perfect._index_tables(sl2)
    with pytest.raises(ConstructionFault, match="does not end"):
        perfect._greedy(tables, (0, 0))


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


def test_square_proof_matches_the_flat_bfs():
    for l in (1, 2, 3, 4):
        bl = bl_crystal(l)
        reached, states = perfect._square_connected(bl)
        _, roots, size = perfect._square_components(bl)
        assert reached == states, l
        assert roots == 1 and size == reached, l


def test_square_without_color_0_is_not_connected(monkeypatch, fresh_caches):
    bl = bl_crystal(2)
    monkeypatch.setitem(bl._f, 0, {})
    monkeypatch.setitem(bl._e, 0, {})
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
