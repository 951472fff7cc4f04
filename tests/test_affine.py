from collections import Counter

import pytest

from g2crystal import a2, affine, g2
from g2crystal.affine import AParam
from g2crystal.cli import main


def test_model_counts():
    for l in range(6):
        mod = affine.model(l)
        assert len(mod.elements) == affine.a_count(l) == affine.gl_count(l)
    assert len(affine.model(1).elements) == 15
    assert len(affine.model(2).elements) == 92


def test_block_element_counts():
    mod = affine.model(2)
    by_block = {}
    for b in mod.elements:
        by_block[(b.i, b.k, b.j)] = by_block.get((b.i, b.k, b.j), 0) + 1
    for (i, k, j), cnt in by_block.items():
        assert cnt == a2.dim(k, j)
    # the level-2 layout: nine blocks in the outer piece, one in the inner
    assert sum(1 for (i, _, _) in by_block if i == 0) == 9
    assert sum(1 for (i, _, _) in by_block if i == 1) == 1


def test_CA_involution_and_weight_negation():
    for l in (1, 2, 3):
        mod = affine.model(l)
        for b in mod.elements:
            assert mod.CA(mod.CA(b)) == b
    for l in (1, 2):
        mod = affine.model(l)
        for b in mod.elements:
            w1, w0 = mod.weight(b)
            cw1, cw0 = mod.weight(mod.CA(b))
            assert (cw1, cw0) == (-w1, -w0)


def test_CA_closed_form_on_diag():
    # with p = q = r = 0 the conjugate of the highest element has the
    # stated lowering-exponent pattern (k - q + p, k + j - q, j + q - 2p)
    mod = affine.model(3)
    b = AParam(0, 2, 1, 0, 0, 0)
    assert mod.CA(b) == AParam(0, 1, 2, 2, 3, 1)


def test_EA_FA_mutual_inverse():
    for l in (1, 2, 3):
        mod = affine.model(l)
        for b in mod.elements:
            up = mod.EA(b)
            if up is not None:
                assert mod.FA(up) == b
            dn = mod.FA(b)
            if dn is not None:
                assert mod.EA(dn) == b


def test_EA_examples():
    # raising the highest element of the (1,1) block at level 2 lands on
    # the (0,1) block with the same exponents
    mod = affine.model(2)
    assert mod.EA(AParam(0, 1, 1, 0, 0, 0)) == AParam(0, 0, 1, 0, 0, 0)
    # at the top edge j = l - i the raising operator annihilates
    top = AParam(0, 2, 2, 2, 4, 0)
    assert mod.EA(top) is None


def test_EA_symmetry_with_involution():
    for l in (1, 2, 3):
        mod = affine.model(l)
        for b in mod.elements:
            lhs = mod.EA(b)
            lhs = None if lhs is None else mod.CA(lhs)
            rhs = mod.FA(mod.CA(b))
            assert lhs == rhs


def test_EA_f0_commutation_and_phi0():
    for l in (1, 2, 3):
        mod = affine.model(l)
        for b in mod.elements:
            up = mod.EA(b)
            t = mod.f0(b)
            lhs = None if t is None else mod.EA(t)
            rhs = None if (up is None or t is None) else mod.f0(up)
            assert lhs == rhs
            if up is not None:
                assert mod.phi0(up) == mod.phi0(b)


def test_EA_injective():
    for l in (1, 2, 3):
        mod = affine.model(l)
        seen = {}
        for b in mod.elements:
            up = mod.EA(b)
            if up is not None:
                assert up not in seen
                seen[up] = b


def test_depth_weight_identity():
    for l in (1, 2, 3):
        mod = affine.model(l)
        for b in mod.elements:
            w1, w0 = mod.weight(b)
            assert mod.fa_depth(b) - mod.ea_depth(b) == -2 * w1 - w0


def test_depth_weight_spot():
    # the highest element of the (2,1) block at level 2 sits at the string
    # bottom with raising depth five
    mod = affine.model(2)
    b = AParam(0, 2, 1, 0, 0, 0)
    assert mod.fa_depth(b) == 0
    assert mod.ea_depth(b) == 5
    w1, w0 = mod.weight(b)
    assert -2 * w1 - w0 == -5


def test_depth_on_an_operator_cycle_is_a_failure(fresh_caches):
    # E_A sends up back to b: the depth walk stops after len(_ea) steps, and
    # C3 reports the cycle as data
    mod = affine.model(2)
    b = next(b for b in mod.elements if mod.EA(b) is not None)
    mod._ea[mod.EA(b)] = b
    assert mod.ea_depth(b) == len(mod._ea) + 1
    report = affine.verify_construction(2)
    assert report["string_depth_weight"]["failures"] == 4
    assert report["pair_mutual_inverse"]["failures"] == 2
    assert not report["all_pass"]


def test_depth_tables_are_the_depth_walks(monkeypatch):
    for l in (1, 2, 3, 4):
        mod = affine.model(l)
        for table in (mod._ea, mod._fa):
            assert (affine._depths(mod.elements, table)
                    == [affine._depth(table, b) for b in mod.elements])
    # a tail into a cycle reads len(table) + 1 on every element that reaches it
    elements = ["a", "b", "c", "d", "e"]
    table = {"a": "b", "b": "c", "c": "b", "e": "d"}
    assert affine._depths(elements, table) == [5, 5, 5, 0, 1]
    assert [affine._depth(table, x) for x in elements] == [5, 5, 5, 0, 1]
    # C3 reads the tables, not one walk per element
    calls = []
    depth = affine._depth
    monkeypatch.setattr(affine, "_depth", lambda table, b: calls.append(b) or depth(table, b))
    assert affine.verify_construction(3)["all_pass"]
    assert calls == []


def test_raising_step_weight_gain():
    # each raising step increases -2*wt_1 - wt_0 by exactly two
    for l in (2, 3):
        mod = affine.model(l)
        for b in mod.elements:
            up = mod.EA(b)
            if up is None:
                continue
            w1, w0 = mod.weight(b)
            u1, u0 = mod.weight(up)
            assert (-2 * u1 - u0) - (-2 * w1 - w0) == 2


def _terminal_of_string(mod, b):
    depth = 0
    while True:
        nxt = mod.EA(b)
        if nxt is None:
            return b, depth
        b = nxt
        depth += 1


def test_terminal_walks_from_diagonal_wedge():
    # the three displayed range cases for the end of a raising string
    # seeded at f_1^q f_0^q (highest of the k = l-i blocks)
    for l in (1, 2, 3, 4):
        mod = affine.model(l)
        for i in range(l // 2 + 1):
            for j in range(i, l - i + 1):
                for qq in range(j + 1):
                    b = AParam(i, l - i, j, qq, qq, 0)
                    end, depth = _terminal_of_string(mod, b)
                    assert depth == 2 * (l - i - j) + 3 * (j - qq)
                    if qq <= (i + j) // 2:
                        exp = AParam(qq, j + i - qq, l - qq, l - qq, l + j - 2 * qq, 0)
                    elif 3 * qq <= 2 * j + i:
                        exp = AParam(2 * i + 2 * j - 3 * qq, 2 * i + 2 * j - 3 * qq,
                                     l - 2 * i - 2 * j + 3 * qq,
                                     l - i - j + qq, l + j - 2 * qq, 0)
                    else:
                        exp = AParam(i, 3 * qq - 2 * j, l - i,
                                     l - i - j + qq, l - i - j + qq, 0)
                    assert end == exp


def test_anchor_set_coverage_and_residual():
    for l in (1, 2, 3):
        mod = affine.model(l)
        terminal = [b for b in mod.elements if b.r == 0 and mod.FA(b) is None]
        labels = {b: mod.classify(b) for b in terminal}
        assert all(v is not None for v in labels.values())
        # terminal elements all live on the k = l - i blocks with the
        # consolidated bound q <= y + j - (i - p)+
        for b in terminal:
            assert b.k == l - b.i
            y = mod.y_of(b.i, b.j)
            assert b.p <= b.q <= y + b.j - max(b.i - b.p, 0)
        # the residual set equals the display with the doubled q-constraint
        # dropped: i < j, p < min(q, j), q within the consolidated bound
        residual = {b for b in terminal if labels[b] == "BR"}
        disp = set()
        for b in mod.elements:
            if b.r or b.k != l - b.i or b.j <= b.i:
                continue
            y = mod.y_of(b.i, b.j)
            if b.p < min(b.q, b.j) and b.q <= y + b.j - max(b.i - b.p, 0):
                disp.add(b)
        assert residual == disp


def test_classify_examples():
    mod = affine.model(2)
    assert mod.classify(AParam(0, 2, 1, 0, 0, 0)) == "BC"
    assert mod.classify(AParam(1, 1, 1, 0, 1, 0)) == "BW"
    # B_W at level 2 via the displayed inequalities p < q <= y + j, y = 0
    assert mod.classify(AParam(1, 1, 1, 0, 1, 0)) == "BW"


def test_conjugate_of_string_top():
    # from the wedge sets the conjugate of the raising-string top lands in
    # the anchor wedge (or stays in the residual fiber)
    for l in (2, 3):
        mod = affine.model(l)
        for b in mod.elements:
            c = mod.classify(b)
            if c in ("BW", "BU"):
                end, _ = _terminal_of_string(mod, b)
                assert mod.classify(mod.CA(end)) == "BC"
            elif c == "BR":
                end, _ = _terminal_of_string(mod, b)
                assert mod.classify(mod.CA(end)._replace(r=0)) == "BR"


def test_conjugate_top_lands_in_wedge():
    # over the j = i wedge the conjugated string top is always an anchor
    # element of a k = l - i block with q = p (its transcribed closed form
    # has out-of-range exponents and is not reproduced here)
    for l in (2, 3, 4):
        mod = affine.model(l)
        for b in mod.elements:
            if mod.classify(b) != "BW":
                continue
            end, _ = _terminal_of_string(mod, b)
            c = mod.CA(end)
            assert c.k == l - c.i and c.q == c.p


def _block_shells(mod, i, k, j):
    """The two boundary families of a block, built by honest operator walks."""
    top = set()
    for p in range(j + 1):
        x = AParam(i, k, j, 0, 0, p)
        for q in range(p + k + 1):
            assert x is not None
            top.add(x)
            x = mod.f1(x)
    bottom = set()
    for p in range(k):
        x = AParam(i, k, j, j, j + k, k - p)
        for q in range(p + j + 1):
            assert x is not None
            bottom.add(x)
            x = mod.e1(x)
    return top, bottom


def test_shell_count_identity():
    # removing the two boundary families from a block leaves exactly the
    # count of the shape shrunk by one in both directions
    for l in range(1, 6):
        mod = affine.model(l)
        for (i, k, j) in mod.blocks:
            if not (i < k and i < j):
                continue
            top, bottom = _block_shells(mod, i, k, j)
            block = {b for b in mod.elements if (b.i, b.k, b.j) == (i, k, j)}
            rest = block - top - bottom
            assert len(rest) == a2.dim(k - 1, j - 1)


def test_complement_is_previous_level():
    # the edge blocks plus the boundary families of the interior blocks
    # have the size of the top tableau layer, so the complement of that
    # union has the size of the previous level
    for l in range(1, 6):
        mod = affine.model(l)
        shell = 0
        for (i, k, j) in mod.blocks:
            if k == i or j == i:
                shell += a2.dim(k, j)
                continue
            top, bottom = _block_shells(mod, i, k, j)
            shell += len(top | bottom)
        assert shell == g2.dim(l)
        assert len(mod.elements) - shell == affine.gl_count(l - 1)


# -- the bijection --------------------------------------------------------


def test_phi_anchor_examples():
    for l in (1, 2, 3):
        table = affine.phi_table(l)
        assert table.forward[AParam(0, l, l, 0, 0, 0)] == (-2,) * l
        for p in range(l + 1):
            assert table.forward[AParam(0, l, l, 0, 0, p)] == (6,) * p + (-2,) * (l - p)


def test_phi_level3_inner_block_example():
    # raising the element f_1 f_0 (highest of the (2,1) block in the inner
    # piece) once lands on the word [1, 0_1, -1]
    table = affine.phi_table(3)
    mod = affine.model(3)
    b = AParam(1, 2, 1, 1, 1, 0)
    up = mod.EA(b)
    assert table.forward[up] == (1, 7, -1)


def test_phi_wt2_spot():
    for l in (1, 2, 3):
        table = affine.phi_table(l)
        w = table.forward[AParam(0, l, l, 0, 0, 0)]
        assert g2.weight(w).m2 == -3 * l


def test_phi_respects_involutions():
    for l in (1, 2, 3):
        mod = affine.model(l)
        table = affine.phi_table(l)
        for b in mod.elements:
            assert g2.involution(table.forward[b]) == table.forward[mod.CA(b)]


def test_phi_bijective():
    for l in (1, 2, 3):
        table = affine.phi_table(l)
        mod = affine.model(l)
        assert len(table.forward) == len(mod.elements)
        assert len(table.backward) == len(set(table.forward.values()))
        words = set(affine.gl_elements(l))
        assert set(table.forward.values()) == words


def test_gl_elements_come_by_length_then_letter_order():
    for l in range(7):
        words = affine.gl_elements(l)
        assert words == sorted(words, key=lambda w: (len(w), [g2.ORDER_INDEX[a] for a in w]))


def test_uelement_closed_forms():
    # raising powers of the extra color on the boundary words have the four
    # displayed closed forms (split by the residue of the power)
    for l in (2, 3, 4):
        for k in range(l + 1):
            for p in range(l + 1):
                w = (6,) * p + (-2,) * (l - p)
                img = g2.apply_power("e", 2, w, l - k)
                d = l - k
                if d <= 3 * p and d % 3 == 0:
                    exp = (2,) * (d // 3) + (6,) * (p - d // 3) + (-2,) * (l - p)
                elif 0 < d < 3 * p and d % 3 == 1:
                    exp = (2,) * (d // 3) + (4,) + (6,) * (p - 1 - d // 3) + (-2,) * (l - p)
                elif 0 < d < 3 * p and d % 3 == 2:
                    exp = (2,) * (d // 3) + (3,) + (6,) * (p - 1 - d // 3) + (-2,) * (l - p)
                elif d > 3 * p:
                    exp = (2,) * p + g2.wbarstrip(d - 3 * p) + (-2,) * (k + 2 * p)
                else:
                    exp = w
                assert img == g2.sort_word(exp), (l, k, p)


def test_f0_anchor_families():
    # the affine lowering operator walks the boundary family and vanishes
    # at its end
    for l in (1, 2, 3):
        bl = affine.bl_crystal(l)
        for p in range(l):
            w = (6,) * p + (-2,) * (l - p)
            assert bl.f(0, w) == (6,) * (p + 1) + (-2,) * (l - p - 1)
        assert bl.f(0, (6,) * l) is None


def test_level1_f0_table():
    bl = affine.bl_crystal(1)
    assert bl.f(0, ()) == (1,)
    assert bl.e(0, ()) == (-1,)
    assert bl.f(0, (-1,)) == ()
    assert bl.f(0, (-6,)) == (2,)


def test_verify_construction_passes():
    for l in (1, 2, 3):
        rep = affine.verify_construction(l)
        assert rep["all_pass"], {k: v for k, v in rep.items()
                                 if isinstance(v, dict) and not v["pass"]}


def test_crystal_axioms_on_bl():
    # inverse pairing, weight shift, and the phi - eps pairing identity for
    # all three colors
    from g2crystal.cartan import simple_root

    for l in (1, 2, 3):
        bl = affine.bl_crystal(l)
        for w in bl.elements:
            wt = bl.weight(w)
            for i in (0, 1, 2):
                assert bl.phi_i(i, w) - bl.eps(i, w) == wt.wt(i)
                img = bl.f(i, w)
                if img is not None:
                    assert bl.e(i, img) == w
                    assert bl.weight(img) == wt - simple_root(i)
                img = bl.e(i, w)
                if img is not None:
                    assert bl.f(i, img) == w
                    assert bl.weight(img) == wt + simple_root(i)


def test_level1_crystal_table_exact():
    bl = affine.bl_crystal(1)
    assert len(bl.elements) == 15
    assert bl._f[0] == {(-6,): (2,), (-4,): (3,), (-3,): (4,), (-2,): (6,),
                        (-1,): (), (): (1,)}
    assert bl._f[1] == {(1,): (2,), (4,): (5,), (6,): (8,), (8,): (-6,),
                        (-5,): (-4,), (-2,): (-1,)}
    assert bl._f[2] == {(2,): (3,), (3,): (4,), (4,): (6,), (5,): (7,),
                        (7,): (-5,), (-6,): (-4,), (-4,): (-3,), (-3,): (-2,)}


def test_closed_form_f1_matches_the_tableau_walk():
    # the A2 tableau crystal is the oracle for the model's color-1 action;
    # the blocks (0, m, n) of model(7) cover every shape m, n <= 7
    mod = affine.model(7)
    for m in range(8):
        for n in range(8):
            to_tab, to_coords = a2._coord_tables(m, n)
            for c, t in to_tab.items():
                b = AParam(0, m, n, *c)
                for op, got in (("f", mod.f1(b)), ("e", mod.e1(b))):
                    img = a2.apply(op, "a", t)
                    want = None if img is None else AParam(0, m, n, *to_coords[img])
                    assert got == want, (op, b)


def test_bl_tables_read_each_row_off_its_prefix(monkeypatch, fresh_caches):
    # B^3's color-1/2 rows come from the prefix rows: no word is folded
    calls = Counter()
    for mod, name in ((g2, "strings"), (g2, "apply"), (a2, "apply")):
        def wrapper(*args, fn=getattr(mod, name), key=f"{mod.__name__}.{name}"):
            calls[key] += 1
            return fn(*args)

        monkeypatch.setattr(mod, name, wrapper)
    affine.bl_crystal(3)
    assert calls == {}


def test_prefix_rows_are_the_word_folds():
    # g2.strings, which folds the whole word and re-sorts its images, is the
    # oracle; the tables keep element order, which graph iterates in
    for l in range(8):
        bl = affine.bl_crystal(l)
        for i in (1, 2):
            rows = [g2.strings(i, w) for w in bl.elements]
            assert bl._eps[i] == [r[0] for r in rows], (l, i)
            assert bl._phi[i] == [r[1] for r in rows], (l, i)
            for table, k in ((bl._f[i], 2), (bl._e[i], 3)):
                want = [(w, r[k]) for w, r in zip(bl.elements, rows) if r[k] is not None]
                assert list(table.items()) == want, (l, i, k)


def test_undefined_prefix_step_is_a_construction_fault(monkeypatch, fresh_caches):
    # f_1 of (1,) dropped from its row: f_1 of (1, 2) acts on that prefix
    two_factor = affine.BlCrystal._two_factor

    def dropped(self, i):
        for w, row in zip(self.elements, two_factor(self, i)):
            yield row[:2] + (None, row[3]) if (i, w) == (1, (1,)) else row

    monkeypatch.setattr(affine.BlCrystal, "_two_factor", dropped)
    with pytest.raises(affine.ConstructionFault, match=r"color-1 rule at \(1, 2\) needs an undefined step"):
        affine.bl_crystal(2)


def test_untabulated_prefix_is_a_construction_fault(monkeypatch, fresh_caches):
    # (1, 1) moved before its prefix (1,)
    gl_elements = affine.gl_elements

    def shuffled(l):
        words = gl_elements(l)
        words.remove((1, 1))
        return words[:1] + [(1, 1)] + words[1:]

    monkeypatch.setattr(affine, "gl_elements", shuffled)
    with pytest.raises(affine.ConstructionFault, match=r"prefix \(1,\) of \(1, 1\) is not tabulated"):
        affine.bl_crystal(2)


def test_construction_fault_on_bad_param():
    mod = affine.model(2)
    with pytest.raises(affine.ConstructionFault):
        mod.CA(AParam(0, 5, 5, 0, 0, 0))


def test_anchor_formulas_hold_through_level6():
    for l in range(1, 7):
        counts = affine.verify_anchors(l, affine.phi_table(l).forward)
        assert counts == dict.fromkeys(("R1", "R2", "R3", "R4", "R5", "R6", "R8/R9"), 0), l
    entry = affine.verify_construction(2)["anchor_formulas"]
    assert entry["pass"] and entry["failures"] == 0


# -- failure injection: a mis-transcribed case must not pass silently -----


def test_injected_ea_plus_case_is_a_construction_fault(monkeypatch, fresh_caches):
    # the k == i, j == i+1 case with its threshold p <= i lowered to p <= i-1
    original = affine.ea_plus

    def ea_plus(l, i, k, j, p, q):
        if k == i and j == i + 1 and p == i:
            return (i, k, j + 1, p + 1, q + 1) if j < l - i else None
        return original(l, i, k, j, p, q)

    monkeypatch.setattr(affine, "ea_plus", ea_plus)
    with pytest.raises(affine.ConstructionFault):
        affine.phi_table(2)


def test_injected_anchor_formula_fails_only_its_rule(monkeypatch, fresh_caches):
    # the m == 2 residue case of the highest-element formula ends in -4, not -3
    original = affine._anchor_highest

    def anchor_highest(l, i, j):
        y, m = divmod(l - i - j, 3)
        if m == 2:
            return g2.sort_word((6,) * (y + 1) + g2.cstrip(y + i) + (-4,) + (-2,) * (y + j))
        return original(l, i, j)

    monkeypatch.setattr(affine, "_anchor_highest", anchor_highest)
    rep = affine.verify_construction(3)
    entry = rep["anchor_formulas"]
    assert not entry["pass"] and not rep["all_pass"]
    assert [rule for rule, n in entry["rules"].items() if n] == ["R4"]
    assert all(v["pass"] for name, v in rep.items()
               if isinstance(v, dict) and name != "anchor_formulas")


def test_injected_transition_is_a_construction_fault(monkeypatch, fresh_caches, capsys):
    # the last coordinate of the closed-form transition off by one
    def transition(r, q, p):
        return max(p, q - r), r + p, min(r, q - p + 1)

    monkeypatch.setattr(affine, "transition", transition)
    with pytest.raises(affine.ConstructionFault):
        affine.phi_table(2)
    assert main(["verify", "--level", "2"]) == 1
    assert capsys.readouterr().out.count("construction FAILED: ") == 1


def test_injected_letter_step_is_a_construction_fault(monkeypatch, fresh_caches):
    monkeypatch.setitem(g2.F1_STEP, 4, 6)
    with pytest.raises(affine.ConstructionFault):
        affine.phi_table(2)


def test_injected_non_tableau_image_is_a_construction_fault(monkeypatch, fresh_caches):
    # f_1 sends (1, 3) to (3, 3), which is not a tableau
    monkeypatch.setitem(g2.F1_STEP, 1, 3)
    with pytest.raises(affine.ConstructionFault):
        affine.phi_table(2)


def test_non_tableau_image_in_bl_tables_is_a_construction_fault(monkeypatch, fresh_caches):
    monkeypatch.setitem(g2.F1_STEP, 1, 3)
    with pytest.raises(affine.ConstructionFault, match="is not a tableau"):
        affine.bl_crystal(2)


def test_zero_two_commutation_lists_each_failure_once(fresh_caches):
    bl = affine.bl_crystal(2)
    fmap = bl._f[0]
    # send f_0 w to (), where f_2 is undefined, so f_2 f_0 w becomes None
    w = next(w for w in bl.elements if w in fmap and bl.f(2, fmap[w]) is not None)
    fmap[w] = ()

    def f(i, x):
        return None if x is None else bl.f(i, x)

    expected = [(x, "f") for x in bl.elements if f(2, f(0, x)) != f(0, f(2, x))]
    entry = affine.verify_construction(2)["zero_two_commutation"]
    assert 0 < len(expected) <= 10
    assert entry["failures"] == len(expected)
    assert entry["counterexamples"] == expected


def test_verify_construction_reads_each_model_weight_once(monkeypatch):
    # B^3: one weight per model element (365) and one per {1,0}-component
    # source, one per block (20)
    calls = []
    weight = affine.AffineModel.weight
    monkeypatch.setattr(affine.AffineModel, "weight", lambda self, b: calls.append(b) or weight(self, b))
    affine.bl_crystal(3)
    calls.clear()
    assert affine.verify_construction(3)["all_pass"]
    assert len(calls) == 365 + len(affine.model(3).blocks) == 385
