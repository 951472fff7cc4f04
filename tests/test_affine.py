import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from g2crystal import a2, affine, g2
from g2crystal.affine import AParam
from g2crystal.cli import main
from test_g2 import wbarstrip


def _depth(table, n):
    """Steps from position n along a position table until it is undefined;
    a walk on a cycle stops after len(table) steps and reads len(table) + 1,
    a depth no string has."""
    for d in range(len(table) + 1):
        n = table[n]
        if n is None:
            return d
    return len(table) + 1


def ea_depth(mod, b):
    return _depth(mod._ea, mod.position(b))


def fa_depth(mod, b):
    return _depth(mod._fa, mod.position(b))


# the model's colour 0 in closed form: f_0 and e_0 move along the f_0-string
# (i, k, j, p, q), r from 0 to its top j + q - 2p, and phi_0 = top - r.  The
# oracle of the string runs (``affine._r_phi0``) and of B^l's colour 0
# (``BlCrystal._zero``).
def f0(b):
    i, k, j, p, q, r = b
    return None if r >= j + q - 2 * p else AParam(i, k, j, p, q, r + 1)


def e0(b):
    return None if b.r == 0 else b._replace(r=b.r - 1)


def phi0(b):
    return b.j + b.q - 2 * b.p - b.r


def transition(r, q, p):
    """(r', q', p') with f_b^r f_a^q f_b^p = f_a^r' f_b^q' f_a^p' on an A2 highest element.

    Its own inverse (Littelmann, Transform. Groups 3 (1998); Berenstein-Zelevinsky,
    Invent. Math. 143 (2001)).  The oracle of the model's f_1 slices.
    """
    return max(p, q - r), r + p, min(r, q - p)


def y_of(mod, i, j):
    return (mod.l - i - j) // 3


def classify(mod, b):
    """Membership in the anchor sets B_C, B_W, B_U, B_R.

    B_C is the q = p wedge of the k = l-i blocks together with its whole
    f_0-fiber; B_W and B_U are the displayed wedges on the j = i and p = j
    edges; B_R is the residual of the terminal r = 0 set, which absorbs the
    over-constrained inequality description.
    """
    l = mod.l
    if b.k == l - b.i and b.q == b.p:
        return "BC"
    y = y_of(mod, b.i, b.j)
    if b.k == l - b.i and b.r == 0:
        if b.j == b.i and b.p < b.q <= y + b.i:
            return "BW"
        if b.p == b.j and b.j < b.q <= y + 2 * b.j - b.i:
            return "BU"
    if b.r == 0 and mod.FA(b) is None:
        return "BR"
    return None


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
            t = f0(b)
            lhs = None if t is None else mod.EA(t)
            rhs = None if (up is None or t is None) else f0(up)
            assert lhs == rhs
            if up is not None:
                assert phi0(up) == phi0(b)


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
            assert fa_depth(mod, b) - ea_depth(mod, b) == -2 * w1 - w0


def test_depth_weight_spot():
    # the highest element of the (2,1) block at level 2 sits at the string
    # bottom with raising depth five
    mod = affine.model(2)
    b = AParam(0, 2, 1, 0, 0, 0)
    assert fa_depth(mod, b) == 0
    assert ea_depth(mod, b) == 5
    w1, w0 = mod.weight(b)
    assert -2 * w1 - w0 == -5


def test_depth_on_an_operator_cycle_is_a_failure(fresh_caches):
    # E_A sends up back to b: the depth walk stops after len(_ea) steps, and
    # C3 reports the cycle as data
    mod = affine.model(2)
    n = next(n for n, up in enumerate(mod._ea) if up is not None)
    mod._ea[mod._ea[n]] = n
    assert ea_depth(mod, mod.elements[n]) == len(mod._ea) + 1
    report = affine.verify_construction(2)
    assert report["string_depth_weight"]["failures"] == 4
    assert report["pair_mutual_inverse"]["failures"] == 2
    assert not report["all_pass"]


def test_depth_tables_are_the_depth_walks():
    for l in (1, 2, 3, 4):
        mod = affine.model(l)
        for table in (mod._ea, mod._fa):
            assert affine._depths(table) == [_depth(table, n) for n in range(len(table))]
    # a tail into a cycle reads len(table) + 1 on every position that reaches
    # it: 0 -> 1 -> 2 -> 1, and 4 -> 3
    table = [1, 2, 1, None, 3]
    assert affine._depths(table) == [6, 6, 6, 0, 1]
    assert [_depth(table, n) for n in range(5)] == [6, 6, 6, 0, 1]


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
        labels = {b: classify(mod, b) for b in terminal}
        assert all(v is not None for v in labels.values())
        # terminal elements all live on the k = l - i blocks with the
        # consolidated bound q <= y + j - (i - p)+
        for b in terminal:
            assert b.k == l - b.i
            y = y_of(mod, b.i, b.j)
            assert b.p <= b.q <= y + b.j - max(b.i - b.p, 0)
        # the residual set equals the display with the doubled q-constraint
        # dropped: i < j, p < min(q, j), q within the consolidated bound
        residual = {b for b in terminal if labels[b] == "BR"}
        disp = set()
        for b in mod.elements:
            if b.r or b.k != l - b.i or b.j <= b.i:
                continue
            y = y_of(mod, b.i, b.j)
            if b.p < min(b.q, b.j) and b.q <= y + b.j - max(b.i - b.p, 0):
                disp.add(b)
        assert residual == disp


def test_classify_examples():
    mod = affine.model(2)
    assert classify(mod, AParam(0, 2, 1, 0, 0, 0)) == "BC"
    assert classify(mod, AParam(1, 1, 1, 0, 1, 0)) == "BW"
    # B_W at level 2 via the displayed inequalities p < q <= y + j, y = 0
    assert classify(mod, AParam(1, 1, 1, 0, 1, 0)) == "BW"


def test_conjugate_of_string_top():
    # from the wedge sets the conjugate of the raising-string top lands in
    # the anchor wedge (or stays in the residual fiber)
    for l in (2, 3):
        mod = affine.model(l)
        for b in mod.elements:
            c = classify(mod, b)
            if c in ("BW", "BU"):
                end, _ = _terminal_of_string(mod, b)
                assert classify(mod, mod.CA(end)) == "BC"
            elif c == "BR":
                end, _ = _terminal_of_string(mod, b)
                assert classify(mod, mod.CA(end)._replace(r=0)) == "BR"


def test_conjugate_top_lands_in_wedge():
    # over the j = i wedge the conjugated string top is always an anchor
    # element of a k = l - i block with q = p (its transcribed closed form
    # has out-of-range exponents and is not reproduced here)
    for l in (2, 3, 4):
        mod = affine.model(l)
        for b in mod.elements:
            if classify(mod, b) != "BW":
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
            x = mod._move(mod._f1, x)
    bottom = set()
    for p in range(k):
        x = AParam(i, k, j, j, j + k, k - p)
        for q in range(p + j + 1):
            assert x is not None
            bottom.add(x)
            x = mod._move(mod._e1, x)
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
        assert len(set(table.forward.values())) == len(mod.elements)
        words = {w for n in range(l + 1) for w in g2.enumerate_tableaux(n)}
        assert set(table.forward.values()) == words


def test_gl_elements_come_by_length_then_letter_order():
    for l in range(7):
        words = affine.bl_crystal(l).elements
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
                    exp = (2,) * p + wbarstrip(d - 3 * p) + (-2,) * (k + 2 * p)
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
                for op, got in (("f", mod._move(mod._f1, b)), ("e", mod._move(mod._e1, b))):
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


def test_every_stored_position_is_a_model_position():
    # the model's positions are B^l's: every table of both, Phi and the
    # index store the model's own int objects, compared by identity
    for l in range(7):
        mod, bl = affine.model(l), affine.bl_crystal(l)
        ids = set(map(id, mod._at))
        tables = [mod._f1, mod._e1, mod._ea, mod._ca, mod._fa, *bl._fpos, *bl._epos,
                  bl.phi.perm, bl.phi.inverse, list(bl.index.values())]
        for n, table in enumerate(tables):
            assert all(id(t) in ids for t in table if t is not None), (l, n)


def test_every_dropped_string_is_a_construction_fault(drop_string):
    # a model without one of level 2's f_0-strings: the first operator that
    # reads it, f_1, E_A or C_A, names the fault, and no lookup raises
    keys = [s for s, _ in affine._strings(affine.model(2).blocks)]
    assert len(keys) == 40
    faults = Counter()
    for key in keys:
        drop_string(key)
        with pytest.raises(affine.ConstructionFault) as fault:
            affine.model(2)
        faults[str(fault.value).partition(":")[0]] += 1
    assert faults == {"f_1 left the crystal": 11, "E_A left the crystal": 15,
                      "involution left the crystal": 14}


def test_undefined_prefix_step_is_a_construction_fault(monkeypatch, fresh_caches):
    # f_1 of the letter 1 dropped: f_1 of (1,) acts on its letter, the first
    # child of the empty prefix, and needs that step
    monkeypatch.delitem(g2.F1_STEP, 1)
    with pytest.raises(affine.ConstructionFault,
                       match=r"color-1 rule at \(1,\) needs an undefined step"):
        affine.bl_crystal(2)


def test_negative_level_is_refused():
    with pytest.raises(ValueError, match="level must be nonnegative"):
        affine.AffineModel(-1)


def test_model_smaller_than_bl_is_a_construction_fault(monkeypatch, fresh_caches, capsys):
    # a model with no f_0-string against B^1's 15 words: zip would pair
    # none of them, and the prefix tree would index past the model
    monkeypatch.setattr(affine, "_strings", lambda blocks: iter(()))
    assert main(["verify", "--level", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "level 1: construction FAILED: B^1 has 15 words but the model 0 elements"]


def test_construction_fault_on_bad_param():
    mod = affine.model(2)
    with pytest.raises(affine.ConstructionFault):
        mod.CA(AParam(0, 5, 5, 0, 0, 0))


def test_anchor_formulas_hold_through_level7(monkeypatch):
    # the f_0^p anchor's p > i, m == 1, y > 0 case is read from l = 5, but
    # with i >= 1, where its (1,) * i letters show, first at l = 7
    calls = []
    anchor_f0p = affine._anchor_f0p
    monkeypatch.setattr(affine, "_anchor_f0p",
                        lambda l, i, j, p: calls.append((l, i, j, p)) or anchor_f0p(l, i, j, p))
    for l in range(1, 8):
        counts = affine.verify_anchors(l, affine.phi_table(l))
        assert counts == dict.fromkeys(("R1", "R2", "R3", "R5", "R6", "R8/R9"), 0), l
    branch = [(l, i, j, p) for l, i, j, p in calls
              if p > i >= 1 and (l - i - j) % 3 == 1 and (l - i - j) // 3 > 0]
    assert branch and min(l for l, *_ in branch) == 7
    # each residue branch folds p <= i (a = min(p, i) ones) and p > i
    # (b = p - i sixes); the level where each first reads a > 0 and b > 0
    first = {}
    for l, i, j, p in calls:
        y, m = divmod(l - i - j, 3)
        case = ("m=1, y+i>a" if y + i > min(p, i) else "m=1, else") if m == 1 else f"m={m}"
        for part, used in (("a", p > 0 and i > 0), ("b", p > i)):
            if used:
                first.setdefault((case, part), l)
    assert first == {("m=0", "a"): 2, ("m=0", "b"): 1, ("m=2", "a"): 4, ("m=2", "b"): 3,
                     ("m=1, y+i>a", "a"): 5, ("m=1, y+i>a", "b"): 5,
                     ("m=1, else", "a"): 3, ("m=1, else", "b"): 2}
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
    # the m == 2 residue case of the f_0^p formula ends in -4, not -3
    original = affine._anchor_f0p

    def anchor_f0p(l, i, j, p):
        y, m = divmod(l - i - j, 3)
        if m == 2:
            a, b = min(p, i), max(p - i, 0)
            return ((1,) * a + (6,) * (y + b + 1) + g2.cstrip(y + i - a) + (-4,)
                    + (-2,) * (y + j - b))
        return original(l, i, j, p)

    monkeypatch.setattr(affine, "_anchor_f0p", anchor_f0p)
    rep = affine.verify_construction(3)
    entry = rep["anchor_formulas"]
    assert not entry["pass"] and not rep["all_pass"]
    assert [rule for rule, n in entry["rules"].items() if n] == ["R5", "R6"]
    assert all(v["pass"] for name, v in rep.items()
               if isinstance(v, dict) and name != "anchor_formulas")


def test_non_letter_in_an_anchor_fails_its_rule(monkeypatch, fresh_caches, capsys):
    # the letter 1 of the f_0^p anchor mis-transcribed as 0, which is no
    # letter: first read at level 2, where R5 fails and its R6 string is void
    anchor_f0p = affine._anchor_f0p
    monkeypatch.setattr(affine, "_anchor_f0p", lambda l, i, j, p: tuple(
        0 if a == 1 else a for a in anchor_f0p(l, i, j, p)))
    assert main(["verify", "--level", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "level 2 anchor_formulas: FAIL" in lines
    assert lines[-1] == "level 2: construction verification FAILED"
    assert sum("FAIL" in line for line in lines) == 2
    counts = affine.verify_construction(2)["anchor_formulas"]["rules"]
    assert [rule for rule, n in counts.items() if n] == ["R5", "R6"]


def test_moved_f1_image_is_a_construction_fault(monkeypatch, fresh_caches, capsys):
    # the first f_1 image moved one position on, before B^l is built: the
    # walk that builds Phi meets it, and verify stops at its first level
    init = affine.AffineModel.__init__

    def moved(self, l):
        init(self, l)
        n = next(n for n, t in enumerate(self._f1) if t is not None)
        self._f1[n] += 1

    monkeypatch.setattr(affine.AffineModel, "__init__", moved)
    with pytest.raises(affine.ConstructionFault):
        affine.phi_table(2)
    assert main(["verify", "--level", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum("construction FAILED" in line for line in lines) == 1


def test_poisoned_e1_entry_fails_color1_compatibility(fresh_caches):
    # build_phi walks f_1 only, so an e_1 entry poisoned after the build is
    # caught by E1 alone
    affine.bl_crystal(2)
    mod = affine.model(2)
    n = next(n for n, t in enumerate(mod._e1) if t is not None)
    mod._e1[n] = n
    rep = affine.verify_construction(2)
    assert rep["color1_compatibility"]["counterexamples"] == [(mod.param(n), "e1")]
    assert [name for name, v in rep.items() if isinstance(v, dict) and not v["pass"]] == [
        "color1_compatibility"]


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
    f0, f2 = bl._fpos[0], bl._fpos[2]
    # send f_0 w to (), where f_2 is undefined, so f_2 f_0 w becomes None
    n = next(n for n, t in enumerate(f0) if t is not None and f2[t] is not None)
    f0[n] = bl.index[()]

    def f(i, x):
        return None if x is None else bl.f(i, x)

    expected = [(x, "f") for x in bl.elements if f(2, f(0, x)) != f(0, f(2, x))]
    entry = affine.verify_construction(2)["zero_two_commutation"]
    assert 0 < len(expected) <= 10
    assert entry["failures"] == len(expected)
    assert entry["counterexamples"] == expected


def test_verify_construction_reads_each_model_weight_once(monkeypatch):
    # B^3: the checks read each element's weight off its f_0-string, so the
    # only weights read are one per {1,0}-component source, one per block (20)
    calls = []
    weight = affine.AffineModel.weight
    monkeypatch.setattr(affine.AffineModel, "weight", lambda self, b: calls.append(b) or weight(self, b))
    affine.bl_crystal(3)
    calls.clear()
    assert affine.verify_construction(3)["all_pass"]
    assert len(calls) == len(affine.model(3).blocks) == 20


def test_fast_paths_match_the_model_operators():
    # verify_construction reads f_0/e_0 off the r-runs, C_A off its table
    # and F_A off its table; the operators themselves are the oracle
    for l in range(7):
        mod, bl, table = affine.model(l), affine.bl_crystal(l), affine.phi_table(l)
        elements, fwd = mod.elements, table.forward
        back = {w: b for b, w in fwd.items()}
        for n, b in enumerate(elements):
            assert f0(b) == (elements[n + 1] if phi0(b) else None), b
            assert e0(b) == (elements[n - 1] if b.r else None), b
            i, k, j, p, q, r = b
            assert elements[mod._ca[n]] == AParam(i, j, k, k - q + p, k + j - q, j + q - 2 * p - r)
            up = mod.EA(mod.CA(b))
            assert mod.FA(b) == (None if up is None else mod.CA(up)), b
        # B^l's color 0, tabulated from the same runs, is f_0/e_0 through Phi
        assert bl._f[0] == {fwd[b]: fwd[t] for b in elements if (t := f0(b)) is not None}
        assert bl._e[0] == {fwd[b]: fwd[t] for b in elements if (t := e0(b)) is not None}
        assert bl._eps[0] == [back[w].r for w in bl.elements]
        assert bl._phi[0] == [phi0(back[w]) for w in bl.elements]


def test_aparam_is_its_field_tuple():
    t = (0, 2, 1, 0, 0, 3)
    b = AParam(*t)
    assert hash(b) == hash(t) and b == t
    assert repr(b) == "AParam(i=0, k=2, j=1, p=0, q=0, r=3)"
    assert not hasattr(b, "__dict__")
    assert type(b._replace(r=0)) is AParam
    assert b._asdict() == {"i": 0, "k": 2, "j": 1, "p": 0, "q": 0, "r": 3}


def test_model_build_makes_no_aparam_beyond_its_elements(monkeypatch):
    # the build works on positions, each image found from its string's
    # start plus r; the AParams are made on the first read of elements only
    made = []
    new = AParam.__new__
    monkeypatch.setattr(AParam, "__new__",
                        staticmethod(lambda cls, *args: made.append(args) or new(cls, *args)))
    mod = affine.AffineModel(4)
    assert made == []
    assert len(mod.elements) == 1113
    assert len(made) == 1113
    # a second read makes none
    assert len(mod.elements) == 1113
    assert len(made) == 1113
    # a fault message still names both elements as AParams
    monkeypatch.setattr(affine, "ea_plus", lambda l, i, k, j, p, q: (i, k, j, p + 9, q))
    with pytest.raises(affine.ConstructionFault,
                       match=r"^E_A left the crystal: AParam\(i=0, .*\) -> AParam\(i=0, k=0, j=0, p=9, "):
        affine.AffineModel(1)


def test_model_values_are_computed_once(monkeypatch, fresh_caches):
    # one involution image per f_0-string in the build; no C_A call and one
    # weight per {1,2}-highest element in B^l's build, and only the weight of
    # each {1,0}-component source in the check
    images = []
    ca_string = affine.ca_string
    monkeypatch.setattr(affine, "ca_string", lambda *s: images.append(s) or ca_string(*s))
    mod = affine.model(3)
    assert images == [s for s, _ in affine._strings(mod.blocks)]
    assert len(images) == 125
    calls = []
    for name in ("CA", "weight"):
        op = getattr(affine.AffineModel, name)
        monkeypatch.setattr(affine.AffineModel, name,
                            lambda self, b, _name=name, _op=op: calls.append(_name) or _op(self, b))
    affine.bl_crystal(3)
    assert calls == ["weight"] * 4
    calls.clear()
    assert affine.verify_construction(3)["all_pass"]
    assert calls == ["weight"] * len(mod.blocks)


def test_string_built_tables_match_the_element_formulas():
    # the per-element formulas are the oracle of the tables built per
    # f_0-string: E_A is ea_plus with r kept, C_A the involution tuple
    for l in range(8):
        mod = affine.model(l)
        index = {b: n for n, b in enumerate(mod.elements)}
        f1, e1 = [None] * len(index), [None] * len(index)
        for n, (i, k, j, p, q, r) in enumerate(mod.elements):
            R, Q, P = transition(r, q, p)
            if R < k + Q - 2 * P:
                r2, q2, p2 = transition(R + 1, Q, P)
                f1[n] = index[(i, k, j, p2, q2, r2)]
                e1[f1[n]] = n
            base = affine.ea_plus(l, i, k, j, p, q)
            assert mod._ea[n] == (None if base is None else index[(*base, r)]), (l, n)
            assert mod._ca[n] == index[(i, j, k, k - q + p, k + j - q, j + q - 2 * p - r)], (l, n)
        assert mod._f1 == f1 and mod._e1 == e1, l


def test_ea_plus_onto_a_shorter_string_is_a_construction_fault(monkeypatch):
    # each string with q > p sent onto (i, k, j, p, p), whose top j - p is
    # lower: the first element past that top is named, no run is cut short
    monkeypatch.setattr(affine, "ea_plus",
                        lambda l, i, k, j, p, q: (i, k, j, p, p) if q > p else None)
    with pytest.raises(affine.ConstructionFault, match=re.escape(
            "E_A left the crystal: AParam(i=0, k=1, j=0, p=0, q=1, r=1) -> "
            "AParam(i=0, k=1, j=0, p=0, q=0, r=1)")):
        affine.AffineModel(2)


@pytest.mark.parametrize("image, message", [
    (lambda i, k, j, p, q: (i, j, k, p + 9, q),
     "involution left the crystal: AParam(i=0, k=0, j=0, p=0, q=0, r=0) -> "
     "AParam(i=0, k=0, j=0, p=9, q=0, r=0)"),
    (lambda i, k, j, p, q: (i, k, j, p, p),
     "involution sends the f_0-string of AParam(i=0, k=1, j=0, p=0, q=1, r=0) onto that of "
     "AParam(i=0, k=1, j=0, p=0, q=0, r=0), of another length"),
    (lambda i, k, j, p, q: (i, k, j, p, p + k),
     "involution sends the f_0-string of AParam(i=0, k=1, j=0, p=0, q=0, r=0) onto that of "
     "AParam(i=0, k=1, j=0, p=0, q=1, r=0), of another length"),
], ids=["missing", "shorter", "longer"])
def test_involution_onto_no_string_of_its_length_is_a_construction_fault(monkeypatch, image, message):
    monkeypatch.setattr(affine, "ca_string", image)
    with pytest.raises(affine.ConstructionFault, match=re.escape(message)):
        affine.AffineModel(2)


def test_shared_ea_image_is_listed_once(fresh_caches):
    # the second of two elements redirected to the first one's E_A image
    affine.bl_crystal(3)
    mod = affine.model(3)
    first, second = [n for n, up in enumerate(mod._ea) if up is not None][:2]
    up = mod._ea[first]
    mod._ea[second] = up
    entry = affine.verify_construction(3)["EA_injective"]
    assert not entry["pass"]
    assert entry["failures"] == 1
    assert entry["counterexamples"] == [tuple(mod.elements[n] for n in (first, second, up))]


def test_poisoned_involution_table_fails_the_anchor_check(fresh_caches):
    affine.bl_crystal(2)
    mod = affine.model(2)
    mod._ca[0] = mod._ca[1]
    entry = affine.verify_construction(2)["anchor_formulas"]
    assert not entry["pass"]
    assert entry["rules"]["R8/R9"] > 0
    assert entry["counterexamples"] == ["R8/R9"]


def test_involution_positions_are_the_involution_words():
    # g2.involution, which builds each word, is the oracle of the positions
    # grown along the prefix tree
    for l in range(9):
        bl = affine.bl_crystal(l)
        assert affine._involution_positions(bl) == [bl.index.get(g2.involution(w))
                                                     for w in bl.elements], l


def test_involution_off_the_tree_is_a_failure_not_an_exception(monkeypatch, fresh_caches):
    # with bar(1) = 5, (1, 1) goes to (5, 5), no tableau: each such image
    # counts as its element's R8/R9 failure, as the word-built count does
    table = affine.phi_table(2)
    bl, mod = affine.bl_crystal(2), affine.model(2)
    monkeypatch.setitem(g2._BAR, 1, 5)
    inv = affine._involution_positions(bl)
    assert inv == [bl.index.get(g2.involution(w)) for w in bl.elements]
    assert inv[bl.index[(1, 1)]] is None
    words, perm = table.words, table.perm
    expected = sum(g2.involution(words[perm[c]]) != words[perm[n]]
                   for n, c in enumerate(mod._ca))
    assert affine.verify_anchors(2, table)["R8/R9"] == expected > 0
    entry = affine.verify_construction(2)["anchor_formulas"]
    assert entry["counterexamples"] == ["R8/R9"]


def test_weight_compatibility_reads_the_letter_weights(monkeypatch, fresh_caches):
    # E3/E4 sums each word's letter weights along the prefix tree: a wrong
    # <h_1, wt> of the letter 0_1 fails it, with counterexamples
    monkeypatch.setitem(g2._WT1, 7, 1)
    report = affine.verify_construction(2)["weight_compatibility"]
    assert not report["pass"] and report["counterexamples"]


def test_positions_and_params_round_trip():
    # position and param, computed from the string starts, against the
    # element list
    for l in range(8):
        mod = affine.model(l)
        assert len(mod) == len(mod.elements)
        for n, b in enumerate(mod.elements):
            assert mod.position(b) == n, (l, b)
            got = mod.param(n)
            assert got == b and type(got) is AParam, (l, n)
        for n in (-1, len(mod)):
            with pytest.raises(IndexError):
                mod.param(n)


def test_position_of_a_non_element_is_what_the_index_gives():
    mod = affine.model(3)
    index = {b: n for n, b in enumerate(mod.elements)}
    top = AParam(0, 2, 1, 0, 0, 1)  # j + q - 2p = 1
    cases = [top, top._replace(r=2), top._replace(r=-1), top._replace(r="1"),
             AParam(0, 2, 1, 2, 2, 0),  # p > j
             AParam(1, 0, 1, 0, 0, 0),  # i > k: no such block
             AParam(0, 4, 1, 0, 0, 0),  # k > l - i
             (0, 2, 1, 0, 0), (0, 2, 1, 0, 0, 1, 0), tuple(top), None, 7, "abcdef"]
    for b in cases:
        assert mod.position(b) == index.get(b), b
    assert [mod.position(b) for b in cases[:3]] == [index[top], None, None]
    assert mod.position(tuple(top)) == index[top]


@pytest.mark.parametrize("argv, models", [(["verify", "--level", "4"], 4),
                                          (["dims", "--max-level", "4"], 5),
                                          (["phi", "--level", "4"], 1)])
def test_commands_build_no_model_element_list(monkeypatch, fresh_caches, capsys, argv, models):
    # every model a cold command builds keeps its positions only: the list
    # elements is never made
    built = []
    init = affine.AffineModel.__init__
    monkeypatch.setattr(affine.AffineModel, "__init__",
                        lambda self, l: built.append(self) or init(self, l))
    assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == models
    for mod in built:
        assert "elements" not in vars(mod), mod.l


def test_derived_tables_are_made_once_per_level(monkeypatch, fresh_caches):
    # the prefix tree and the per-position (r, phi_0) tables serve both the
    # build and the check
    calls = Counter()
    for name in ("_prefix_tree", "_r_phi0"):
        fn = getattr(affine, name)
        monkeypatch.setattr(affine, name,
                            lambda *a, _fn=fn, _name=name: calls.update([_name]) or _fn(*a))
    affine.bl_crystal(3)
    assert affine.verify_construction(3)["all_pass"]
    assert calls == {"_prefix_tree": 1, "_r_phi0": 1}


# per table poisoned after the level-3 build, and per poison (its first
# defined entry made undefined, or sent to the first other image the table
# holds), the checks of verify_construction that fail.  C_A is filled from
# whole string slices, so an undefined C_A entry cannot occur.  A wrong
# colour-0 image where one is defined, f_0 () = (1, 1) in place of (1,),
# fails E5 alone: E5 compares the images, not only where they vanish.
POISONED_CHECKS = {
    ("_ea", None): {"pair_mutual_inverse", "string_depth_weight", "color2_compatibility"},
    ("_ea", "image"): {"pair_mutual_inverse", "affine_color_commutation", "string_depth_weight",
                       "EA_injective", "color2_compatibility"},
    ("_fa", None): {"pair_mutual_inverse", "string_depth_weight", "color2_compatibility"},
    ("_fa", "image"): {"pair_mutual_inverse", "color2_compatibility"},
    ("_f1", None): {"color1_compatibility"},
    ("_f1", "image"): {"color1_compatibility"},
    ("_e1", None): {"color1_compatibility"},
    ("_e1", "image"): {"color1_compatibility"},
    ("_ca", "image"): {"anchor_formulas"},
    ("_fpos[0]", None): {"vanishing_compatibility"},
    ("_fpos[0]", "image"): {"vanishing_compatibility"},
    ("_epos[0]", None): {"vanishing_compatibility"},
    ("_epos[0]", "image"): {"vanishing_compatibility"},
    ("_fpos[1]", None): {"color1_compatibility", "restriction_12"},
    ("_fpos[1]", "image"): {"color1_compatibility", "restriction_10"},
    ("_epos[1]", None): {"color1_compatibility"},
    ("_epos[1]", "image"): {"color1_compatibility"},
    ("_fpos[2]", None): {"color2_compatibility", "zero_two_commutation", "restriction_12"},
    ("_fpos[2]", "image"): {"color2_compatibility", "zero_two_commutation"},
    ("_epos[2]", None): {"color2_compatibility", "zero_two_commutation"},
    ("_epos[2]", "image"): {"color2_compatibility", "zero_two_commutation"},
}


def test_every_poisoned_table_fails_its_checks(fresh_caches):
    bl, mod = affine.bl_crystal(3), affine.model(3)
    tables = {"_ea": mod._ea, "_fa": mod._fa, "_f1": mod._f1, "_e1": mod._e1, "_ca": mod._ca,
              **{f"_fpos[{i}]": bl._fpos[i] for i in range(3)},
              **{f"_epos[{i}]": bl._epos[i] for i in range(3)}}
    assert affine.verify_construction(3)["all_pass"]
    failed = {}
    for (name, poison), expected in POISONED_CHECKS.items():
        table = tables[name]
        n, old = next((n, t) for n, t in enumerate(table) if t is not None)
        table[n] = None if poison is None else next(t for t in table if t not in (None, old))
        try:
            rep = affine.verify_construction(3)
        finally:
            table[n] = old
        assert not rep["all_pass"], (name, poison)
        failed[name, poison] = {k for k, v in rep.items() if isinstance(v, dict) and not v["pass"]}
    assert failed == POISONED_CHECKS
    assert affine.verify_construction(3)["all_pass"]
    # the f_0 example above: f_0 () = (1,), and the next image is (1, 1)
    assert [bl.elements[t] for t in bl._fpos[0][:2]] == [(1,), (1, 1)]


def test_prefix_tree_is_numbered_alike_under_every_hash_seed():
    # the letter runs are numbered as they first occur, not in a set's
    # order, which follows the string hash seed
    src = Path(__file__).resolve().parents[1] / "src"
    code = "from g2crystal import affine\nprint(affine.bl_crystal(4)._tree[:2])"
    outs = [subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": str(src),
                                            "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert outs[0] == outs[1] and outs[0].startswith("([(")
