import random
from itertools import product

import pytest

from g2crystal import g2
from g2crystal.cartan import from_classical_pair


def closure_from_highest(n):
    """Independent oracle: the f-closure of [1^n] under both colors."""
    start = (1,) * n
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i in (1, 2):
                img = g2.apply("f", i, w)
                if img is not None and img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def wstrip(k):
    """f_2^k applied to [2^k], by residue of k mod 3."""
    h, r = divmod(k, 3)
    if r == 0:
        return (2,) * (2 * h) + (6,) * h
    if r == 1:
        return (2,) * (2 * h) + (3,) + (6,) * h
    return (2,) * (2 * h + 1) + (4,) + (6,) * h


def wbarstrip(k):
    """e_2^k applied to [(-2)^k], by residue of k mod 3."""
    h, r = divmod(k, 3)
    if r == 0:
        return (-6,) * h + (-2,) * (2 * h)
    if r == 1:
        return (-6,) * h + (-3,) + (-2,) * (2 * h)
    return (-6,) * h + (-4,) + (-2,) * (2 * h + 1)


def test_fundamental_graph():
    assert g2.F1_STEP == {1: 2, 4: 5, 6: 8, 8: -6, -5: -4, -2: -1}
    assert g2.F2_STEP == {2: 3, 3: 4, 4: 6, 5: 7, 7: -5, -6: -4, -4: -3, -3: -2}
    assert g2.apply("f", 1, (1,)) == (2,)
    assert g2.apply("f", 2, (3,)) == (4,)
    assert len(g2.LETTERS) == 14


def test_dim_formula():
    assert [g2.dim(n) for n in range(6)] == [1, 14, 77, 273, 748, 1729]


def test_enumeration_matches_closure():
    for n in range(4):
        assert set(g2.enumerate_tableaux(n)) == closure_from_highest(n)


def test_enumeration_is_the_closure_in_letter_order():
    # the CLI lists words in this order, so it is pinned, not only the set
    def key(w):
        return [g2.ORDER_INDEX[a] for a in w]

    for n in range(6):
        assert list(g2.enumerate_tableaux(n)) == sorted(closure_from_highest(n), key=key)


def test_enumeration_is_the_valid_sorted_extensions():
    # the per-word predicate is the oracle of the extension states
    for n in range(1, 8):
        expected = [w + (a,) for w in g2.enumerate_tableaux(n - 1) for a in g2.LETTERS
                    if g2.is_valid_word(w + (a,))]
        assert list(g2.enumerate_tableaux(n)) == expected, n


def test_valid_words_of_length_3_are_the_enumerated_tableaux():
    # every one of the 14^3 words; the counting constraints alone keep the
    # incomparable pairs {5,6}, {0_1,0_2} and {-5,-6} apart
    valid = {w for w in product(g2.LETTERS, repeat=3) if g2.is_valid_word(w)}
    assert valid == set(g2.enumerate_tableaux(3))


def test_enumeration_counts_once_per_extension_state(monkeypatch, fresh_enumeration):
    # 682 calls over 256 states; one call per letter tried per word was 29,400
    calls = []
    counts_ok = g2._counts_ok
    monkeypatch.setattr(g2, "_counts_ok", lambda c: calls.append(1) or counts_ok(c))
    for n in range(9):
        g2.enumerate_tableaux(n)
    assert len(calls) <= 1500


def test_enumeration_fixture_survives_a_plain_function_patched_over_it(monkeypatch, fresh_enumeration):
    # monkeypatch is undone after fresh_enumeration's teardown, which runs
    # while _grown is still the plain function
    grown = g2._grown
    monkeypatch.setattr(g2, "_grown", lambda n: grown(n))
    assert g2._grown(2) == grown(2)


def test_poisoned_constraint_fails_the_dimension_check(second_constraint_without_0_1):
    with pytest.raises(RuntimeError, match=r"B\(2\*La1\) gave 79 words, expected 77"):
        g2.enumerate_tableaux(2)


def test_printed_constraints_needed_correction():
    # the two weight-zero-letter constraints must include 0_1, otherwise
    # words such as [3, 0_1] slip through and the count at n=2 is 81
    assert not g2.is_valid_word((3, 7))
    assert not g2.is_valid_word((4, 7))
    assert not g2.is_valid_word((7, -4))
    assert not g2.is_valid_word((7, -3))
    assert g2.is_valid_word((3, 8))
    assert g2.is_valid_word((6, 8))
    assert not g2.is_valid_word((6, 7))
    assert not g2.is_valid_word((7, -6))


def test_letter_words_examples():
    assert g2.EP1[6] == (0, 2)   # color-1 word of 6 is two pluses
    assert g2.EP2[2] == (0, 3)   # color-2 word of 2 is three pluses
    assert g2.EP1[8] == (1, 1)
    assert g2.EP2[-6] == (0, 3)


def test_apply_examples():
    assert g2.apply("f", 1, (6,)) == (8,)
    for n in range(1, 4):
        assert g2.apply("e", 1, (1,) * n) is None
        assert g2.apply("e", 2, (1,) * n) is None


def test_inverse_pairing():
    for n in range(4):
        for w in g2.enumerate_tableaux(n):
            for i in (1, 2):
                img = g2.apply("f", i, w)
                if img is not None:
                    assert g2.apply("e", i, img) == w
                img = g2.apply("e", i, w)
                if img is not None:
                    assert g2.apply("f", i, img) == w


def test_weight_shift_and_phi_eps():
    for n in range(4):
        for w in g2.enumerate_tableaux(n):
            wt = g2.weight(w)
            assert g2.phi(1, w) - g2.eps(1, w) == wt.m1
            assert g2.phi(2, w) - g2.eps(2, w) == wt.m2
            for i, shift in ((1, (2, -3)), (2, (-1, 2))):
                img = g2.apply("f", i, w)
                if img is not None:
                    wt2 = g2.weight(img)
                    assert (wt2.m1, wt2.m2) == (wt.m1 - shift[0], wt.m2 - shift[1])


def test_unique_source():
    for n in range(4):
        sources = [w for w in g2.enumerate_tableaux(n)
                   if g2.eps(1, w) == 0 and g2.eps(2, w) == 0]
        assert sources == [(1,) * n]


def test_strips_closed_forms():
    assert g2.cstrip(2) == (6, -6)
    assert wstrip(3) == (2, 2, 6)
    assert g2.cstrip(0) == ()
    assert g2.cstrip(3) == (6, 8, -6)
    assert wbarstrip(4) == (-6, -3, -2, -2)
    assert wbarstrip(5) == (-6, -4, -2, -2, -2)
    for k in range(13):
        assert g2.apply_power("f", 1, (6,) * k, k) == g2.cstrip(k)
        assert g2.apply_power("f", 2, (2,) * k, k) == wstrip(k)
        assert g2.apply_power("e", 2, (-2,) * k, k) == wbarstrip(k)


def test_strip_recursions():
    for k in range(2, 13):
        assert g2.cstrip(k) == (6,) + g2.cstrip(k - 2) + (-6,)
    for k in range(3, 13):
        assert wstrip(k) == (2, 2) + wstrip(k - 3) + (6,)
        assert wbarstrip(k) == (-6,) + wbarstrip(k - 3) + (-2, -2)


def test_strip_trivial_signature():
    for k in range(13):
        assert g2.eps(2, g2.cstrip(k)) == 0 and g2.phi(2, g2.cstrip(k)) == 0
        assert g2.eps(1, wstrip(k)) == 0 and g2.phi(1, wstrip(k)) == 0
        assert g2.eps(1, wbarstrip(k)) == 0 and g2.phi(1, wbarstrip(k)) == 0


def test_involution_basics():
    for l in range(1, 4):
        assert g2.involution((1,) * l) == (-1,) * l
    assert g2.involution((7,)) == (7,)
    assert g2.involution((8,)) == (8,)
    for w in g2.enumerate_tableaux(2):
        assert g2.involution(g2.involution(w)) == w


def test_involution_operator_conjugation():
    # the involution swaps the lowering cascade from the top with the
    # raising cascade from the bottom
    rng = random.Random(11)
    for n in range(1, 4):
        top = (1,) * n
        bot = (-1,) * n
        for _ in range(200):
            ops = [rng.choice((1, 2)) for _ in range(rng.randint(0, 2 * n + 3))]
            wf = top
            we = bot
            for i in ops:
                if wf is not None:
                    wf = g2.apply("f", i, wf)
                if we is not None:
                    we = g2.apply("e", i, we)
            assert (wf is None) == (we is None)
            if wf is not None:
                assert g2.involution(wf) == we


def test_phi1_breakpoint_along_2_strings():
    # walking down any color-2 string, the color-1 lowering distance is
    # constant up to a unique breakpoint and then increases by one per step
    for n in range(1, 4):
        for w in g2.enumerate_tableaux(n):
            if g2.eps(2, w) != 0:
                continue
            vals = [g2.phi(1, w)]
            x = w
            while True:
                x = g2.apply("f", 2, x)
                if x is None:
                    break
                vals.append(g2.phi(1, x))
            deltas = [b - a for a, b in zip(vals, vals[1:])]
            assert all(d in (0, 1) for d in deltas)
            assert deltas == sorted(deltas)


def test_weights_match_classical_lift():
    for a in g2.LETTERS:
        m1, m2 = g2.LETTER_WEIGHT[a]
        assert g2.weight((a,)) == from_classical_pair(m1, m2)


def test_json_letters():
    assert g2.word_to_json((1, 7, 8, -6)) == ["1", "01", "02", "-6"]
