import random
from itertools import product

from g2crystal.signature import (
    MINUS, PLUS, UWord, ZERO, bracket, reduce_brute, reduce_word,
    tensor_apply, unmatched,
)


def eps_phi(symbols):
    """(surviving minuses, surviving pluses) of a signature word."""
    minus, plus = unmatched([(s == MINUS, s == PLUS) for s in symbols])
    return len(minus), len(plus)


def test_worked_example():
    # (-,+,+,0,-,+) over factors 1,1,1,2,3,3 reduces to (-,+,+) at 1,1,3
    w = UWord((MINUS, PLUS, PLUS, ZERO, MINUS, PLUS), (1, 1, 1, 2, 3, 3))
    red = reduce_word(w)
    assert red.symbols == (MINUS, PLUS, PLUS)
    assert red.positions == (1, 1, 3)
    # lowering acts at the leftmost surviving plus: factor 1
    ep = [(1, 2), (0, 0), (1, 1)]
    # bracket's f_at and e_at: both act on factor 0
    assert bracket(ep)[2:] == (0, 0)


def test_empty():
    red = reduce_word(UWord((), ()))
    assert red.symbols == () and red.positions == ()
    assert eps_phi(()) == (0, 0)


def test_eps_phi_counts():
    assert eps_phi((MINUS, PLUS, PLUS)) == (1, 2)
    assert eps_phi((PLUS, PLUS, PLUS)) == (0, 3)


def test_stack_pass_matches_bruteforce():
    random.seed(20240801)
    for _ in range(10000):
        n = random.randint(0, 12)
        syms = tuple(random.choice((PLUS, MINUS, ZERO)) for _ in range(n))
        w = UWord(syms)
        assert reduce_word(w) == reduce_brute(w)


def _reduce_random_order(word, rng):
    """Delete zeros, then cancel (plus, minus) pairs in an arbitrary order."""
    syms = [s for s in word.symbols if s != ZERO]
    while True:
        sites = [i for i in range(len(syms) - 1)
                 if syms[i] == PLUS and syms[i + 1] == MINUS]
        if not sites:
            return tuple(syms)
        i = rng.choice(sites)
        del syms[i:i + 2]


def test_reduction_confluent():
    rng = random.Random(99)
    for _ in range(2000):
        n = rng.randint(0, 12)
        w = UWord(tuple(rng.choice((PLUS, MINUS, ZERO)) for _ in range(n)))
        expected = reduce_word(w).symbols
        for _ in range(3):
            assert _reduce_random_order(w, rng) == expected


def test_reduced_shape():
    random.seed(5)
    for _ in range(500):
        n = random.randint(0, 14)
        w = UWord(tuple(random.choice((PLUS, MINUS, ZERO)) for _ in range(n)))
        red = reduce_word(w).symbols
        eps = sum(1 for s in red if s == MINUS)
        assert red == (MINUS,) * eps + (PLUS,) * (len(red) - eps)


def _two_factor_rule(op, factors, ep):
    """Recursive two-factor rule for the oracle comparison."""
    if len(factors) == 1:
        e, f = ep(factors[0])
        if op == "f":
            return 0 if f else None
        return 0 if e else None

    def tensor_ep(fs):
        e1, f1 = ep(fs[0])
        if len(fs) == 1:
            return e1, f1
        e2, f2 = tensor_ep(fs[1:])
        return max(e1, e2 + e1 - f1), max(f2, f1 + f2 - e2)

    e2, f2 = tensor_ep(factors[1:])
    e1, f1 = ep(factors[0])
    if op == "f":
        if f1 > e2:
            sub = _two_factor_rule("f", factors[:1], ep)
            return sub
        sub = _two_factor_rule("f", factors[1:], ep)
        return None if sub is None else sub + 1
    if f1 >= e2:
        sub = _two_factor_rule("e", factors[:1], ep)
        return sub
    sub = _two_factor_rule("e", factors[1:], ep)
    return None if sub is None else sub + 1


def test_tensor_rule_matches_two_factor_recursion():
    # random tensors of A2 letters, up to 4 factors, both colors
    from g2crystal import a2
    ep_tables = {"a": a2._EP_A, "b": a2._EP_B}
    rng = random.Random(7)
    for _ in range(4000):
        n = rng.randint(1, 4)
        letters = [rng.randint(1, 3) for _ in range(n)]
        color = rng.choice(("a", "b"))
        ep = lambda x: ep_tables[color][x]
        assert bracket([ep(x) for x in letters])[2:] == \
            tuple(_two_factor_rule(op, letters, ep) for op in ("f", "e"))


def test_tensor_apply_replaces_single_factor():
    from g2crystal import a2

    def uword(x):
        return a2._EP_A[x]

    def step(op, x):
        return {"f": {1: 2}, "e": {2: 1}}[op].get(x)

    out = tensor_apply("f", [3, 1, 1], uword, step)
    assert out == [3, 2, 1]
    assert tensor_apply("f", [3, 2, 2], uword, step) is None


def test_tensor_apply_contract_violation():
    import pytest

    def uword(x):
        return (0, 1)

    def bad_step(op, x):
        return None

    with pytest.raises(ValueError):
        tensor_apply("f", [1], uword, bad_step)


def test_unknown_operator_is_a_value_error():
    import pytest

    from g2crystal import a2

    with pytest.raises(ValueError, match="unknown operator 'x'"):
        tensor_apply("x", [1], lambda b: (0, 1), lambda op, b: b)
    with pytest.raises(ValueError, match="unknown operator 'x'"):
        a2.apply("x", "a", a2.highest(1, 0))


def _brute(ep_list):
    """reduce_brute on the expanded word: factor k is eps minuses, then phi pluses."""
    syms, poss = [], []
    for k, (e, f) in enumerate(ep_list):
        syms += [MINUS] * e + [PLUS] * f
        poss += [k] * (e + f)
    red = reduce_brute(UWord(syms, poss))
    minus = [k for s, k in zip(red.symbols, red.positions) if s == MINUS]
    plus = [k for s, k in zip(red.symbols, red.positions) if s == PLUS]
    return minus, plus


def test_unmatched_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(5000):
        ep = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 8))]
        minus, plus = _brute(ep)
        assert unmatched(ep) == (minus, plus)
        assert bracket(ep)[2:] == (plus[0] if plus else None, minus[-1] if minus else None)


def test_g2_string_lengths_match_bruteforce():
    from g2crystal import g2

    for n in range(4):
        for w in g2.enumerate_tableaux(n):
            for i, ep in ((1, g2.EP1), (2, g2.EP2)):
                minus, plus = _brute([ep[a] for a in reversed(w)])
                assert (g2.eps(i, w), g2.phi(i, w)) == (len(minus), len(plus))


def test_a2_string_lengths_match_bruteforce():
    from g2crystal import a2

    for m in range(3):
        for n in range(3):
            for t in a2.enumerate_tableaux(m, n):
                for color, ep in (("a", a2._EP_A), ("b", a2._EP_B)):
                    minus, plus = _brute([ep[x] for x in t.factors()])
                    assert (a2.eps(color, t), a2.phi(color, t)) == (len(minus), len(plus))


def test_two_factor_side_rule_matches_brackets_f_and_e():
    # the two-factor closed form that B^l's tables and the square proof
    # apply is bracket's f_at and e_at on two factors, wherever either
    # acts: f acts on x iff phi_x > eps_y, e iff phi_x >= eps_y
    for ex, px, ey, py in product(range(3), repeat=4):
        for op, on_x in (("f", px > ey), ("e", px >= ey)):
            k = bracket([(ex, px), (ey, py)])[2 if op == "f" else 3]
            if k is not None:
                assert (k == 0) == on_x, (op, ex, px, ey, py)


def test_bracket_matches_unmatched_exhaustively():
    # every ep list of length <= 4 with entries 0..3
    pairs = list(product(range(4), repeat=2))
    for n in range(5):
        for ep in product(pairs, repeat=n):
            minus, plus = unmatched(ep)
            assert bracket(ep) == (len(minus), len(plus),
                                   plus[0] if plus else None,
                                   minus[-1] if minus else None), ep


def test_bracket_reads_a_one_shot_iterator():
    ep = [(0, 2), (1, 0), (3, 1), (0, 0), (2, 3), (1, 1)]
    expected = bracket(ep)
    assert expected == (3, 3, 4, 4)
    assert bracket(map(tuple, ep)) == expected
    assert bracket(iter(ep)) == expected
    assert bracket(map(tuple, [])) == (0, 0, None, None)


def _reference_apply(op, factors, uword, step):
    """The factor picked from ``unmatched``, stepped by ``step``."""
    minus, plus = unmatched([uword(b) for b in factors])
    ks = plus[:1] if op == "f" else minus[-1:]
    if not ks:
        return None
    out = list(factors)
    out[ks[0]] = step(op, factors[ks[0]])
    return out


def test_tensor_apply_matches_unmatched_on_b3_paths():
    # seeded paths in (B^3)^(x)16, every e_i/f_i, each path continuing from
    # a random image
    from g2crystal.affine import bl_crystal

    bl = bl_crystal(3)
    calls = [(lambda b, i=i: (bl.eps(i, b), bl.phi_i(i, b)),
              lambda op, b, i=i: bl.f(i, b) if op == "f" else bl.e(i, b))
             for i in (0, 1, 2)]
    rng = random.Random(2016)
    elements = sorted(bl.elements)
    path = [rng.choice(elements) for _ in range(16)]
    hits = 0
    for _ in range(300):
        images = []
        for uword, step in calls:
            for op in ("e", "f"):
                image = tensor_apply(op, path, uword, step)
                assert image == _reference_apply(op, path, uword, step), (op, path)
                if image is not None:
                    images.append(image)
        hits += len(images)
        path = rng.choice(images) if images and rng.random() < 0.8 else \
            [rng.choice(elements) for _ in range(16)]
    assert hits > 1000
