"""The 14-letter G2 crystal B(Lambda_1) and the tableau crystals B(n*Lambda_1).

Letters are encoded as integers: 1..6, 7 and 8 for the two weight-zero
letters 0_1 and 0_2, and -6..-1 for the barred letters.  Words are stored in
display order, canonically sorted by the fixed linearization

    1 < 2 < 3 < 4 < 5 < 6 < 0_1 < 0_2 < -6 < -5 < -4 < -3 < -2 < -1,

with {5,6}, {0_1,0_2} and {-5,-6} incomparable in the underlying preorder.
Tensor factors are read right to left (the last letter of a word is the
first tensor factor).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cartan import ClassicalWeight, from_classical_pair
from .signature import unmatched

LETTERS = (1, 2, 3, 4, 5, 6, 7, 8, -6, -5, -4, -3, -2, -1)
ORDER_INDEX = {a: i for i, a in enumerate(LETTERS)}

# (eps_i, phi_i) of each letter, from the per-letter signature words.
EP1 = {
    1: (0, 1), 2: (1, 0), 3: (0, 0), 4: (0, 1), 5: (1, 0), 6: (0, 2),
    7: (0, 0), 8: (1, 1), -6: (2, 0), -5: (0, 1), -4: (1, 0), -3: (0, 0),
    -2: (0, 1), -1: (1, 0),
}
EP2 = {
    1: (0, 0), 2: (0, 3), 3: (1, 2), 4: (2, 1), 5: (0, 2), 6: (3, 0),
    7: (1, 1), 8: (0, 0), -6: (0, 3), -5: (2, 0), -4: (1, 2), -3: (2, 1),
    -2: (3, 0), -1: (0, 0),
}

F1_STEP = {1: 2, 4: 5, 6: 8, 8: -6, -5: -4, -2: -1}
F2_STEP = {2: 3, 3: 4, 4: 6, 5: 7, 7: -5, -6: -4, -4: -3, -3: -2}
E1_STEP = {v: k for k, v in F1_STEP.items()}
E2_STEP = {v: k for k, v in F2_STEP.items()}

# <h_1, wt>, <h_2, wt> per letter; equals (phi - eps) colorwise.
LETTER_WEIGHT = {a: (EP1[a][1] - EP1[a][0], EP2[a][1] - EP2[a][0]) for a in LETTERS}

_BAR = {**{a: -a for a in (1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6)}, 7: 7, 8: 8}

_INCOMPARABLE = ({5, 6}, {7, 8}, {-5, -6})


def bar(a: int) -> int:
    return _BAR[a]


def fundamental() -> dict[int, dict[int, int]]:
    """The 14-vertex crystal graph as {color: {letter: letter}} lowering maps."""
    return {1: dict(F1_STEP), 2: dict(F2_STEP)}


def letter_to_json(a: int) -> str:
    if a == 7:
        return "01"
    if a == 8:
        return "02"
    return str(a)


def letter_from_json(s: str) -> int:
    if s == "01":
        return 7
    if s == "02":
        return 8
    return int(s)


def word_to_json(word) -> list[str]:
    return [letter_to_json(a) for a in word]


def sort_word(word) -> tuple[int, ...]:
    return tuple(sorted(word, key=ORDER_INDEX.__getitem__))


def _counts(word):
    c = {a: 0 for a in LETTERS}
    for a in word:
        c[a] += 1
    return c


def is_valid_word(word) -> bool:
    """Membership test for B(n*Lambda_1), n = len(word).

    Weak increase in the preorder (incomparable letters never coexist: for
    {5,6} and {-5,-6} this is the order constraint; for {0_1,0_2} it follows
    from the first counting constraint) plus five counting constraints.  The
    letter 0_1 takes part in the second and third constraints as well as the
    last three: without that, words such as [3, 0_1] pass the test but are
    not generated from [1^n], and the count at n=2 comes out 81 instead of
    77.  The whole predicate is validated exhaustively against the closure
    of [1^n] under the crystal operators.
    """
    w = tuple(word)
    if any(a not in ORDER_INDEX for a in w):
        return False
    if any(ORDER_INDEX[w[k]] > ORDER_INDEX[w[k + 1]] for k in range(len(w) - 1)):
        return False
    return _counts_ok(_counts(w))


def _counts_ok(c) -> bool:
    """The incomparable-pair test and the five counting constraints."""
    for pair in _INCOMPARABLE:
        if all(c[a] > 0 for a in pair):
            return False
    if c[5] + c[7] + c[8] + c[-5] > 1:
        return False
    if c[3] + c[4] + c[5] + c[7] > 1:
        return False
    if c[7] + c[-5] + c[-4] + c[-3] > 1:
        return False
    if c[5] + (1 if c[6] else 0) + c[7] > 1:
        return False
    if c[7] + (1 if c[-6] else 0) + c[-5] > 1:
        return False
    return True


def weight(word) -> ClassicalWeight:
    m1 = sum(LETTER_WEIGHT[a][0] for a in word)
    m2 = sum(LETTER_WEIGHT[a][1] for a in word)
    return from_classical_pair(m1, m2)


def strings(i: int, word):
    """(eps_i, phi_i, f_i word, e_i word) of a word from one bracketing fold.

    f_i steps the letter of the leftmost unmatched plus, e_i that of the
    rightmost unmatched minus (None at a string end), and the image is
    re-sorted.  Validity is not re-checked: tables that store images compare
    them with the enumerated word set once.
    """
    facs = list(reversed(word))
    minus, plus = unmatched([(EP1 if i == 1 else EP2)[a] for a in facs])
    return (len(minus), len(plus),
            _substitute(facs, plus[0], F1_STEP if i == 1 else F2_STEP) if plus else None,
            _substitute(facs, minus[-1], E1_STEP if i == 1 else E2_STEP) if minus else None)


def _substitute(facs, k, step) -> tuple[int, ...]:
    out = list(facs)
    out[k] = step[out[k]]
    return sort_word(out)


def eps(i: int, word) -> int:
    return strings(i, word)[0]


def phi(i: int, word) -> int:
    return strings(i, word)[1]


def apply(op: str, i: int, word) -> tuple[int, ...] | None:
    """Kashiwara operator f_i or e_i for color i in {1, 2}, read off ``strings``."""
    if op not in ("f", "e"):
        raise ValueError(f"unknown operator {op!r}")
    return strings(i, word)[2 if op == "f" else 3]


def apply_power(op, i, word, k):
    for _ in range(k):
        if word is None:
            return None
        word = apply(op, i, word)
    return word


def dim(n: int) -> int:
    """Weyl-dimension product for B(n*Lambda_1), exact and asserted integral."""
    val = Fraction(1)
    for num, den in ((1, 1), (1, 2), (2, 3), (3, 4), (3, 5)):
        val *= Fraction(num * n + den, den)
    if val.denominator != 1:
        raise ArithmeticError(f"dimension formula not integral at n={n}")
    return int(val)


@lru_cache(maxsize=None)
def enumerate_tableaux(n: int) -> tuple[tuple[int, ...], ...]:
    """All valid words of length n, sorted; the count matches dim(n)."""
    out = []

    def rec(word, lo):
        # every prefix passes the counting constraints and letters are taken
        # in order, so each full-length word is valid
        if len(word) == n:
            out.append(word)
            return
        for idx in range(lo, 14):
            w2 = word + (LETTERS[idx],)
            if _counts_ok(_counts(w2)):
                rec(w2, idx)

    rec((), 0)
    count = dim(n)
    if len(out) != count:
        raise RuntimeError(f"enumeration of B({n}*La1) gave {len(out)} words, expected {count}")
    return tuple(out)


def closure_from_highest(n: int) -> set[tuple[int, ...]]:
    """Independent oracle: the f-closure of [1^n] under both colors."""
    start = (1,) * n
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i in (1, 2):
                img = apply("f", i, w)
                if img is not None and img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def cstrip(k: int) -> tuple[int, ...]:
    """f_1^k applied to [6^k]: 6s, an optional 0_2, then barred 6s."""
    h = k // 2
    mid = (8,) if k % 2 else ()
    return (6,) * h + mid + (-6,) * h


def wstrip(k: int) -> tuple[int, ...]:
    """f_2^k applied to [2^k], by residue of k mod 3."""
    h, r = divmod(k, 3)
    if r == 0:
        return (2,) * (2 * h) + (6,) * h
    if r == 1:
        return (2,) * (2 * h) + (3,) + (6,) * h
    return (2,) * (2 * h + 1) + (4,) + (6,) * h


def wbarstrip(k: int) -> tuple[int, ...]:
    """e_2^k applied to [(-2)^k], by residue of k mod 3."""
    h, r = divmod(k, 3)
    if r == 0:
        return (-6,) * h + (-2,) * (2 * h)
    if r == 1:
        return (-6,) * h + (-3,) + (-2,) * (2 * h)
    return (-6,) * h + (-4,) + (-2,) * (2 * h + 1)


def strip(kind: str, k: int) -> tuple[int, ...]:
    if kind == "C":
        return cstrip(k)
    if kind == "W":
        return wstrip(k)
    if kind == "Wbar":
        return wbarstrip(k)
    raise ValueError(f"unknown strip kind {kind!r}")


def involution(word) -> tuple[int, ...]:
    """Reverse the word and bar-conjugate every letter."""
    return tuple(bar(a) for a in reversed(word))
