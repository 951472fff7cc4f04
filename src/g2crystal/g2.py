"""The 14-letter G2 crystal B(Lambda_1) and the tableau crystals B(n*Lambda_1).

Letters are encoded as integers: 1..6, 7 and 8 for the two weight-zero
letters 0_1 and 0_2, and -6..-1 for the barred letters.  Words are stored in
display order, canonically sorted by the fixed linearization

    1 < 2 < 3 < 4 < 5 < 6 < 0_1 < 0_2 < -6 < -5 < -4 < -3 < -2 < -1,

with {5,6}, {0_1,0_2} and {-5,-6} incomparable in the underlying preorder.
Tensor factors are read right to left (the last letter of a word is the
first tensor factor).

The tableau words are grown letter by letter.  Which letters may extend a
valid word depends only on its extension state, its last letter and which of
3, 4, 5, 6, 0_1, 0_2, -6, -5, -4, -3 it holds, since that fixes every count
the validity constraints read; so the counting rule runs once per state, not
once per word (``enumerate_tableaux`` gives the reasons).
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import ClassicalWeight, from_classical_pair, weyl_dim
from .signature import bracket


class ConstructionFault(RuntimeError):
    """A mis-transcribed case or rule conflict in the construction."""


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
_WT1 = {a: wt[0] for a, wt in LETTER_WEIGHT.items()}
_WT2 = {a: wt[1] for a, wt in LETTER_WEIGHT.items()}

_BAR = {**{a: -a for a in (1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6)}, 7: 7, 8: 8}

# The five counting constraints: a valid word holds at most one letter of
# each group, counted with multiplicity, except that the letters of
# _PRESENCE count once however often they occur.
_AT_MOST_ONE = ((5, 7, 8, -5), (3, 4, 5, 7), (7, -5, -4, -3), (5, 6, 7), (7, -6, -5))
_PRESENCE = (6, -6)

# A word's extension state (see enumerate_tableaux): the position of its last
# letter in LETTERS in the low four bits, and one bit above them for each
# letter of a constraint that the word holds.
_STATE_BIT = {a: 1 << (4 + n) for n, a in enumerate(
    a for a in LETTERS if any(a in group for group in _AT_MOST_ONE))}
_LAST_BITS = 0b1111


def letter_to_json(a: int) -> str:
    if a == 7:
        return "01"
    if a == 8:
        return "02"
    return str(a)


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

    Weak increase in the linearization plus five counting constraints.
    Incomparable letters never coexist, since each of {5,6}, {0_1,0_2} and
    {-5,-6} lies in one group of _AT_MOST_ONE.  The letter 0_1 takes part in
    the second and third constraints as well as the last three: without
    that, words such as [3, 0_1] pass the test but are not generated from
    [1^n], and the count at n=2 comes out 81 instead of 77.  The whole
    predicate is validated exhaustively against the closure of [1^n] under
    the crystal operators.
    """
    w = tuple(word)
    if any(a not in ORDER_INDEX for a in w):
        return False
    if any(ORDER_INDEX[w[k]] > ORDER_INDEX[w[k + 1]] for k in range(len(w) - 1)):
        return False
    return _counts_ok(_counts(w))


def _counts_ok(c) -> bool:
    """The five counting constraints."""
    c = {**c, **{a: min(c[a], 1) for a in _PRESENCE}}
    for group in _AT_MOST_ONE:
        if sum(map(c.__getitem__, group)) > 1:
            return False
    return True


def weight(word) -> ClassicalWeight:
    """A word's G2 weight, from (m1, m2): the sums of its letters' weights."""
    return from_classical_pair(sum(map(_WT1.__getitem__, word)), sum(map(_WT2.__getitem__, word)))


def strings(i: int, word):
    """(eps_i, phi_i, f_i word, e_i word) of a word from one bracketing fold.

    f_i steps the letter of the leftmost unmatched plus, e_i that of the
    rightmost unmatched minus (None at a string end), and the image is
    re-sorted.  Validity is not re-checked: tables that store images compare
    them with the enumerated word set once.
    """
    facs = word[::-1]
    ep, fstep, estep = (EP1, F1_STEP, E1_STEP) if i == 1 else (EP2, F2_STEP, E2_STEP)
    e, p, f_at, e_at = bracket(map(ep.__getitem__, facs))
    return (e, p,
            None if f_at is None else _substitute(facs, f_at, fstep),
            None if e_at is None else _substitute(facs, e_at, estep))


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
    """Weyl dimension of B(n*Lambda_1)."""
    return weyl_dim(0, n)


def enumerate_tableaux(n: int) -> tuple[tuple[int, ...], ...]:
    """All valid words of length n, sorted; the count matches dim(n).

    Every prefix of a valid word is valid, so each word of length n - 1, in
    order, is extended by the letters at or after its last letter that keep
    the counting constraints.  Those letters depend only on the word's
    extension state, since its last letter and the constrained letters it
    holds give every count the constraints read: 1, 2, -2 and -1 are in none,
    6 and -6 are read as present or absent, and each other constrained letter
    occurs at most once, its group in _AT_MOST_ONE summing to at most 1.  So
    ``_extensions`` works them out once per state, and each length keeps its
    words' states for the next length to extend.
    """
    return _grown(n)[0]


@lru_cache(maxsize=None)
def _grown(n: int) -> tuple[tuple[tuple[int, ...], ...], str]:
    """The words of length n, sorted, and their extension states as one str
    whose k-th code point is the k-th word's state: two bytes a word, where
    a tuple of ints takes eight.  Each word's children come together, in the
    order ``_extensions`` gives its state's letters, so the words of all
    lengths form a prefix tree; B^l's tables are read along it."""
    if n == 0:
        return ((),), chr(0)
    words, states = [], []
    for word, state in zip(*_grown(n - 1)):
        for nxt in _extensions(ord(state)):
            words.append(word + (LETTERS[nxt & _LAST_BITS],))
            states.append(nxt)
    count = dim(n)
    if len(words) != count:
        raise ConstructionFault(
            f"enumeration of B({n}*La1) gave {len(words)} words, expected {count}")
    return tuple(words), "".join(map(chr, states))


@lru_cache(maxsize=None)
def _extensions(state: int) -> tuple[int, ...]:
    """The state of the extended word for each letter that may extend a
    word in ``state``, in letter order, by ``_counts_ok`` on the counts the
    state stands for; its low bits give the letter."""
    c = {a: 1 if state & _STATE_BIT.get(a, 0) else 0 for a in LETTERS}
    held = state & ~_LAST_BITS
    out = []
    for a in LETTERS[state & _LAST_BITS:]:
        c[a] += 1
        if _counts_ok(c):
            out.append(held | _STATE_BIT.get(a, 0) | ORDER_INDEX[a])
        c[a] -= 1
    return tuple(out)


def cstrip(k: int) -> tuple[int, ...]:
    """f_1^k applied to [6^k]: 6s, an optional 0_2, then barred 6s."""
    h = k // 2
    mid = (8,) if k % 2 else ()
    return (6,) * h + mid + (-6,) * h


def involution(word) -> tuple[int, ...]:
    """Reverse the word and bar-conjugate every letter."""
    # a list, not a map: tuple() of an iterator of unknown length is resized,
    # which parks up to 2000 tuples per length on CPython's free lists
    return tuple([_BAR[a] for a in reversed(word)])
