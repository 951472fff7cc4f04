"""A2 crystals realized as two-row semistandard tableaux on letters {1,2,3}.

The crystal B(m*La + n*Lb) over an abstract color pair (a, b) has n two-box
columns followed by m single boxes.  The letter graph is

    1 --a--> 2 --b--> 3

so color a acts on the 1/2 letters and color b on the 2/3 letters.  The
affine model instantiates (a, b) = (1, 0); the finite-type preparation uses
(a, b) = (1, 2).  Tensor factors are read right to left, columns top to
bottom, matching the reading used for G2 words.

String coordinates: every element is uniquely f_b^r f_a^q f_b^p applied to
the highest-weight tableau with 0 <= p <= n, p <= q <= p + m,
0 <= r <= n + q - 2p.  The coordinate tables are generated forward from
the highest-weight tableau once per shape.
"""

from __future__ import annotations

from functools import lru_cache

from .signature import act_factor, unmatched

# (eps, phi) of each letter for color a and color b.
_EP_A = {1: (0, 1), 2: (1, 0), 3: (0, 0)}
_EP_B = {1: (0, 0), 2: (0, 1), 3: (1, 0)}
_F_STEP = {"a": {1: 2}, "b": {2: 3}}
_E_STEP = {"a": {2: 1}, "b": {3: 2}}


class A2Tableau:
    """Immutable two-row tableau; ``row1`` has length m+n, ``row2`` length n."""

    __slots__ = ("m", "n", "row1", "row2")

    def __init__(self, m, n, row1, row2):
        self.m = m
        self.n = n
        self.row1 = tuple(row1)
        self.row2 = tuple(row2)

    def key(self):
        return (self.m, self.n, self.row1, self.row2)

    def __eq__(self, other):
        if not isinstance(other, A2Tableau):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"A2Tableau(m={self.m}, n={self.n}, row1={self.row1}, row2={self.row2})"

    def is_valid(self) -> bool:
        if len(self.row1) != self.m + self.n or len(self.row2) != self.n:
            return False
        if any(x not in (1, 2, 3) for x in self.row1 + self.row2):
            return False
        if any(self.row1[c] >= self.row2[c] for c in range(self.n)):
            return False
        if any(self.row1[c] > self.row1[c + 1] for c in range(self.m + self.n - 1)):
            return False
        if any(self.row2[c] > self.row2[c + 1] for c in range(self.n - 1)):
            return False
        return True

    def factors(self):
        """Single-letter tensor factors, first factor first."""
        out = [self.row1[c] for c in range(self.m + self.n - 1, self.n - 1, -1)]
        for c in range(self.n - 1, -1, -1):
            out.append(self.row1[c])
            out.append(self.row2[c])
        return out

    def weight(self) -> tuple[int, int]:
        """(<h_a, wt>, <h_b, wt>) from letter counts."""
        letters = list(self.row1) + list(self.row2)
        c1 = letters.count(1)
        c2 = letters.count(2)
        c3 = letters.count(3)
        return (c1 - c2, c2 - c3)

    def to_json(self):
        return {"shape": [self.m, self.n], "word": list(self.row1) + list(self.row2)}


def highest(m: int, n: int) -> A2Tableau:
    return A2Tableau(m, n, (1,) * (m + n), (2,) * n)


def lowest(m: int, n: int) -> A2Tableau:
    return A2Tableau(m, n, (2,) * n + (3,) * m, (3,) * n)


def _from_factors(m, n, factors) -> A2Tableau:
    row1 = [0] * (m + n)
    row2 = [0] * n
    idx = 0
    for c in range(m + n - 1, n - 1, -1):
        row1[c] = factors[idx]
        idx += 1
    for c in range(n - 1, -1, -1):
        row1[c] = factors[idx]
        row2[c] = factors[idx + 1]
        idx += 2
    return A2Tableau(m, n, row1, row2)


def apply(op: str, color: str, t: A2Tableau) -> A2Tableau | None:
    """Kashiwara operator via the signature rule; returns None at string ends."""
    ep = _EP_A if color == "a" else _EP_B
    facs = t.factors()
    k = act_factor(op, [ep[x] for x in facs])
    if k is None:
        return None
    step = _F_STEP[color] if op == "f" else _E_STEP[color]
    facs[k] = step[facs[k]]
    out = _from_factors(t.m, t.n, facs)
    if not out.is_valid():
        raise RuntimeError(f"operator produced an invalid tableau: {out!r}")
    return out


def apply_power(op, color, t, k):
    for _ in range(k):
        if t is None:
            return None
        t = apply(op, color, t)
    return t


def eps(color: str, t: A2Tableau) -> int:
    ep = _EP_A if color == "a" else _EP_B
    return len(unmatched([ep[x] for x in t.factors()])[0])


def phi(color: str, t: A2Tableau) -> int:
    ep = _EP_A if color == "a" else _EP_B
    return len(unmatched([ep[x] for x in t.factors()])[1])


@lru_cache(maxsize=None)
def enumerate_tableaux(m: int, n: int) -> tuple[A2Tableau, ...]:
    """All tableaux of shape (m, n); count (m+1)(n+1)(m+n+2)/2."""
    out = []

    def rec_row1(row1):
        if len(row1) == m + n:
            rec_row2(row1, ())
            return
        lo = row1[-1] if row1 else 1
        for x in range(lo, 4):
            rec_row1(row1 + (x,))

    def rec_row2(row1, row2):
        if len(row2) == n:
            t = A2Tableau(m, n, row1, row2)
            if t.is_valid():
                out.append(t)
            return
        c = len(row2)
        lo = max(row2[-1] if row2 else 1, row1[c] + 1)
        for x in range(lo, 4):
            rec_row2(row1, row2 + (x,))

    rec_row1(())
    return tuple(out)


def dim(m: int, n: int) -> int:
    return (m + 1) * (n + 1) * (m + n + 2) // 2


def _f_string(color, t, length):
    """[t, f t, ..., f^length t] along one color; None past the string's end."""
    out = [t]
    for _ in range(length):
        out.append(None if out[-1] is None else apply("f", color, out[-1]))
    return out


@lru_cache(maxsize=None)
def _coord_tables(m: int, n: int):
    """(coords -> tableau, tableau -> coords) for one shape.

    Generated forward, f_b^r f_a^q f_b^p (highest) for every (p, q, r) of the
    coordinate box.  Unless the box maps one to one onto the enumerated
    tableaux (no undefined step, no image twice, none left out) this is a
    fault.  The tables hold the enumerated tableau objects.
    """
    members = {t: t for t in enumerate_tableaux(m, n)}
    to_tab = {}
    for p, tp in enumerate(_f_string("b", highest(m, n), n)):
        fa = _f_string("a", tp, p + m)
        for q in range(p, p + m + 1):
            for r, t in enumerate(_f_string("b", fa[q], n + q - 2 * p)):
                to_tab[(p, q, r)] = members.get(t)
    to_coords = {t: c for c, t in to_tab.items()}
    if None in to_coords or not len(to_tab) == len(to_coords) == len(members):
        raise RuntimeError(f"the {len(to_tab)} string coordinates of shape {(m, n)} reach "
                           f"{len(to_coords.keys() - {None})} of {len(members)} tableaux")
    return to_tab, to_coords


@lru_cache(maxsize=None)
def alpha_coord_maps(m: int, n: int):
    """The color-a lowering operator as a map on coordinate triples."""
    to_tab, to_coords = _coord_tables(m, n)
    f_map = {}
    for c, t in to_tab.items():
        img = apply("f", "a", t)
        if img is not None:
            f_map[c] = to_coords[img]
    return f_map


def string_coords(t: A2Tableau) -> tuple[int, int, int]:
    """(p, q, r) with t = f_b^r f_a^q f_b^p (highest weight)."""
    return _coord_tables(t.m, t.n)[1][t]


def from_coords(m: int, n: int, p: int, q: int, r: int) -> A2Tableau:
    if not (0 <= p <= n and p <= q <= p + m and 0 <= r <= n + q - 2 * p):
        raise ValueError(f"string coordinates out of range: {(p, q, r)} for shape {(m, n)}")
    return _coord_tables(m, n)[0][(p, q, r)]
