"""Exact rational functions in q with integer Laurent-polynomial parts.

A value is a reduced fraction num/den of integer-coefficient Laurent
polynomials stored as {exponent: coefficient} dictionaries.  The canonical
form has a denominator with valuation zero, positive constant term, unit
integer content, and no common polynomial factor with the numerator, so
equality is structural.  No floating point anywhere.

``QRat(num, den)`` normalises what callers pass: ints, zero coefficients and
a zero denominator (``ZeroDivisionError``); ``_reduce`` then runs one gcd
cancel (``_cancel``) and one sign and content step (``_normal``).
Arithmetic takes reduced operands, so it runs only the gcds that can find a
factor (Henrici's rules, Knuth TAOCP 4.5.1); a single term shares none with
a denominator, which has valuation zero, and a constant is a unit.  So
a/b * c/d cancels a against d and c against b only, as gcd(a, b) = gcd(c, d)
= 1; (a/b)^-1 is b/a shifted to valuation zero; a/b + c/b cancels a + c
against b, not b*b; a/b + c/k for a constant k is coprime already, as
gcd(a*k + c*b, b) = gcd(a*k, b) = 1; any other sum is reduced in full.
Values never mutate their dicts, so they may share them.

Two products need no cancel at all: by ``ONE``, which returns the other
operand, and of two values over 1, whose product a*c over 1 is already
canonical (a nonzero polynomial over the positive unit denominator 1).
``_cancel`` memoises each gcd and its two quotients (Michie's memo
functions) by the dense coefficient tuples of its operands, valuation
removed, trivial gcds included, so the memo holds one entry per distinct
pair it has seen, a few hundred over the whole q-suite; ``clear_memo``
empties it.  A memoised quotient is the value a fresh gcd would give, so
the canonical form, and every report, is unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def _trim(d):
    return {e: c for e, c in d.items() if c}


def put(out, key, c):
    """Add c into out[key], dropping the key when the sum cancels.

    The one sparse-combination rule: it needs only + and truthiness of the
    coefficients, so it serves int, QRat and XY coefficients alike.
    """
    if key in out:
        c = out[key] + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def vadd(u, v):
    out = dict(u)
    for k, c in v.items():
        put(out, k, c)
    return out


def vsub(u, v):
    out = dict(u)
    for k, c in v.items():
        put(out, k, -c)
    return out


def vscale(c, u):
    if not c:
        return {}
    return {k: c * x for k, x in u.items()}


def _shift(d, k):
    return {e + k: c for e, c in d.items()} if k else d


def _mul(d1, d2):
    if len(d2) == 1:
        d1, d2 = d2, d1
    if len(d1) == 1:
        # a single term shifts and scales: no two products share an exponent
        ((e1, c1),) = d1.items()
        return {e1 + e: c1 * c for e, c in d2.items()}
    out = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            put(out, e1 + e2, c1 * c2)
    return out


def _to_list(d):
    """(valuation, dense coefficient list) of a nonempty dict."""
    v = min(d)
    out = [0] * (max(d) - v + 1)
    for e, c in d.items():
        out[e - v] = c
    return v, out


def _from_list(v, lst):
    return {v + i: c for i, c in enumerate(lst) if c}


def _list_prim(a):
    g = gcd(*a) or 1
    return [c // g for c in a]


def _list_prem(a, b):
    """Pseudo-remainder of dense integer lists with nonzero leading terms."""
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        la, shift = a[-1], len(a) - 1 - db
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _list_gcd(a, b):
    """Primitive gcd of dense integer lists with nonzero leading terms."""
    a, b = _list_prim(a), _list_prim(b)
    while b:
        a, b = b, _list_prim(_list_prem(a, b))
    return a


def _list_divexact(a, b):
    """Exact division of dense integer lists by a primitive divisor b.

    By Gauss's lemma an exact quotient by a primitive polynomial has integer
    coefficients, so the division runs in integers; a nonzero remainder at
    any step stays in the top of its window and fails the final check.
    """
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = a[i + len(b) - 1] // b[-1]
        for j, bc in enumerate(b):
            a[i + j] -= c * bc
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return out


_MEMO = {}  # (dense num, dense den) -> their quotients by the primitive gcd


def _cancel(num, den):
    """num/g and den/g for the primitive gcd g of zero-free dicts; den has
    valuation zero.  A single term on either side shares no factor; any
    other pair's gcd is worked out once, then read from ``_MEMO``."""
    if len(num) < 2 or len(den) < 2:
        return num, den
    vn, ln = _to_list(num)
    _, ld = _to_list(den)
    key = (tuple(ln), tuple(ld))
    quotients = _MEMO.get(key)
    if quotients is None:
        g = _list_gcd(ln, ld)
        quotients = _MEMO[key] = (
            key if len(g) == 1 else (_list_divexact(ln, g), _list_divexact(ld, g)))
    if quotients is key:
        return num, den
    qn, qd = quotients
    return _from_list(vn, qn), _from_list(0, qd)


def clear_memo():
    """Empty the gcd memo of ``_cancel``."""
    _MEMO.clear()


class QRat:
    """A reduced fraction of integer Laurent polynomials in q."""

    __slots__ = ("num", "den")

    def __new__(cls, num, den=None):
        if isinstance(num, int):
            num = {0: num}
        if den is None:
            den = {0: 1}
        elif isinstance(den, int):
            den = {0: den}
        num, den = _trim(num), _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        return cls._reduce(num, den)

    @classmethod
    def _canonical(cls, num, den):
        """Wrap parts already in canonical form, taken as they are."""
        self = object.__new__(cls)
        self.num, self.den = num, den
        return self

    @classmethod
    def _reduce(cls, num, den):
        """The value num/den of zero-free dicts, den nonempty; no copy."""
        vd = min(den)
        return cls._normal(*_cancel(_shift(num, -vd), _shift(den, -vd)))

    @classmethod
    def _normal(cls, num, den):
        """Canonical num/den, for den of valuation zero sharing no polynomial
        factor with num: a positive constant term, unit integer content."""
        if not num:
            return ZERO
        if den[0] < 0:
            num, den = vscale(-1, num), vscale(-1, den)
        # dividing by a primitive polynomial and flipping signs keep the
        # integer contents, so one content step at the end suffices
        if len(den) > 1 or den[0] != 1:
            g = gcd(*den.values(), *num.values())
            if g > 1:
                num = {e: c // g for e, c in num.items()}
                den = {e: c // g for e, c in den.items()}
        return cls._canonical(num, den)

    # -- constructor ---------------------------------------------------

    @staticmethod
    def q_power(k: int):
        return QRat._canonical({k: 1}, {0: 1})

    # -- predicates ------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QRat(other)
        elif not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == {0: 1} and self.num.keys() <= {0}:
            return hash(self.num.get(0, 0))  # a constant equals, so hashes as, its int
        return hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = QRat(other)
        if not self.num:
            return other
        if not other.num:
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return QRat._normal(*_cancel(vadd(a, c), b))
        num, den = vadd(_mul(a, d), _mul(c, b)), _mul(b, d)
        if len(b) > 1 and len(d) > 1:  # else gcd(a*d + c*b, b*d) = 1 already
            num, den = _cancel(num, den)
        return QRat._normal(num, den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return QRat._canonical(vscale(-1, self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = QRat(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return QRat(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, int):
            other = QRat(other)
        if not self.num or not other.num:
            return ZERO
        if self is ONE:
            return other
        if other is ONE:
            return self
        if self.den == {0: 1} == other.den:
            # a product of nonzero polynomials over 1 is canonical as it is
            return QRat._canonical(_mul(self.num, other.num), self.den)
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return QRat._normal(_mul(a, c), _mul(b, d))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverting zero")
        v = min(self.num)
        return QRat._normal(_shift(self.den, -v), _shift(self.num, -v))

    def __truediv__(self, other):
        if isinstance(other, int):
            other = QRat(other)
        return self.__mul__(other.inv())

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -------------------------------------------------------

    def order_at_zero(self) -> int:
        """Valuation at q = 0; the denominator has valuation zero."""
        if not self.num:
            raise ValueError("zero has no valuation")
        return min(self.num)

    def __repr__(self):
        return f"QRat({self})"

    def __str__(self):
        ns = _poly_str(self.num)
        if self.den == {0: 1}:
            return ns
        return f"({ns})/({_poly_str(self.den)})"


def _poly_str(d):
    if not d:
        return "0"
    parts = []
    for e in sorted(d, reverse=True):
        c = d[e]
        if e == 0:
            parts.append(f"{c:+d}")
        else:
            mono = "q" if e == 1 else f"q^{e}"
            if c == 1:
                parts.append(f"+{mono}")
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c:+d}*{mono}")
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


ZERO = QRat._canonical({}, {0: 1})
ONE = QRat._canonical({0: 1}, {0: 1})


def qbracket(m: int, norm: int) -> QRat:
    """[m] for q_i = q^norm: a Laurent polynomial, built without division."""
    if m < 0:
        return -qbracket(-m, norm)
    return QRat({norm * (m - 1 - 2 * t): 1 for t in range(m)}, None)


@lru_cache(maxsize=None)
def qfactorial(k: int, norm: int) -> QRat:
    out = ONE
    for m in range(2, k + 1):
        out = out * qbracket(m, norm)
    return out
