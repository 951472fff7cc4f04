"""Tensor square of the level-1 module, singular vectors, fusion identities.

Vectors in the tensor square carry coefficients that are Laurent
polynomials in the spectral variables x, y over the exact q-field.  The
comultiplication sends a raising generator to e otimes t^-1 + 1 otimes e
and a lowering generator to f otimes 1 + t otimes f; the affine generators
pick up the spectral twist x (resp. y) on the first (resp. second) factor.

Everything here is verification: the intertwiner itself is never built;
only its scalar action on the highest-weight components, pinned by the
itemized operator-string identities, is checked against the transcribed
coefficient polynomials.  Those are polynomials in z = x/y held as ``XY``
values with terms x^k y^-k, so every relation is checked as an identity of
Laurent polynomials in x, y.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import ROOT_NORMS, weyl_dim
from .level1 import (
    BASIS, E_TABLE, F_TABLE, _B21, _B22, _B32, _WT12, nullspace, weight_pairing,
)
from .qlaurent import ONE, ZERO, QRat, put, qfactorial, vadd, vscale, vsub

_Q = QRat.q_power


class XY:
    """Laurent polynomial in x, y with exact q-rational coefficients.

    ``terms`` is a zero-free dict, taken as it is; ``monomial`` drops a zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @staticmethod
    def monomial(dx, dy, coeff=ONE):
        return XY({(dx, dy): coeff} if coeff else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, XY):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return XY(vadd(self.terms, other.terms))

    def __sub__(self, other):
        return XY(vsub(self.terms, other.terms))

    def __neg__(self):
        return self.scale(-ONE)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                put(out, (a1 + a2, b1 + b2), c1 * c2)
        return XY(out)

    def scale(self, c: QRat):
        return XY(vscale(c, self.terms))

    def shift(self, dx, dy):
        return XY({(a + dx, b + dy): c for (a, b), c in self.terms.items()})

    def swap(self):
        """Exchange the two spectral variables."""
        return XY({(b, a): c for (a, b), c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "XY(0)"
        bits = []
        for (a, b) in sorted(self.terms):
            bits.append(f"x^{a} y^{b} * ({self.terms[(a, b)]})")
        return "XY(" + " + ".join(bits) + ")"


X = XY.monomial(1, 0)
Y = XY.monomial(0, 1)


# -- tensor vectors -------------------------------------------------------


def tvec(a, b):
    return {(a, b): XY.monomial(0, 0)}


@lru_cache(maxsize=None)
def _steps(kind, i):
    """(left, right, shift) for one generator acting on pure tensors a (x) b.

    f = f (x) 1 + t (x) f and e = e (x) t^-1 + 1 (x) e: left[(a, b)] lists
    the (a', c) with a (x) b -> c a' (x) b, right[(a, b)] the (b', c) with
    a (x) b -> c a (x) b', each c carrying the q-twist read off the other
    factor's label.  One list serves every pair with the same label and
    twist.  The affine color shifts x on the left and y on the right.
    """
    if kind not in ("e", "f"):
        raise ValueError(f"unknown generator {(kind, i)!r}")
    table = F_TABLE[i] if kind == "f" else E_TABLE[i]
    folded = {}

    def moves(x, other, sign):
        e = sign * ROOT_NORMS[i] * weight_pairing(i, other)
        if (x, e) not in folded:
            folded[x, e] = [(x2, coef * _Q(e) if e else coef) for x2, coef in table[x]]
        return folded[x, e]

    left_sign, right_sign, shift = (0, 1, -1) if kind == "f" else (-1, 0, 1)
    left = {(a, b): moves(a, b, left_sign) for a in table for b in BASIS}
    right = {(a, b): moves(b, a, right_sign) for a in BASIS for b in table}
    return left, right, shift if i == 0 else 0


def _moved(c, coef, dx, dy):
    """coef * x^dx * y^dy * c, scaled and shifted in one pass over c."""
    return XY({(x + dx, y + dy): k * coef for (x, y), k in c.terms.items()})


def tensor_apply(gen, u):
    """Apply a generator through the comultiplication, with spectral twist.

    For the affine color the first factor carries x and the second y; the
    finite colors are untwisted.
    """
    left, right, s = _steps(*gen)
    out = {}
    for (a, b), c in u.items():
        for a2, coef in left.get((a, b), ()):
            put(out, (a2, b), _moved(c, coef, s, 0))
        for b2, coef in right.get((a, b), ()):
            put(out, (a, b2), _moved(c, coef, 0, s))
    return out


def tensor_divided(kind, i, k, u):
    for _ in range(k):
        u = tensor_apply((kind, i), u)
    return vscale(XY.monomial(0, 0, qfactorial(k, ROOT_NORMS[i]).inv()), u)


def tensor_weight(u):
    wts = {(_WT12[a][0] + _WT12[b][0], _WT12[a][1] + _WT12[b][1]) for (a, b) in u}
    if len(wts) > 1:
        raise ArithmeticError("tensor vector is not weight homogeneous")
    return wts.pop() if wts else None


# -- singular vectors ------------------------------------------------------


def _constants(comps):
    """A tensor vector from its {pair: QRat} coefficients, each a constant XY."""
    return {k: XY.monomial(0, 0, c) for k, c in comps.items()}


def _u_3la2():
    return _constants({(1, 2): ONE, (2, 1): -_Q(3)})


def _u_2la2():
    return _constants({(1, 5): ONE, (2, 4): -_Q(3), (3, 3): _B22 / _B32 * _Q(4),
                       (4, 2): -_Q(7), (5, 1): _Q(10)})


def _u_la1_3():
    return _constants({(1, 8): ONE, (2, 6): -_B21 * _Q(6), (3, 4): _B21 / _B32 * _Q(5),
                       (4, 3): -(_B21 / _B32) * _Q(6), (6, 2): _B21 * _Q(9), (8, 1): -_Q(12)})


def _u_0_2_known():
    """The transcribed weight-zero singular vector, minus its garbled terms."""
    inv32 = _B32.inv()
    comps = {
        (1, -1): ONE, (2, -2): -_Q(3), (3, -3): _Q(2) * inv32,
        (4, -4): -_Q(3) * inv32, (5, -5): _Q(6) * inv32, (6, -6): _Q(6),
        (7, 7): -_Q(6) / (_B22 * _B32), (8, 8): -_Q(6) / _B21,
        (-5, 5): _Q(8) * inv32, (-6, 6): _Q(12), (-4, 4): -_Q(11) * inv32,
        (-3, 3): _Q(12) * inv32, (-2, 2): -_Q(15), (-1, 1): _Q(18),
        (8, 9): -_Q(6) / (_B21 * _B21), (9, 8): -_Q(6) / (_B21 * _B21),
    }
    return _constants(comps)


@lru_cache(maxsize=None)
def solve_u02():
    """Resolve the two garbled coefficients of the weight-zero vector.

    The components on the two mixed weight-zero pairs carry an undefined
    bracket in the source table; they are pinned by solving for the unique
    weight-zero vector killed by both finite raising operators that has the
    transcribed leading component and no component on the pure extra pair.
    Returns (vector, coefficient) with the shared resolved coefficient.
    """
    pairs = [(a, b) for a in BASIS for b in BASIS
             if (_WT12[a][0] + _WT12[b][0], _WT12[a][1] + _WT12[b][1]) == (0, 0)]
    index = {p: n for n, p in enumerate(pairs)}
    rows = []
    for i in (1, 2):
        images = {}
        for p in pairs:
            img = tensor_apply(("e", i), tvec(*p))
            for k, c in img.items():
                images.setdefault(k, {})[p] = c.terms.get((0, 0), ZERO)
        for k, row in images.items():
            rows.append([row.get(p, ZERO) for p in pairs])
    kern = nullspace(rows, len(pairs))
    if len(kern) != 2:
        raise ArithmeticError(f"weight-zero singular space has dimension {len(kern)}")
    # normalize: coefficient 1 on (1, -1), coefficient 0 on (9, 9)
    a, b = kern
    ia, ib = index[(1, -1)], index[(9, 9)]
    det = a[ia] * b[ib] - b[ia] * a[ib]
    if not det:
        raise ArithmeticError("cannot normalize the weight-zero singular vector")
    ca = b[ib] / det
    cb = -a[ib] / det
    sol = [ca * x + cb * y for x, y in zip(a, b)]
    vecxy = {p: XY.monomial(0, 0, c) for p, c in zip(pairs, sol) if c}
    coeff = sol[index[(7, 8)]]
    return vecxy, coeff


def singular_vectors() -> dict:
    """The eight highest-weight vectors of the tensor square, by name."""
    u02, _ = solve_u02()
    return {
        "u_2La1": tvec(1, 1),
        "u_3La2": _u_3la2(),
        "u_2La2": _u_2la2(),
        "u_La1_1": tvec(1, 9),
        "u_La1_2": tvec(9, 1),
        "u_La1_3": _u_la1_3(),
        "u_0_1": tvec(9, 9),
        "u_0_2": u02,
    }


EXPECTED_SINGULAR_WEIGHTS = {
    "u_2La1": (2, 0), "u_3La2": (0, 3), "u_2La2": (0, 2),
    "u_La1_1": (1, 0), "u_La1_2": (1, 0), "u_La1_3": (1, 0),
    "u_0_1": (0, 0), "u_0_2": (0, 0),
}


def verify_singular() -> dict:
    """Each named vector is killed by both finite raising operators and has
    the stated weight; the computed weights are the expected multiset, and
    their Weyl dimensions add up to the dimension of the tensor square."""
    vectors = {}
    for name, u in singular_vectors().items():
        killed = all(not tensor_apply(("e", i), u) for i in (1, 2))
        wt = tensor_weight(u)
        ok = killed and wt == EXPECTED_SINGULAR_WEIGHTS[name]
        vectors[name] = {"pass": ok, "weight": wt, "killed": killed}
    wts = [v["weight"] for v in vectors.values()]
    decomposition = (
        None not in wts and sorted(wts) == sorted(EXPECTED_SINGULAR_WEIGHTS.values())
        and sum(weyl_dim(m2, m1) for m1, m2 in wts) == len(BASIS) ** 2)
    # the transcribed partial vector agrees with the solved one off the garbled terms
    u02, coeff = solve_u02()
    match = all(k in ((7, 8), (8, 7)) for k in vsub(u02, _u_0_2_known()))
    return {"vectors": vectors,
            "pass": all(v["pass"] for v in vectors.values()) and decomposition and match,
            "decomposition": decomposition, "u02_partial_match": match,
            "u02_coefficient": str(coeff)}


# -- the fusion identities -------------------------------------------------


def _string(ops, u):
    """Apply [(kind, color, power), ...] right to left with divided powers."""
    for kind, i, k in reversed(ops):
        u = tensor_divided(kind, i, k, u)
    return u


STR_F = (("f", 0, 2), ("f", 1, 1), ("f", 2, 3), ("f", 1, 1))
# the raising string's unsubscripted divided square is color 1, by weight
# bookkeeping: nine color-2 and two affine steps force six color-1 steps
STR_E = (("e", 1, 1), ("e", 2, 3), ("e", 1, 2), ("e", 2, 3), ("e", 0, 1),
         ("e", 1, 2), ("e", 2, 3), ("e", 1, 1), ("e", 0, 1))
STR_F0 = (("f", 0, 1),)
STR_F02 = (("f", 0, 2),)
STR_LONG = (("f", 1, 2), ("f", 2, 6), ("f", 1, 4), ("f", 2, 6), ("f", 1, 2),
            ("f", 0, 2), ("f", 1, 1), ("f", 2, 2), ("f", 1, 1), ("f", 2, 1),
            ("f", 0, 1), ("f", 1, 1), ("f", 2, 3), ("f", 1, 1), ("f", 0, 1))
STR_14 = (("f", 0, 2), ("f", 1, 1), ("f", 2, 3), ("f", 1, 2), ("f", 2, 3))
# the transcribed final divided square annihilates the source and is one
# color-2 step short of the stated weight; the single step reproduces the
# transcribed coefficient exactly
STR_15 = (("f", 0, 2), ("f", 1, 1), ("f", 2, 3), ("f", 1, 1), ("f", 2, 1))


def fusion_items() -> dict:
    """The fifteen itemized identities: (string, source, target, coefficient)."""
    sing = singular_vectors()
    x2 = X * X
    y2 = Y * Y
    xy = X * Y
    items = {
        1: (STR_F, "u_La1_1", (1, 1), XY.monomial(-1, -1, _B21 * _Q(-3))),
        2: (STR_F, "u_La1_2", (1, 1), XY.monomial(-1, -1, _B21 * _Q(-3))),
        3: (STR_F, "u_La1_3", (1, 1),
            (X - Y.scale(_Q(6))) * (X + Y.scale(_Q(12))) *
            XY.monomial(-2, -2, _B21 * _Q(-6))),
        4: (STR_E, "u_La1_1", (1, 1), Y.scale(_B21) * (X + Y)),
        5: (STR_E, "u_La1_2", (1, 1), X.scale(_B21 * _Q(-6)) * (X + Y)),
        # resolved to [2]_1([2]_1+[2]_2)(x-q^6 y)(x+y): the transcribed value
        # omits the (x+y) factor and misprints the scalar, and fails the
        # intertwiner consistency relation that the resolved value satisfies
        6: (STR_E, "u_La1_3", (1, 1),
            ((X - Y.scale(_Q(6))) * (X + Y)).scale(_B21 * (_B21 + _B22))),
        7: (STR_F0, "u_La1_1", (1, 1), XY.monomial(0, -1, _B21 * _Q(-6))),
        8: (STR_F0, "u_La1_2", (1, 1), XY.monomial(-1, 0, _B21)),
        9: (STR_F0, "u_La1_3", (1, 1), XY()),
        10: (STR_F02, "u_0_1", (1, 1), XY.monomial(-1, -1, _B21 * _B21 * _Q(-3))),
        11: (STR_F02, "u_0_2", (1, 1),
             (x2 + y2.scale(_Q(30))) * XY.monomial(-2, -2, _Q(-12))),
        # the extremal target normalized as the plain lowest tensor pair: the
        # transcribed coefficient carries an extra (xy)^4 from the twisted
        # string normalization of the target
        12: (STR_LONG, "u_0_1", (-1, -1),
             ((y2.scale(_Q(6)) + x2)
              * xy.scale(_B21 * _B21 * (_Q(4) + _Q(2) + ONE) * _Q(-8))).shift(-4, -4)),
        # the same normalization as item 12
        13: (STR_LONG, "u_0_2", (-1, -1),
             ((y2.scale(_Q(22) + _Q(18))
               + xy.scale((_Q(6) + ONE) * (_Q(16) - _Q(14) + _Q(12) - 2 * _Q(10)
                                            + _Q(8) - 2 * _Q(6) + _Q(4) - _Q(2) + ONE))
               + x2.scale(_Q(4) + ONE))
              * xy.scale(_B22 * (_Q(4) + _Q(2) + ONE) * _Q(-10))).shift(-4, -4)),
        14: (STR_14, "u_3La2", (1, 1),
             (X - Y.scale(_Q(6))) * (X + Y) * XY.monomial(-2, -2, _Q(-3))),
        15: (STR_15, "u_2La2", (1, 1),
             (X - Y.scale(_Q(6))) * (X - Y.scale(_Q(10))) *
             XY.monomial(-2, -2, (_Q(4) + _Q(2) + ONE) * _Q(-8))),
    }
    return {"singular": sing, "items": items}


@lru_cache(maxsize=None)
def fusion_values() -> dict:
    """{item: (its target's coefficient, the expected one)}, strings applied once;
    the coefficient is None where the string's image strays off the target."""
    data = fusion_items()
    out = {}
    for n, (ops, src, target, expected) in data["items"].items():
        u = _string(ops, data["singular"][src])
        out[n] = (u.get(target, XY()) if u.keys() <= {target} else None, expected)
    return out


def verify_fusion_identities() -> dict:
    """Each itemized identity as an exact equality in the spectral variables.

    The two long-string items land on the extremal pair of the top component
    (named by the highest vector of the component); they are
    verified exactly there.
    """
    items = {}
    for n, (got, expected) in fusion_values().items():
        items[n] = {"pass": True} if got == expected else {
            "pass": False, "got": repr(got), "expected": repr(expected)}
    return {"items": items, "pass": all(v["pass"] for v in items.values())}


# -- the transcribed coefficient polynomials of the intertwiner ----------


def _z(*coeffs) -> XY:
    """c_0 + c_1*z + ... in z = x/y, as the Laurent polynomial sum c_k x^k y^-k."""
    return XY({(k, -k): c for k, c in enumerate(coeffs) if c})


@lru_cache(maxsize=None)
def a_polynomials() -> dict:
    """The transcribed scalar polynomials in z = x/y, one ``XY`` per component."""
    q = _Q
    one = ONE
    f12 = _z(one, -q(12))  # (1 - q^12 z)
    f10 = _z(one, -q(10))
    f8 = _z(one, -q(8))
    f6 = _z(one, -q(6))
    g10 = _z(-q(10), one)  # (z - q^10)
    g6 = _z(-q(6), one)
    z1 = _z(one, -one)  # (1 - z)

    a = {}
    a["2La1"] = f12 * f10 * f8 * f6
    a["3La2"] = f12 * f10 * f8 * g6
    a["2La2"] = f12 * g10 * f8 * g6

    c61 = q(6) - one          # (q^6 - 1)
    c21 = q(2) + one          # (q^2 + 1)
    c121 = q(12) - one
    c41 = q(4) + one

    a["L11"] = f12 * _z(0, c61 * c21) * _z(-(q(4) - q(2) + one),
                                          -(q(16) - q(14) + q(12) - q(10) - q(6)))
    a["L12"] = f12 * _z(q(6)) * z1 * _z(one, q(12) - q(6) - q(4) - q(2), q(12))
    a["L13"] = f12 * _z(0, q(3) * c61) * _z(-one, one)
    a["L21"] = f12 * _z(q(6)) * z1 * _z(one, -(q(10) + q(8) + q(6) - one), q(12))
    a["L22"] = f12 * _z(0, c61 * c21) * _z(q(10) + q(6) - q(4) + q(2) - one,
                                          -q(16) + q(14) - q(12))
    a["L23"] = f12 * _z(0, q(3) * c61) * _z(-one, one)
    a["L31"] = f12 * _z(0, q(9) * c121 * c41 * c21) * z1 * g6
    a["L32"] = f12 * _z(q(3) * c121 * c41 * c21) * z1 * _z(q(6), -one)
    a["L33"] = f12 * g6 * _z(q(12), q(18) - q(12) - q(10) - q(8) - q(6) + one, q(6))

    big = q(36) - q(30) + q(22) + q(20) + 2 * q(18) + q(16) + q(14) - q(6) + one
    a["Z11"] = _z(q(6), -q(6) * c41 * c21, big, -q(24) * c41 * c21, q(30))
    a["Z12"] = _z(0, -q(3) * c121 * (q(6) + one)) * z1 * _z(one, one)
    a["Z21"] = (_z(-q(3) * c61 / (q(4) - q(2) + one)) * z1 * _z(one, one)
                * _z(q(22) + q(18),
                     q(40) - q(38) + q(36) - q(34) - q(30) - q(26)
                     - q(20) - q(14) - q(10) - q(6) + q(4) - q(2) + one,
                     q(22) + q(18)))
    a["Z22"] = _z(q(30), -q(24) * c41 * c21, big, -q(6) * c41 * c21, q(6))
    return a


def _zeval(poly: XY, z: QRat) -> QRat:
    """A polynomial in x/y, read off its (k, -k) terms, at x/y = z."""
    return sum((c * z ** k for (k, _), c in poly.terms.items()), ZERO)


def rmatrix_checks() -> dict:
    """Consistency relations, kernel facts at z = q^6, and nonvanishing.

    The matrix relations take the derived orientation: for an operator
    string S with S u^i = v_i(x, y) u_top, intertwining forces
    v_i(x, y) a_top(z) = sum_j a_ij v_j(y, x) as Laurent polynomials.
    """
    a = a_polynomials()
    values = fusion_values()
    report = {}

    def matrix_relation(name, items, rows):
        """The relation of one item family, its vectors v_i read by item number."""
        vecs = [values[n][0] for n in items]
        bad = []
        for i, vi in enumerate(vecs):
            # a stray fusion image (None) fails every row of its family
            if None in vecs or vi * a["2La1"] != sum(
                    (a[r] * vj.swap() for r, vj in zip(rows[i], vecs)), XY()):
                bad.append(i + 1)
        report[name] = {"pass": not bad, "failures": bad}

    l_rows = [["L11", "L12", "L13"], ["L21", "L22", "L23"], ["L31", "L32", "L33"]]
    z_rows = [["Z11", "Z12"], ["Z21", "Z22"]]
    matrix_relation("relation_F_family", (1, 2, 3), l_rows)
    matrix_relation("relation_E_family", (4, 5, 6), l_rows)
    matrix_relation("relation_f0_family", (7, 8, 9), l_rows)
    matrix_relation("relation_f02_family", (10, 11), z_rows)
    matrix_relation("relation_long_family", (12, 13), z_rows)

    # proportionality relations between the one-dimensional components
    x_q6y = X - Y.scale(_Q(6))
    y_q6x = Y - X.scale(_Q(6))
    x_q10y = X - Y.scale(_Q(10))
    y_q10x = Y - X.scale(_Q(10))
    report["relation_3La2"] = {"pass": x_q6y * a["2La1"] == a["3La2"] * y_q6x}
    report["relation_2La2"] = {"pass": x_q6y * x_q10y * a["2La1"] == a["2La2"] * y_q6x * y_q10x}

    # kernel facts at z = q^6
    z6 = _Q(6)
    facts = {
        "a_L3j_vanish": all(not _zeval(a[f"L3{j}"], z6) for j in (1, 2, 3)),
        "a_L1j_eq_L2j": all(_zeval(a[f"L1{j}"], z6) == _zeval(a[f"L2{j}"], z6)
                            for j in (1, 2, 3)),
        "a_2La2_vanish": not _zeval(a["2La2"], z6),
        "a_3La2_vanish": not _zeval(a["3La2"], z6),
        "a_Z_kernel": all(not (_Q(3) * (_Q(12) - _Q(6) + ONE) * _zeval(a[f"Z1{j}"], z6)
                               - (_Q(6) + ONE) * _zeval(a[f"Z2{j}"], z6))
                          for j in (1, 2)),
    }
    for k, v in facts.items():
        report[k] = {"pass": v}

    # nonvanishing of the top-component scalar at the fusion points
    report["phi_nonvanishing"] = {"pass": all(_zeval(a["2La1"], _Q(6 * k)) for k in range(1, 6))}
    return {"pass": all(v["pass"] for v in report.values()), **report}
