"""The 15-dimensional level-1 module over exact q-arithmetic.

Basis labels are the 14 letters plus 9 for the extra one-dimensional piece.
The lowering table is stored in resolved form, and the raising table is its
bar image: the generator rows with secondary terms are fixed by the defining
relations (the commutator of the color-1 generators forces the bracket on
the 6 / 0_2 / barred-6 string to be the color-1 bracket, and pins every
secondary coefficient); the resolution is frozen here and re-verified
relation by relation.

Tensor vectors carry coefficients that are Laurent polynomials in the two
spectral variables x, y over the exact rational-function field.
"""

from __future__ import annotations

from functools import lru_cache

from . import g2
from .cartan import CARTAN_MATRIX, ROOT_NORMS
from .qlaurent import ONE, ZERO, QRat, clear_memo, put, qbracket, qfactorial, vadd, vscale, vsub

BASIS = g2.LETTERS + (9,)

# <h_1, wt>, <h_2, wt> per basis label; label 9 has weight zero.
_WT12 = {**g2.LETTER_WEIGHT, 9: (0, 0)}


def qint(m: int, i: int) -> QRat:
    """[m]_i with q_0 = q_1 = q^3 and q_2 = q."""
    return qbracket(m, ROOT_NORMS[i])


def weight_pairing(i: int, a: int) -> int:
    """<h_i, wt(a)> for a basis label a."""
    m1, m2 = _WT12[a]
    if i == 0:
        return -2 * m1 - m2
    return (m1, m2)[i - 1]


_B21 = qint(2, 1)
_B22 = qint(2, 2)
_B32 = qint(3, 2)
_B32_B21 = _B32 / _B21
clear_memo()  # import leaves the gcd memo empty, as it leaves every cache

# Lowering table: F[i][a] = [(target, coefficient), ...]
F_TABLE = {
    0: {
        -6: [(2, ONE)], -4: [(3, ONE)], -3: [(4, ONE)], -2: [(6, ONE)],
        -1: [(9, ONE), (8, _B21.inv())], 9: [(1, _B21)],
    },
    1: {
        1: [(2, ONE)], 4: [(5, ONE)],
        6: [(8, ONE), (7, _B22.inv()), (9, _B21.inv())],
        8: [(-6, _B21)], -5: [(-4, ONE)], -2: [(-1, ONE)],
    },
    2: {
        2: [(3, ONE)], 3: [(4, _B22)], 4: [(6, _B32)],
        5: [(7, ONE), (8, _B32_B21)], 7: [(-5, _B22)],
        -6: [(-4, ONE)], -4: [(-3, _B22)], -3: [(-2, _B32)],
    },
}

# Raising table: the bar image of the lowering one, e_i(bar a) = bar f_i(a),
# with the label 9 its own bar.
_BAR = {**g2._BAR, 9: 9}
E_TABLE = {i: {_BAR[a]: [(_BAR[b], c) for b, c in row] for a, row in rows.items()}
           for i, rows in F_TABLE.items()}


# -- vectors on the module itself ----------------------------------------


def vec(a: int):
    return {a: ONE}


def v1_apply(gen, u):
    """Apply a generator to a module vector.

    ``gen`` is ('e', i), ('f', i) or ('t', i, s) with s = +1 or -1.
    """
    kind = gen[0]
    i = gen[1]
    out = {}
    if kind in ("e", "f"):
        table = E_TABLE[i] if kind == "e" else F_TABLE[i]
        for a, c in u.items():
            for b, coef in table.get(a, ()):
                put(out, b, c * coef)
        return out
    if kind == "t":
        s = gen[2]
        for a, c in u.items():
            out[a] = c * QRat.q_power(ROOT_NORMS[i] * s * weight_pairing(i, a))
        return out
    raise ValueError(f"unknown generator {gen!r}")


def v1_divided(kind, i, k, u):
    for _ in range(k):
        u = v1_apply((kind, i), u)
    return vscale(qfactorial(k, ROOT_NORMS[i]).inv(), u)


def verify_module_relations() -> dict:
    """Every defining relation as an exact linear identity on the module."""
    report = {}

    def matrix_of(fn):
        return {a: fn(vec(a)) for a in BASIS}

    # weight rows: t_i e_j t_i^{-1} = q_i^{<h_i, alpha_j>} e_j
    bad = []
    for i in range(3):
        for j in range(3):
            aij = CARTAN_MATRIX[i][j]
            for kind, table in (("e", E_TABLE), ("f", F_TABLE)):
                s = 1 if kind == "e" else -1
                lhs = matrix_of(lambda u: v1_apply(("t", i, 1),
                                                   v1_apply((kind, j), v1_apply(("t", i, -1), u))))
                rhs = matrix_of(lambda u: vscale(QRat.q_power(ROOT_NORMS[i] * s * aij),
                                                 v1_apply((kind, j), u)))
                if lhs != rhs:
                    bad.append((i, j, kind))
    report["weight_rows"] = {"pass": not bad, "failures": bad}

    # [e_i, f_j] = delta_ij (t_i - t_i^{-1}) / (q_i - q_i^{-1})
    bad = []
    for i in range(3):
        for j in range(3):
            for a in BASIS:
                u = vec(a)
                lhs = vsub(v1_apply(("e", i), v1_apply(("f", j), u)),
                           v1_apply(("f", j), v1_apply(("e", i), u)))
                if i == j:
                    rhs = vscale(qbracket(weight_pairing(i, a), ROOT_NORMS[i]), u)
                else:
                    rhs = {}
                if lhs != rhs:
                    bad.append((i, j, a))
    report["ef_commutator"] = {"pass": not bad, "failures": bad}

    # q-Serre relations in both kinds
    bad = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            b = 1 - CARTAN_MATRIX[i][j]
            for kind in ("e", "f"):
                for a in BASIS:
                    acc = {}
                    for k in range(b + 1):
                        term = v1_divided(kind, i, b - k, vec(a))
                        term = v1_apply((kind, j), term)
                        term = v1_divided(kind, i, k, term)
                        acc = vsub(acc, term) if k % 2 else vadd(acc, term)
                    if acc:
                        bad.append((i, j, kind, a))
    report["serre"] = {"pass": not bad, "failures": bad}

    report["all_pass"] = all(v["pass"] for v in report.values())
    return report


# -- linear algebra over the exact field ----------------------------------


def nullspace(rows, ncols):
    """Basis of the right nullspace of a list of QRat rows."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inv()
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y if y else x for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis


# -- polarization ---------------------------------------------------------


@lru_cache(maxsize=None)
def polarization_gram() -> dict:
    """The symmetric invariant form, solved from the pairing conditions.

    Unknown entries live on equal-weight pairs only; the compatibility
    (e_i u, v) = (u, q_i^-1 t_i^-1 f_i v) over all generators and basis
    pairs leaves a one-dimensional solution space (the module is irreducible
    over the affine algebra), normalized by (v_1, v_1) = 1.
    """
    pairs = []
    for a in BASIS:
        for b in BASIS:
            if a <= b and _WT12[a] == _WT12[b] and weight_pairing(0, a) == weight_pairing(0, b):
                pairs.append((a, b))
    index = {p: n for n, p in enumerate(pairs)}

    def gidx(a, b):
        return index.get((a, b) if a <= b else (b, a))

    rows = []
    for i in range(3):
        for a in BASIS:
            for b in BASIS:
                row = [ZERO] * len(pairs)
                nontrivial = False
                for a2, c in E_TABLE[i].get(a, ()):
                    k = gidx(a2, b)
                    if k is not None:
                        row[k] = row[k] + c
                        nontrivial = True
                for b2, c in F_TABLE[i].get(b, ()):
                    k = gidx(a, b2)
                    if k is not None:
                        tw = QRat.q_power(ROOT_NORMS[i] * (-1 - weight_pairing(i, b2)))
                        row[k] = row[k] - c * tw
                        nontrivial = True
                if nontrivial:
                    rows.append(row)
    basis = nullspace(rows, len(pairs))
    if len(basis) != 1:
        raise ArithmeticError(f"polarization space has dimension {len(basis)}, expected 1")
    sol = basis[0]
    scale = sol[index[(1, 1)]].inv()
    return {p: scale * sol[n] for p, n in index.items()}


def gram(a, b) -> QRat:
    g = polarization_gram()
    key = (a, b) if a <= b else (b, a)
    return g.get(key, ZERO)


def vec_pair(u, v) -> QRat:
    """(u, v); the form is weight-diagonal, so most basis pairs read zero."""
    out = ZERO
    for a, c in u.items():
        for b, d in v.items():
            g = gram(a, b)
            if g:
                out = out + c * d * g
    return out


def verify_prepolarization() -> dict:
    """Both pairing moves and symmetry of the form, on all basis pairs.

    (e_i a, b) = (a, q_i^-1 t_i^-1 f_i b) and (f_i a, b) = (a, q_i^-1 t_i e_i b);
    each side's image is built once per label.
    """
    bad = []
    for i in range(3):
        qi = QRat.q_power(-ROOT_NORMS[i])
        moves = [(kind, {a: v1_apply((kind, i), vec(a)) for a in BASIS},
                  {b: vscale(qi, v1_apply(("t", i, s), v1_apply((dual, i), vec(b))))
                   for b in BASIS})
                 for kind, dual, s in (("e", "f", -1), ("f", "e", 1))]
        for a in BASIS:
            for b in BASIS:
                for kind, left, right in moves:
                    if vec_pair(left[a], vec(b)) != vec_pair(vec(a), right[b]):
                        bad.append((kind, i, a, b))
    return {"pass": not bad, "failures": bad[:10]}


# -- Kashiwara operators and crystal compatibility ------------------------


@lru_cache(maxsize=None)
def _string_basis(i: int):
    """Chains f_i^(k) w over e_i-primitive w, one entry (k, vector) each.

    Primitives are found per full weight class, so every chain is weight
    homogeneous; the chains of one primitive occupy consecutive entries.
    """
    classes: dict[tuple, list] = {}
    for a in BASIS:
        classes.setdefault(_WT12[a], []).append(a)
    chains = []
    for labels in classes.values():
        images = {b: v1_apply(("e", i), vec(b)) for b in labels}
        targets = sorted({a for img in images.values() for a in img}, key=str)
        mat = [[images[b].get(t, ZERO) for b in labels] for t in targets]
        for coeffs in nullspace(mat, len(labels)):
            w = {a: c for a, c in zip(labels, coeffs) if c}
            m = weight_pairing(i, next(iter(w)))
            for k in range(m + 1):
                chains.append((k, v1_divided("f", i, k, w)))
    if len(chains) != len(BASIS):
        raise ArithmeticError(f"string basis has {len(chains)} vectors, wants {len(BASIS)}")
    return chains


@lru_cache(maxsize=None)
def _label_coords(i: int) -> dict:
    """{label: its coefficients in _string_basis(i)}, from one kernel.

    [chains | -identity] has one kernel vector per label, nonzero in that
    label's column, exactly when the chains form a basis.
    """
    chains = _string_basis(i)
    n = len(chains)
    rows = [[ch.get(a, ZERO) for _, ch in chains]
            + [-ONE if b == a else ZERO for b in BASIS] for a in BASIS]
    kernel = nullspace(rows, n + len(BASIS))
    if len(kernel) != len(BASIS) or any(not v[n + m] for m, v in enumerate(kernel)):
        raise ArithmeticError(f"the color-{i} string chains are not a basis")
    return {a: v[:n] for a, v in zip(BASIS, kernel)}


def kashiwara(kind: str, i: int, u):
    """The modified operator via the divided-power string decomposition.

    Chains of one primitive occupy consecutive entries (k = 0, 1, ..., m);
    stepping past an end of the string contributes zero.
    """
    chains = _string_basis(i)
    coords = _label_coords(i)
    step = 1 if kind == "f" else -1
    out = {}
    for a, ua in u.items():
        for n, (c, (k, _)) in enumerate(zip(coords[a], chains)):
            if c and 0 <= n + step < len(chains) and chains[n + step][0] == k + step:
                out = vadd(out, vscale(ua * c, chains[n + step][1]))
    return out


def crystal_compat_report() -> dict:
    """q -> 0 leading behavior of the modified operators vs the level-1 table."""
    from .affine import bl_crystal

    bl = bl_crystal(1)
    label_of = {(): 9}
    for w in bl.elements:
        if len(w) == 1:
            label_of[w] = w[0]
    word_of = {v: k for k, v in label_of.items()}
    bad = []
    for kind in ("f", "e"):
        for i in (0, 1, 2):
            for a in BASIS:
                img = kashiwara(kind, i, vec(a))
                target = bl.f(i, word_of[a]) if kind == "f" else bl.e(i, word_of[a])
                if target is not None:
                    # the target's coefficient is 1 at q = 0: c - 1 is zero
                    # (and dropped) or vanishes there like every other term
                    img = vsub(img, {label_of[target]: QRat(1)})
                if not all(c.order_at_zero() >= 1 for c in img.values()):
                    bad.append((kind, i, a))
    return {"pass": not bad, "failures": bad}
