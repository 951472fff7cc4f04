"""The affine model crystal and the level-l crystal B^l.

The model crystal A at level l is the disjoint union of A2 crystals
B^i_(k,j) over blocks 0 <= i <= l//2, i <= k, j <= l-i, with elements named
by string coordinates (p, q, r): the element f_0^r f_1^q f_0^p applied to
the block's highest-weight element, 0 <= p <= j, p <= q <= p+k,
0 <= r <= j+q-2p.

E_A is defined case by case on the r = 0 layer and extended to the rest by
commuting past f_0; F_A is the conjugate C_A E_A C_A under the involution,
and the mutual-inverse property is verified rather than assumed.  The model
tabulates f_1, e_1, E_A and F_A once, B^l its operators and string lengths
once per color, each image checked against the element set.  The bijection
Phi onto the direct sum of G2 crystals B(n*Lambda_1), n <= l, is the unique
classical crystal isomorphism, built by a breadth-first walk from the
{1,2}-highest elements; any conflict or gap raises a construction fault.
The explicit tableau anchor formulas are kept as an independent check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import a2, g2
from .cartan import ClassicalWeight


class ConstructionFault(RuntimeError):
    """A mis-transcribed case or rule conflict in the model construction."""


class AParam(NamedTuple):
    i: int
    k: int
    j: int
    p: int
    q: int
    r: int

    def to_json(self):
        return {"i": self.i, "k": self.k, "j": self.j,
                "p": self.p, "q": self.q, "r": self.r}


def ea_plus(l, i, k, j, p, q):
    """E_A on the r = 0 layer, by the case table with level induction.

    Returns (i', k', j', p', q') or None.  The level-induction case maps the
    parameters to the corresponding element at level l-1 in block (k-1, j-1)
    and transports the answer back.  A raising target with j = l-i falls out
    of the block range and is the annihilation case.
    """
    if i < k and i < j:
        if p == min(q, j):
            if q <= j - 1 - (j - k) // 3:
                return (i, k - 1, j, p, q)
            if j < l - i:
                return (i, k, j + 1, p + 1, q + 1)
            return None
        inner = ea_plus(l - 1, i, k - 1, j - 1, p, q - 1)
        if inner is None:
            return None
        i2, k2, j2, p2, q2 = inner
        return (i2, k2 + 1, j2 + 1, p2, q2 + 1)
    if k == i and j >= i + 2:
        if p <= j - 1 - (j - i) // 3:
            return (i + 1, k + 1, j - 1, p, q + 1)
        if j < l - i:
            return (i, k, j + 1, p + 1, q + 1)
        return None
    if k == i and j == i + 1:
        if p <= i:
            return (i, k + 1, j - 1, p, q + 1)
        if j < l - i:
            return (i, k, j + 1, p + 1, q + 1)
        return None
    if k == i and j == i:
        if p <= i - 1:
            return (i - 1, k + 1, j - 1, p, q + 1)
        if j < l - i:
            return (i, k, j + 1, p + 1, q + 1)
        return None
    # j == i, i + 1 <= k
    if q <= p - 1 - (i - k) // 3:
        return (i, k - 1, j, p, q)
    if p == i:
        if j < l - i:
            return (i, k, j + 1, p + 1, q + 1)
        return None
    return (i - 1, k + 1, j - 1, p, q + 1)


class AffineModel:
    """The model crystal A at a fixed level, with its operators."""

    def __init__(self, l: int):
        if l < 0:
            raise ValueError("level must be nonnegative")
        self.l = l
        self.blocks = [
            (i, k, j)
            for i in range(l // 2 + 1)
            for k in range(i, l - i + 1)
            for j in range(i, l - i + 1)
        ]
        self.elements = [
            AParam(i, k, j, p, q, r)
            for (i, k, j) in self.blocks
            for p in range(j + 1)
            for q in range(p, p + k + 1)
            for r in range(j + q - 2 * p + 1)
        ]
        # {b: b}, so that table values are the element objects themselves
        self._members = {b: b for b in self.elements}
        self._f1, self._e1, self._ea, self._fa = {}, {}, {}, {}
        for b in self.elements:
            c = a2.alpha_coord_maps(b.k, b.j).get((b.p, b.q, b.r))
            if c is not None:
                t = self._members[AParam(b.i, b.k, b.j, *c)]
                self._f1[b] = t
                self._e1[t] = b
            base = ea_plus(l, b.i, b.k, b.j, b.p, b.q)
            if base is not None:
                out = AParam(*base, b.r)
                if out not in self._members:
                    raise ConstructionFault(f"E_A left the crystal: {b} -> {out}")
                self._ea[b] = self._members[out]
        for b in self.elements:
            up = self._ea.get(self.CA(b))
            if up is not None:
                self._fa[b] = self.CA(up)

    def f1(self, b: AParam) -> AParam | None:
        return self._f1.get(b)

    def e1(self, b: AParam) -> AParam | None:
        return self._e1.get(b)

    def f0(self, b: AParam) -> AParam | None:
        if b.r >= b.j + b.q - 2 * b.p:
            return None
        return b._replace(r=b.r + 1)

    def e0(self, b: AParam) -> AParam | None:
        if b.r == 0:
            return None
        return b._replace(r=b.r - 1)

    def phi0(self, b: AParam) -> int:
        return b.j + b.q - 2 * b.p - b.r

    def weight(self, b: AParam) -> tuple[int, int]:
        """(wt_1, wt_0) of the element."""
        return (b.k + b.p - 2 * b.q + b.r, b.j - 2 * b.p + b.q - 2 * b.r)

    # -- the auxiliary raising/lowering pair ----------------------------

    def EA(self, b: AParam) -> AParam | None:
        """The raising counterpart of the extra color; commutes with f_0."""
        return self._ea.get(b)

    def CA(self, b: AParam) -> AParam:
        out = AParam(b.i, b.j, b.k, b.k - b.q + b.p, b.k + b.j - b.q,
                     b.j + b.q - 2 * b.p - b.r)
        if out not in self._members:
            raise ConstructionFault(f"involution left the crystal: {b} -> {out}")
        return self._members[out]

    def FA(self, b: AParam) -> AParam | None:
        """C_A E_A C_A, tabulated."""
        return self._fa.get(b)

    def ea_depth(self, b: AParam) -> int:
        return _depth(self._ea, b)

    def fa_depth(self, b: AParam) -> int:
        return _depth(self._fa, b)

    def is_terminal(self, b: AParam) -> bool:
        return self.FA(b) is None

    # -- the anchor sets -------------------------------------------------

    def y_of(self, i, j) -> int:
        return (self.l - i - j) // 3

    def classify(self, b: AParam) -> str | None:
        """Membership in the anchor sets B_C, B_W, B_U, B_R.

        B_C is the q = p wedge of the k = l-i blocks together with its whole
        f_0-fiber; B_W and B_U are the displayed wedges on the j = i and
        p = j edges; B_R is the residual of the terminal r = 0 set, which
        absorbs the over-constrained inequality description.
        """
        l = self.l
        if b.k == l - b.i and b.q == b.p:
            return "BC"
        y = self.y_of(b.i, b.j)
        if b.k == l - b.i and b.r == 0:
            if b.j == b.i and b.p < b.q <= y + b.i:
                return "BW"
            if b.p == b.j and b.j < b.q <= y + 2 * b.j - b.i:
                return "BU"
        if b.r == 0 and self.is_terminal(b):
            return "BR"
        return None


def _depth(table, b) -> int:
    """Steps along a tabulated operator until it is undefined."""
    n = 0
    while b in table:
        b = table[b]
        n += 1
    return n


@lru_cache(maxsize=None)
def model(l: int) -> AffineModel:
    return AffineModel(l)


def gl_elements(l: int) -> list[tuple[int, ...]]:
    """All of the target set: words of length at most l, sorted."""
    out = []
    for n in range(l + 1):
        out.extend(g2.enumerate_tableaux(n))
    out.sort(key=lambda w: (len(w), tuple(g2.ORDER_INDEX[a] for a in w)))
    return out


def gl_count(l: int) -> int:
    return sum(g2.dim(n) for n in range(l + 1))


def a_count(l: int) -> int:
    return sum(
        a2.dim(k, j)
        for i in range(l // 2 + 1)
        for k in range(i, l - i + 1)
        for j in range(i, l - i + 1)
    )


# -- explicit tableau anchors -------------------------------------------


def _anchor_f0p(l, i, j, p) -> tuple[int, ...]:
    """Word assigned to f_0^p applied to the highest element of B^i_(l-i,j)."""
    y = (l - i - j) // 3
    m = (l - i - j) % 3
    if p <= i:
        if m == 0:
            w = (1,) * p + (6,) * y + g2.cstrip(y + i - p) + (-2,) * (y + j)
        elif m == 1 and y + i > p:
            w = (1,) * p + (6,) * (y + 1) + g2.cstrip(y + i - p - 1) + (-4,) + (-2,) * (y + j)
        elif m == 1:
            w = (1,) * i + (-5,) + (-2,) * j
        else:
            w = (1,) * p + (6,) * (y + 1) + g2.cstrip(y + i - p) + (-3,) + (-2,) * (y + j)
    else:
        if m == 0:
            w = (1,) * i + (6,) * (p - i + y) + g2.cstrip(y) + (-2,) * (y + j - p + i)
        elif m == 1 and y > 0:
            w = (1,) * i + (6,) * (p - i + y + 1) + g2.cstrip(y - 1) + (-4,) + (-2,) * (y + j - p + i)
        elif m == 1:
            w = (1,) * i + (6,) * (p - i) + (-5,) + (-2,) * (j - p + i)
        else:
            w = (1,) * i + (6,) * (p - i + y + 1) + g2.cstrip(y) + (-3,) + (-2,) * (y + j - p + i)
    return g2.sort_word(w)


def _anchor_highest(l, i, j) -> tuple[int, ...]:
    """Word assigned to the highest element of B^i_(l-i,j); four residue cases."""
    y = (l - i - j) // 3
    m = (l - i - j) % 3
    if m == 0:
        w = (6,) * y + g2.cstrip(y + i) + (-2,) * (y + j)
    elif m == 1 and y + i > 0:
        w = (6,) * (y + 1) + g2.cstrip(y + i - 1) + (-4,) + (-2,) * (y + j)
    elif m == 1:
        w = (-5,) + (-2,) * (j - i)
    else:
        w = (6,) * (y + 1) + g2.cstrip(y + i) + (-3,) + (-2,) * (y + j)
    return g2.sort_word(w)


def _anchor_cases(l):
    """Yield (rule, model element, word) for each explicit anchor formula."""
    for p in range(l + 1):
        yield "R1", AParam(0, l, l, 0, 0, p), (6,) * p + (-2,) * (l - p)
        yield "R1", AParam(0, l, l, l, 2 * l, l - p), (2,) * (l - p) + (-6,) * p
    for k in range(l + 1):
        for p in range(l + 1):
            w = g2.apply_power("e", 2, (6,) * p + (-2,) * (l - p), l - k)
            yield "R2", AParam(0, k, l, 0, 0, p), w
        # w is now the p = l word of R2, the base of the R3 color-1 string
        for q in range(1, l + k + 1):
            w = g2.apply_power("f", 1, w, 1)
            yield "R3", AParam(0, k, l, q, q, l - q) if q <= l else AParam(0, k, l, l, q, 0), w
    for i in range(l // 2 + 1):
        for j in range(i, l - i + 1):
            yield "R4", AParam(i, l - i, j, 0, 0, 0), _anchor_highest(l, i, j)
            for p in range(j + 1):
                w = _anchor_f0p(l, i, j, p)
                yield "R5", AParam(i, l - i, j, 0, 0, p), w
                # a mis-transcribed (invalid) word fails R5 and voids its
                # R6 string instead of raising inside g2.apply
                w = w if g2.is_valid_word(w) else None
                for q in range(1, (l - i - j) // 3 + j - max(i - p, 0) + 1):
                    w = g2.apply_power("f", 1, w, 1)
                    yield "R6", (AParam(i, l - i, j, q, q, p - q) if q <= p
                                 else AParam(i, l - i, j, p, q, 0)), w


def verify_anchors(l: int, forward) -> dict[str, int]:
    """Failure counts per rule of the explicit anchor formulas against a table.

    R1 the boundary families, R2 their e_2-powers, R3/R6 f_1-powers over the
    boundary and f_0-power anchors, R4/R5 the residue-case tableau formulas,
    R8/R9 the involution law Phi(C_A b) = involution(Phi(b)) everywhere.
    """
    counts = dict.fromkeys(("R1", "R2", "R3", "R4", "R5", "R6", "R8/R9"), 0)
    for rule, b, w in _anchor_cases(l):
        counts[rule] += forward.get(b) != w
    mod = model(l)
    counts["R8/R9"] = sum(g2.involution(forward[mod.CA(b)]) != w
                          for b, w in forward.items())
    return counts


class PhiTable:
    """The bijection between model parameters and tableau words at one level."""

    def __init__(self, l, forward, backward):
        self.l = l
        self.forward = forward
        self.backward = backward

    def __len__(self):
        return len(self.forward)


def build_phi(l: int) -> PhiTable:
    """Construct the bijection from the model crystal onto the tableau sum.

    Each B(n*Lambda_1), n <= l, occurs once in the target, so Phi is the
    unique classical crystal isomorphism.  The model's {1,2}-highest elements
    (e_1 = E_A = None) must be one per n, of weight n*Lambda_1; each is sent
    to [1^n] and the table follows f_1 <-> f_1 and F_A <-> f_2 breadth-first.
    An edge defined on one side only, a conflicting or non-injective
    assignment, or an element left unreached is a construction fault.
    """
    mod = model(l)
    forward: dict[AParam, tuple[int, ...]] = {}
    backward: dict[tuple[int, ...], AParam] = {}

    def assign(b, w):
        old = forward.get(b)
        if old is not None:
            if old != w:
                raise ConstructionFault(f"conflict at {b}: {old} vs {w}")
            return False
        owner = backward.get(w)
        if owner is not None:
            raise ConstructionFault(f"word {w} already assigned to {owner}, not {b}")
        forward[b] = w
        backward[w] = b
        return True

    highest = sorted((mod.weight(b), b) for b in mod.elements
                     if mod.e1(b) is None and mod.EA(b) is None)
    if [wt for wt, _ in highest] != [(n, -2 * n) for n in range(l + 1)]:
        raise ConstructionFault(
            f"highest elements {[b for _, b in highest]} are not one per n*Lambda_1, n <= {l}")
    frontier = [b for _, b in highest]
    for n, b in enumerate(frontier):
        assign(b, (1,) * n)
    while frontier:
        nxt = []
        for b in frontier:
            w = forward[b]
            for t, img in ((mod.f1(b), g2.apply("f", 1, w)),
                           (mod.FA(b), g2.apply("f", 2, w))):
                if (t is None) != (img is None):
                    raise ConstructionFault(f"lowering edge at {b} ~ {w} exists on one side only")
                if t is not None and assign(t, img):
                    nxt.append(t)
        frontier = nxt
    if len(forward) != len(mod.elements):
        missing = [b for b in mod.elements if b not in forward][:5]
        raise ConstructionFault(f"gap: unassigned parameters remain, e.g. {missing}")
    if backward.keys() != set(gl_elements(l)):
        raise ConstructionFault("assignment is not onto the word set")
    return PhiTable(l, forward, backward)


@lru_cache(maxsize=None)
def phi_table(l: int) -> PhiTable:
    return build_phi(l)


# -- the level-l affine crystal ----------------------------------------


class BlCrystal:
    """B^l: tableau words of length at most l with three colored operators."""

    def __init__(self, l: int):
        self.l = l
        self.phi = phi_table(l)
        self.model = model(l)
        self.elements = gl_elements(l)
        self.index = {w: n for n, w in enumerate(self.elements)}
        self._f = {0: {}, 1: {}, 2: {}}
        self._e = {0: {}, 1: {}, 2: {}}
        # (eps_i, phi_i) per color, indexed like elements
        self._eps = ([], [], [])
        self._phi = ([], [], [])
        fwd = self.phi.forward
        for w in self.elements:
            # color 0 transports the model's f_0/e_0 through Phi
            b = self.phi.backward[w]
            f0, e0 = self.model.f0(b), self.model.e0(b)
            rows = ((b.r, self.model.phi0(b), None if f0 is None else fwd[f0],
                     None if e0 is None else fwd[e0]),
                    g2.strings(1, w), g2.strings(2, w))
            for i, (e, p, fw, ew) in enumerate(rows):
                self._eps[i].append(e)
                self._phi[i].append(p)
                for table, img in ((self._f[i], fw), (self._e[i], ew)):
                    if img is not None:
                        n = self.index.get(img)
                        if n is None:
                            raise ConstructionFault(f"color-{i} image {img} of {w} is not a tableau")
                        table[w] = self.elements[n]

    def f(self, i, w):
        return self._f[i].get(w)

    def e(self, i, w):
        return self._e[i].get(w)

    def eps(self, i, w) -> int:
        return self._eps[i][self.index[w]]

    def phi_i(self, i, w) -> int:
        return self._phi[i][self.index[w]]

    def weight(self, w) -> ClassicalWeight:
        return g2.weight(w)

    def eps_weight(self, w) -> ClassicalWeight:
        return ClassicalWeight(self.eps(0, w), self.eps(1, w), self.eps(2, w))

    def phi_weight(self, w) -> ClassicalWeight:
        return ClassicalWeight(self.phi_i(0, w), self.phi_i(1, w), self.phi_i(2, w))


@lru_cache(maxsize=None)
def bl_crystal(l: int) -> BlCrystal:
    return BlCrystal(l)


# -- exhaustive verification --------------------------------------------


def _components(elements, edge_maps):
    """Connected components under the given {element: element} edge maps."""
    idx = {w: n for n, w in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for mp in edge_maps:
        for a, b in mp.items():
            union(idx[a], idx[b])
    comps: dict[int, list] = {}
    for w in elements:
        comps.setdefault(find(idx[w]), []).append(w)
    return list(comps.values())


def verify_construction(l: int) -> dict:
    """Check every construction axiom exhaustively; failures are data."""
    mod = model(l)
    table = phi_table(l)
    bl = bl_crystal(l)
    report: dict[str, dict] = {}

    def record(name, bad):
        report[name] = {"pass": not bad, "counterexamples": bad[:10], "failures": len(bad)}

    # (C1) mutual inverse
    bad = []
    for b in mod.elements:
        up = mod.EA(b)
        if up is not None and mod.FA(up) != b:
            bad.append((b, up))
        dn = mod.FA(b)
        if dn is not None and mod.EA(dn) != b:
            bad.append((b, dn))
    record("pair_mutual_inverse", bad)

    # (C2) commutation with f_0, including definedness, plus phi_0 preservation
    bad = []
    for b in mod.elements:
        t = mod.f0(b)
        lhs = None if t is None else mod.EA(t)
        up = mod.EA(b)
        rhs = None if (t is None or up is None) else mod.f0(up)
        if (lhs is None) != (rhs is None) or lhs != rhs:
            bad.append(b)
        if up is not None and mod.phi0(up) != mod.phi0(b):
            bad.append(b)
    record("affine_color_commutation", bad)

    # (C3) string-length difference equals the weight functional
    bad = []
    for b in mod.elements:
        w1, w0 = mod.weight(b)
        if mod.fa_depth(b) - mod.ea_depth(b) != -2 * w1 - w0:
            bad.append(b)
    record("string_depth_weight", bad)

    # E_A injectivity where nonzero
    images: dict[AParam, AParam] = {}
    bad = []
    for b in mod.elements:
        up = mod.EA(b)
        if up is not None:
            if up in images:
                bad.append((images[up], b, up))
            images[up] = b
    record("EA_injective", bad)

    # (D1) the affine operator commutes with the extra finite color
    bad = []
    for w in bl.elements:
        for op in (bl.f, bl.e):
            a = op(0, w)
            a = None if a is None else op(2, a)
            c = op(2, w)
            c = None if c is None else op(0, c)
            if a != c:
                bad.append((w, op.__name__))
    record("zero_two_commutation", bad)

    # (E1)/(E2) color-1 and extra-color compatibility: the model's tables
    # transported through Phi agree with the B^l tables
    bad = {1: [], 2: []}
    for b in mod.elements:
        w = table.forward[b]
        for i, name, t, img in ((1, "f1", mod.f1(b), bl.f(1, w)), (1, "e1", mod.e1(b), bl.e(1, w)),
                                (2, "FA", mod.FA(b), bl.f(2, w)), (2, "EA", mod.EA(b), bl.e(2, w))):
            if (None if t is None else table.forward[t]) != img:
                bad[i].append((b, name))
    record("color1_compatibility", bad[1])
    record("color2_compatibility", bad[2])

    # (E3)/(E4) weight matching
    bad = []
    for b in mod.elements:
        w1, w0 = mod.weight(b)
        wt = g2.weight(table.forward[b])
        if wt.m1 != w1 or wt.m2 != -2 * w1 - w0:
            bad.append(b)
    record("weight_compatibility", bad)

    # (E5) vanishing of the affine operators matches the model
    bad = []
    for b in mod.elements:
        w = table.forward[b]
        if (bl.f(0, w) is None) != (mod.f0(b) is None):
            bad.append((b, "f0"))
        if (bl.e(0, w) is None) != (mod.e0(b) is None):
            bad.append((b, "e0"))
    record("vanishing_compatibility", bad)

    # the paper's explicit anchor formulas, as an oracle independent of the BFS
    counts = verify_anchors(l, table.forward)
    bad_rules = [rule for rule, n in counts.items() if n]
    report["anchor_formulas"] = {"pass": not bad_rules, "rules": counts,
                                 "failures": sum(counts.values()),
                                 "counterexamples": bad_rules}

    # restriction to the finite colors {1,2}: one component per n <= l
    comps = _components(bl.elements, [bl._f[1], bl._f[2]])
    sizes = sorted(len(c) for c in comps)
    expected = sorted(g2.dim(n) for n in range(l + 1))
    ok = sizes == expected
    sources = []
    for comp in comps:
        srcs = [w for w in comp if bl.eps(1, w) == 0 and bl.eps(2, w) == 0]
        sources.append(srcs)
    ok = ok and all(len(s) == 1 and s[0] == (1,) * len(s[0]) for s in sources)
    report["restriction_12"] = {"pass": ok, "sizes": sizes, "failures": 0 if ok else 1,
                                "counterexamples": []}

    # restriction to the colors {1,0}: components match the model blocks,
    # by size and by the weight of the unique source of each component
    comps = _components(bl.elements, [bl._f[1], bl._f[0]])
    got = []
    ok = True
    for comp in comps:
        srcs = [w for w in comp
                if bl.eps(1, w) == 0 and bl.eps(0, w) == 0
                and mod.e1(table.backward[w]) is None]
        ok &= len(srcs) == 1
        if srcs:
            w1, w0 = mod.weight(table.backward[srcs[0]])
            got.append((len(comp), w1, w0))
    expected = sorted((a2.dim(k, j), k, j) for (i, k, j) in mod.blocks)
    ok &= sorted(got) == expected
    report["restriction_10"] = {"pass": ok, "components": len(comps),
                                "failures": 0 if ok else 1,
                                "counterexamples": []}

    report["all_pass"] = all(v["pass"] for k, v in report.items() if isinstance(v, dict))
    return report
