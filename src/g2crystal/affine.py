"""The affine model crystal and the level-l crystal B^l.

The model crystal A at level l is the disjoint union of A2 crystals
B^i_(k,j) over blocks 0 <= i <= l//2, i <= k, j <= l-i, with elements named
by string coordinates (p, q, r): the element f_0^r f_1^q f_0^p applied to
the block's highest-weight element, 0 <= p <= j, p <= q <= p+k,
0 <= r <= j+q-2p.

f_1 raises the outer coordinate of the (1,0,1) string, read off (p, q, r) in
closed form.  E_A is defined case by case on the r = 0 layer and extended to
the rest by commuting past f_0; F_A is the conjugate C_A E_A C_A under the
involution, and the mutual-inverse property is verified rather than assumed.
The model tabulates f_1, e_1, E_A and F_A once, B^l colors 1 and 2 each word
from its prefix's row by the tensor-product rule, each image checked against
the element set; ``g2.strings``, which folds the whole word, is their oracle.
The bijection Phi onto the direct sum of G2 crystals B(n*Lambda_1), n <= l,
is the unique classical crystal isomorphism, walked breadth-first along those
tables from the {1,2}-highest elements; any conflict or gap raises a
construction fault.  B^l's color 0 is f_0 transported through Phi.  The
explicit tableau anchor formulas are kept as an independent check.
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


def transition(r, q, p):
    """(r', q', p') with f_b^r f_a^q f_b^p = f_a^r' f_b^q' f_a^p' on an A2 highest element.

    Its own inverse (Littelmann, Transform. Groups 3 (1998); Berenstein-Zelevinsky,
    Invent. Math. 143 (2001)).
    """
    return max(p, q - r), r + p, min(r, q - p)


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
            i, k, j, p, q, r = b
            R, Q, P = transition(r, q, p)
            if R < k + Q - 2 * P:
                r2, q2, p2 = transition(R + 1, Q, P)
                t = self._member("f_1", b, AParam(i, k, j, p2, q2, r2))
                self._f1[b] = t
                self._e1[t] = b
            base = ea_plus(l, i, k, j, p, q)
            if base is not None:
                self._ea[b] = self._member("E_A", b, AParam(*base, r))
        for b in self.elements:
            up = self._ea.get(self.CA(b))
            if up is not None:
                self._fa[b] = self.CA(up)

    def f1(self, b: AParam) -> AParam | None:
        return self._f1.get(b)

    def e1(self, b: AParam) -> AParam | None:
        return self._e1.get(b)

    def f0(self, b: AParam) -> AParam | None:
        i, k, j, p, q, r = b
        if r >= j + q - 2 * p:
            return None
        return AParam(i, k, j, p, q, r + 1)

    def e0(self, b: AParam) -> AParam | None:
        i, k, j, p, q, r = b
        if r == 0:
            return None
        return AParam(i, k, j, p, q, r - 1)

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
        i, k, j, p, q, r = b
        return self._member("involution", b, AParam(i, j, k, k - q + p, k + j - q, j + q - 2 * p - r))

    def _member(self, name, b, out):
        """The element ``out``, the image of ``b`` under ``name``; a fault if absent."""
        if out not in self._members:
            raise ConstructionFault(f"{name} left the crystal: {b} -> {out}")
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
    """Steps along a tabulated operator until it is undefined; a walk on a
    cycle stops after len(table) steps and reads len(table) + 1, a depth no
    string has."""
    for n in range(len(table) + 1):
        if b not in table:
            return n
        b = table[b]
    return len(table) + 1


def _depths(elements, table) -> list[int]:
    """``_depth`` of every element along ``table``, in element order, with
    each element walked once: a walk stops at the first element whose depth
    is known.  A walk that runs into a cycle reads len(table) + 1 for every
    element on it, as ``_depth`` does."""
    cycle = len(table) + 1
    depth = {}
    for b in elements:
        path = []
        while b is not None and b not in depth:
            depth[b] = cycle  # met again on this walk only on a cycle
            path.append(b)
            b = table.get(b)
        d = -1 if b is None else depth[b]
        for x in reversed(path):
            d = min(d + 1, cycle)
            depth[x] = d
    return list(map(depth.__getitem__, elements))


@lru_cache(maxsize=None)
def model(l: int) -> AffineModel:
    return AffineModel(l)


def gl_elements(l: int) -> list[tuple[int, ...]]:
    """All of the target set: words of length at most l, by length and then
    in letter order, the order ``enumerate_tableaux`` yields each length in."""
    return [w for n in range(l + 1) for w in g2.enumerate_tableaux(n)]


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


def build_phi(bl: BlCrystal) -> PhiTable:
    """Construct the bijection from the model crystal onto the tableau sum.

    Each B(n*Lambda_1), n <= l, occurs once in the target, so Phi is the
    unique classical crystal isomorphism.  The model's {1,2}-highest elements
    (e_1 = E_A = None) must be one per n, of weight n*Lambda_1; each is sent
    to [1^n] and the table follows f_1 <-> f_1 and F_A <-> f_2 of ``bl``'s
    finite-color tables breadth-first.  An edge defined on one side only, a
    conflicting or non-injective assignment, or an element left unreached is
    a construction fault.
    """
    l, mod = bl.l, bl.model
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
    f1, fa, bf1, bf2 = mod._f1.get, mod._fa.get, bl._f[1].get, bl._f[2].get
    while frontier:
        nxt = []
        for b in frontier:
            w = forward[b]
            for t, img in ((f1(b), bf1(w)), (fa(b), bf2(w))):
                if (t is None) != (img is None):
                    raise ConstructionFault(f"lowering edge at {b} ~ {w} exists on one side only")
                if t is not None and assign(t, img):
                    nxt.append(t)
        frontier = nxt
    if len(forward) != len(mod.elements):
        missing = [b for b in mod.elements if b not in forward][:5]
        raise ConstructionFault(f"gap: unassigned parameters remain, e.g. {missing}")
    # every image is an element of bl and assign is injective
    if len(backward) != len(bl.elements):
        raise ConstructionFault("assignment is not onto the word set")
    return PhiTable(l, forward, backward)


def phi_table(l: int) -> PhiTable:
    return bl_crystal(l).phi


# -- the level-l affine crystal ----------------------------------------


class BlCrystal:
    """B^l: tableau words of length at most l with three colored operators."""

    def __init__(self, l: int):
        self.l = l
        self.model = model(l)
        self.elements = gl_elements(l)
        self.index = {w: n for n, w in enumerate(self.elements)}
        self._f = {0: {}, 1: {}, 2: {}}
        self._e = {0: {}, 1: {}, 2: {}}
        # (eps_i, phi_i) per color, indexed like elements
        self._eps = ([], [], [])
        self._phi = ([], [], [])
        for i in (1, 2):
            self._rows(i, self._two_factor(i))
        self.phi = build_phi(self)
        fwd, mod = self.phi.forward, self.model

        def zero(b):
            # color 0 transports the model's f_0/e_0 through Phi
            f0, e0 = mod.f0(b), mod.e0(b)
            return (b.r, mod.phi0(b), None if f0 is None else fwd[f0],
                    None if e0 is None else fwd[e0])

        self._rows(0, map(zero, map(self.phi.backward.__getitem__, self.elements)))

    def _two_factor(self, i):
        """Yield color i's (eps, phi, f image, e image) row of each element.

        A word p + (a,) is the tensor product a (x) p, whose signature reads
        a's phi_a pluses before p's eps_i(p) minuses (Kashiwara's rule), so
        its row follows from (eps_a, phi_a) and p's row, read back from the
        tables ``_rows`` fills: words come by length, so p comes first.
        Images are not re-sorted; ``_rows`` checks each is an element.  A
        step the rule needs that is undefined, or a prefix not tabulated
        before its word, is a fault.
        """
        ep, fstep, estep = ((g2.EP1, g2.F1_STEP, g2.E1_STEP) if i == 1
                            else (g2.EP2, g2.F2_STEP, g2.E2_STEP))
        eps, phi, f, e = self._eps[i], self._phi[i], self._f[i].get, self._e[i].get
        index = self.index.get
        for m, w in enumerate(self.elements):
            if not w:
                yield 0, 0, None, None
                continue
            p, a = w[:-1], w[-1]
            n = index(p, m)
            if n >= m:
                raise ConstructionFault(f"prefix {p} of {w} is not tabulated before it")
            E, P = eps[n], phi[n]
            ea, fa = ep[a]
            try:
                fw = p + (fstep[a],) if fa > E else f(p) + (a,) if P else None
                ew = e(p) + (a,) if fa < E else p + (estep[a],) if ea else None
            except (KeyError, TypeError):
                raise ConstructionFault(f"color-{i} rule at {w} needs an undefined step") from None
            yield (ea + E - fa, P, fw, ew) if fa < E else (ea, P + fa - E, fw, ew)

    def _rows(self, i, rows):
        """Tabulate color i from one (eps, phi, f image, e image) row per
        element, in element order; an image that is not an element is a fault."""
        eps, phi, f, e = self._eps[i], self._phi[i], self._f[i], self._e[i]
        index, elements = self.index, self.elements
        for w, (ep, ph, fw, ew) in zip(elements, rows):
            eps.append(ep)
            phi.append(ph)
            for table, img in ((f, fw), (e, ew)):
                if img is not None:
                    n = index.get(img)
                    if n is None:
                        raise ConstructionFault(f"color-{i} image {img} of {w} is not a tableau")
                    table[w] = elements[n]

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


# the cache objects themselves, so that clearing works where a wrapper (such
# as perfbench's tracer) has rebound the module names model and bl_crystal
_LEVEL_CACHES = (model, bl_crystal)


def clear_level_caches():
    """Free every level's model and B^l; the next call builds them again."""
    for cached in _LEVEL_CACHES:
        cached.cache_clear()


# -- exhaustive verification --------------------------------------------


def _components(elements, idx, edge_maps):
    """Connected components under the given {element: element} edge maps.

    ``idx`` maps each element to its position in ``elements``.
    """
    parent = list(range(len(elements)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mp in edge_maps:
        for a, b in mp.items():
            ra, rb = find(idx[a]), find(idx[b])
            if ra != rb:
                parent[ra] = rb
    comps: dict[int, list] = {}
    for w in elements:
        comps.setdefault(find(idx[w]), []).append(w)
    return list(comps.values())


def verify_construction(l: int) -> dict:
    """Check every construction axiom exhaustively; failures are data.

    One pass over the model reads each element's E_A, F_A, f_0, Phi image
    and weight once for C1-C3, E_A injectivity and E1-E5, and C3 reads the
    E_A and F_A string depths of every element from one table each; D1 runs
    over B^l's words.
    """
    mod = model(l)
    table = phi_table(l)
    bl = bl_crystal(l)
    bad: dict[str, list] = {name: [] for name in (
        "pair_mutual_inverse", "affine_color_commutation", "string_depth_weight",
        "EA_injective", "zero_two_commutation", "color1_compatibility",
        "color2_compatibility", "weight_compatibility", "vanishing_compatibility")}
    ea, fa, f1, e1 = mod._ea.get, mod._fa.get, mod._f1.get, mod._e1.get
    f0, e0, phi0, weight = mod.f0, mod.e0, mod.phi0, mod.weight
    fwd = table.forward
    bf0, bf1, bf2 = (bl._f[i].get for i in (0, 1, 2))
    be0, be1, be2 = (bl._e[i].get for i in (0, 1, 2))
    ea_depth = _depths(mod.elements, mod._ea)
    fa_depth = _depths(mod.elements, mod._fa)
    images: dict[AParam, AParam] = {}
    for n, b in enumerate(mod.elements):
        up, dn, t, w = ea(b), fa(b), f0(b), fwd[b]
        w1, w0 = weight(b)
        # (C1) mutual inverse
        if up is not None and fa(up) != b:
            bad["pair_mutual_inverse"].append((b, up))
        if dn is not None and ea(dn) != b:
            bad["pair_mutual_inverse"].append((b, dn))
        # (C2) commutation with f_0, including definedness, plus phi_0 preservation
        if t is not None and ea(t) != (None if up is None else f0(up)):
            bad["affine_color_commutation"].append(b)
        if up is not None and phi0(up) != phi0(b):
            bad["affine_color_commutation"].append(b)
        # (C3) string-length difference equals the weight functional
        if fa_depth[n] - ea_depth[n] != -2 * w1 - w0:
            bad["string_depth_weight"].append(b)
        # E_A injectivity where nonzero
        if up is not None:
            if up in images:
                bad["EA_injective"].append((images[up], b, up))
            images[up] = b
        # (E1)/(E2) color-1 and extra-color compatibility: the model's tables
        # transported through Phi agree with the B^l tables
        for i, name, x, img in ((1, "f1", f1(b), bf1(w)), (1, "e1", e1(b), be1(w)),
                                (2, "FA", dn, bf2(w)), (2, "EA", up, be2(w))):
            if (None if x is None else fwd[x]) != img:
                bad[f"color{i}_compatibility"].append((b, name))
        # (E3)/(E4) weight matching
        wt = g2.weight(w)
        if wt.m1 != w1 or wt.m2 != -2 * w1 - w0:
            bad["weight_compatibility"].append(b)
        # (E5) vanishing of the affine operators matches the model
        if (bf0(w) is None) != (t is None):
            bad["vanishing_compatibility"].append((b, "f0"))
        if (be0(w) is None) != (e0(b) is None):
            bad["vanishing_compatibility"].append((b, "e0"))
    # the per-element tables are not needed by the component passes below
    del ea_depth, fa_depth, images

    # (D1) the affine operator commutes with the extra finite color
    ops = (("f", bf0, bf2), ("e", be0, be2))
    for w in bl.elements:
        for name, zero, two in ops:
            a = zero(w)
            a = None if a is None else two(a)
            c = two(w)
            c = None if c is None else zero(c)
            if a != c:
                bad["zero_two_commutation"].append((w, name))
    report: dict[str, dict] = {name: {"pass": not lst, "counterexamples": lst[:10],
                                      "failures": len(lst)} for name, lst in bad.items()}

    # the paper's explicit anchor formulas, as an oracle independent of the BFS
    counts = verify_anchors(l, table.forward)
    bad_rules = [rule for rule, n in counts.items() if n]
    report["anchor_formulas"] = {"pass": not bad_rules, "rules": counts,
                                 "failures": sum(counts.values()),
                                 "counterexamples": bad_rules}

    # restriction to the finite colors {1,2}: one component per n <= l
    comps = _components(bl.elements, bl.index, [bl._f[1], bl._f[2]])
    sizes = sorted(len(c) for c in comps)
    expected = sorted(g2.dim(n) for n in range(l + 1))
    ok = sizes == expected
    eps0, eps1, eps2 = bl._eps
    top = {w for w, a, c in zip(bl.elements, eps1, eps2) if a == c == 0}
    sources = [[w for w in comp if w in top] for comp in comps]
    ok = ok and all(len(s) == 1 and s[0] == (1,) * len(s[0]) for s in sources)
    report["restriction_12"] = {"pass": ok, "sizes": sizes, "failures": 0 if ok else 1,
                                "counterexamples": []}

    # restriction to the colors {1,0}: components match the model blocks,
    # by size and by the weight of the unique source of each component
    comps = _components(bl.elements, bl.index, [bl._f[1], bl._f[0]])
    top = {w for w, a, c in zip(bl.elements, eps1, eps0)
           if a == c == 0 and e1(table.backward[w]) is None}
    got = []
    ok = True
    for comp in comps:
        srcs = [w for w in comp if w in top]
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
