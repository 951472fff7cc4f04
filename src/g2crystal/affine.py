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
Every operator table is a list of image positions, None where undefined.
The model's elements are positions, each (i, k, j, p, q, r) at its string's
first position plus r (``position``, and ``param`` back), and its
``elements`` list is built only when read.  B^l's ``index`` dict maps a word
to its position: its values, and every entry of every table, the model's,
B^l's and Phi's, are the model's own position ints (``_at``).  The model
tabulates f_1, e_1, E_A and C_A once, and F_A from them.  The elements run
r innermost, so each f_0-string (i, k, j, p, q) is a run of positions, and
the f_0-string is the unit of the build: E_A sends a string's run onto the
start of another string's run, read from one ``ea_plus`` call, C_A onto the
whole run of another string of its length, reversed (``ca_string``), and
f_1 by the A2 string rule in at most two slices, each inside its target
string.  B^l's words are a prefix tree (``g2._grown`` gives each word's
children together, in letter order) that carries its places, each word's
first child and each letter's rank, and colors 1 and 2 grow each word's row
from its prefix's by the tensor-product rule, each image the position of a
child in that tree; the E3/E4 check sums the letter weights along the same
tree.  ``g2.strings``, which folds the
whole word, is the oracle of those rows.
The bijection Phi onto the direct sum of G2 crystals B(n*Lambda_1), n <= l,
is the unique classical crystal isomorphism, walked breadth-first along
those tables from the {1,2}-highest elements and kept as a permutation and
its inverse; any conflict or gap raises a construction fault.  B^l's color
0, f_0 transported through Phi, and the checks C1-C3 and E1-E5 walk the
strings too, with phi_0 = top - r and the weight (k+p-2q+r, j-2p+q-2r) as
ints, no element's fields read.  The explicit tableau anchor formulas are
kept as an independent check; its involution law finds each word's
involution as a position grown along the prefix tree, with no word built.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate, islice

from . import a2, g2
from .cartan import ClassicalWeight
from .g2 import ConstructionFault


# a model element: block (i, k, j) and string coordinates (p, q, r)
AParam = namedtuple("AParam", "i k j p q r")


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


def ca_string(i, k, j, p, q):
    """The f_0-string that C_A sends the string (i, k, j, p, q) onto, reversed:
    C_A(i, k, j, p, q, r) = (i, j, k, k-q+p, k+j-q, j+q-2p-r)."""
    return i, j, k, k - q + p, k + j - q


def _blocks(l):
    """The model's blocks (i, k, j) at level l: 0 <= i <= l//2, i <= k, j <= l-i."""
    return [(i, k, j) for i in range(l // 2 + 1)
            for k in range(i, l - i + 1) for j in range(i, l - i + 1)]


def _strings(blocks):
    """Each f_0-string of the model, in element order: its (i, k, j, p, q)
    and its top, the largest r, j + q - 2p.  The elements run r innermost,
    so each string is a run of consecutive positions, r = 0 first."""
    for i, k, j in blocks:
        for p in range(j + 1):
            for q in range(p, p + k + 1):
                yield (i, k, j, p, q), j + q - 2 * p


def _r_phi0(blocks) -> tuple[bytes, bytes]:
    """Per model position, r and phi_0 = top - r, joined from one run per
    f_0-string.  A top is at most j + k <= 2l, so each fits a byte."""
    tops = [top for _, top in _strings(blocks)]
    ups = [bytes(range(top + 1)) for top in range(max(tops) + 1)]
    return (b"".join(map(ups.__getitem__, tops)),
            b"".join(ups[top][::-1] for top in tops))


class AffineModel:
    """The model crystal A at a fixed level, with its operators.

    An element is a position: the elements run in string order, and
    ``position`` and ``param`` convert between a position and its
    ``AParam``.  The list ``elements`` is built on first read; no table
    needs it.
    """

    def __init__(self, l: int):
        if l < 0:
            raise ValueError("level must be nonnegative")
        self.l = l
        self.blocks = _blocks(l)
        strings = list(_strings(self.blocks))
        # each string's (i, k, j, p, q), and the position of its r = 0 element
        self._keys = [s for s, _ in strings]
        self._starts = list(accumulate((top + 1 for _, top in strings), initial=0))
        self._size = size = self._starts.pop()
        self._start = start = dict(zip(self._keys, self._starts))
        # one int object per position, shared by every table and by B^l's: a
        # computed position stored in every table would be a new int per entry
        self._at = at = list(range(size))
        self._f1, self._e1, self._ea = f1, e1, ea = [None] * size, [None] * size, [None] * size
        self._ca = ca = []
        for (s, top), a in zip(strings, self._starts):
            i, k, j, p, q = s
            # f_1 by the A2 string rule sends the string in two runs, and
            # leaves every other r without an image.  While q < k + p, r =
            # 0..q-p goes to (p, q+1, r); with lo = q-p+1, r = lo..top goes to
            # (p+1, q+1, r-1).  The rule's max(q-p, 2q-2p-k) + 1 is lo, as q <=
            # p + k gives 2q-2p-k <= q-p.  A target that is no string, or a
            # run that ends past its target's top, is a fault.
            lo = q - p + 1
            for b, r0, r1 in (((i, k, j, p, q + 1), 0, lo if q < k + p else 0),
                              ((i, k, j, p + 1, q + 1), lo, top + 1)):
                if r0 < r1:
                    d, t = b[3] - p, start.get(b)
                    if t is None or r1 - 1 - d > b[2] + b[4] - 2 * b[3]:
                        raise ConstructionFault(f"f_1 left the crystal: {AParam(*s, r1 - 1)} -> "
                                                f"{AParam(*b, r1 - 1 - d)}")
                    t += r0 - d
                    f1[a + r0:a + r1] = at[t:t + r1 - r0]
                    e1[t:t + r1 - r0] = at[a + r0:a + r1]
            # E_A keeps r, so it sends the string onto the start of another,
            # which must reach r = top
            base = ea_plus(l, *s)
            if base is not None:
                t = start.get(base)
                reach = -1 if t is None else base[2] + base[4] - 2 * base[3]
                if reach < top:
                    raise ConstructionFault(f"E_A left the crystal: {AParam(*s, reach + 1)} -> "
                                            f"{AParam(*base, reach + 1)}")
                ea[a:a + top + 1] = at[t:t + top + 1]
            # C_A sends the string onto another of its length, reversed
            image = ca_string(*s)
            t = start.get(image)
            if t is None:
                raise ConstructionFault(
                    f"involution left the crystal: {AParam(*s, 0)} -> {AParam(*image, top)}")
            if image[2] + image[4] - 2 * image[3] != top:
                raise ConstructionFault(f"involution sends the f_0-string of {AParam(*s, 0)} "
                                        f"onto that of {AParam(*image, 0)}, of another length")
            ca += at[t:t + top + 1][::-1]
        # a slice of the wrong length moves every later position
        if {len(f1), len(e1), len(ea), len(ca)} != {size}:
            raise ConstructionFault(f"the level-{l} operator tables do not cover the "
                                    f"{size} elements once each")
        self._fa = [None if (up := ea[c]) is None else ca[up] for c in ca]

    def __len__(self):
        return self._size

    def position(self, b) -> int | None:
        """The position of element ``b``, None if ``b`` is no element: what
        ``index.get(b)`` gives, from its string's start plus r."""
        if not isinstance(b, tuple) or len(b) != 6:
            return None
        t = self._start.get(b[:5])
        if t is None:
            return None
        i, k, j, p, q, r = b
        return t + r if r in range(j + q - 2 * p + 1) else None

    def param(self, n: int) -> AParam:
        """The element at position ``n``, found by its string's start."""
        if not 0 <= n < self._size:
            raise IndexError(f"no model position {n}")
        s = bisect_right(self._starts, n) - 1
        return AParam(*self._keys[s], n - self._starts[s])

    def iter_elements(self):
        """Each element in position order, made as it is read."""
        return (AParam(*s, r) for s, top in _strings(self.blocks) for r in range(top + 1))

    @cached_property
    def elements(self) -> list[AParam]:
        return list(self.iter_elements())

    @cached_property
    def r_phi0(self) -> tuple[bytes, bytes]:
        """Per position, r and phi_0 (``_r_phi0``), made once for B^l's
        colour 0 and the checks."""
        return _r_phi0(self.blocks)

    def _move(self, table, b):
        """``table``'s image of element ``b``, or None."""
        n = self.position(b)
        t = None if n is None else table[n]
        return None if t is None else self.param(t)

    def weight(self, b: AParam) -> tuple[int, int]:
        """(wt_1, wt_0) of the element."""
        return (b.k + b.p - 2 * b.q + b.r, b.j - 2 * b.p + b.q - 2 * b.r)

    # -- the auxiliary raising/lowering pair ----------------------------

    def EA(self, b: AParam) -> AParam | None:
        """The raising counterpart of the extra color; commutes with f_0."""
        return self._move(self._ea, b)

    def CA(self, b: AParam) -> AParam:
        """The involution, tabulated; a non-element is a fault."""
        n = self.position(b)
        if n is None:
            raise ConstructionFault(f"involution of a non-element: {b}")
        return self.param(self._ca[n])

    def FA(self, b: AParam) -> AParam | None:
        """C_A E_A C_A, tabulated."""
        return self._move(self._fa, b)


def _image(crystal, table, x):
    """``table``'s image of element ``x`` of ``crystal``, or None."""
    n = crystal.index.get(x)
    t = None if n is None else table[n]
    return None if t is None else crystal.elements[t]


def _depths(table) -> list[int]:
    """Per position, the steps along a position table until it is undefined,
    with each position walked once: a walk stops at the first position whose
    depth is known.  Every position that reaches a cycle reads len(table) + 1,
    a depth no string has."""
    cycle = len(table) + 1
    depth = [None] * len(table)
    for n in range(len(table)):
        path = []
        while n is not None and depth[n] is None:
            depth[n] = cycle  # met again on this walk only on a cycle
            path.append(n)
            n = table[n]
        d = -1 if n is None else depth[n]
        for x in reversed(path):
            d = min(d + 1, cycle)
            depth[x] = d
    return depth


@lru_cache(maxsize=None)
def model(l: int) -> AffineModel:
    return AffineModel(l)


def _prefix_tree(l: int, at) -> tuple[list[tuple[int, ...]], bytes, list[dict], list[int]]:
    """B^l's words as a prefix tree, with its places: the distinct tuples of
    child letters; for each word shorter than l, in element order, the
    number of its tuple in that list; per tuple, each letter's rank among
    them; and per word shorter than l, its first child's position, one of
    ``at``'s int objects.  The child of the word at position p by the letter
    a is at ``at[first[p] + ranks[kind[p]][a]]``.

    ``g2._grown`` extends each word of length n - 1, in order, by the
    letters ``g2._extensions`` gives its state, so the elements are the
    empty word and then each of those words' children in turn.  The states
    number a few hundred but give a handful of letter tuples, so a byte
    names a word's tuple.
    """
    states = "".join(g2._grown(n)[1] for n in range(l))
    kids = {s: "".join(map(chr, g2._extensions(ord(s)))) for s in dict.fromkeys(states)}
    # each distinct run of child letters, as their places in g2.LETTERS, numbered
    runs = {}
    number = {s: runs.setdefault(bytes(ord(c) & g2._LAST_BITS for c in k), len(runs))
              for s, k in kids.items()}
    letters = [tuple(map(g2.LETTERS.__getitem__, run)) for run in runs]
    kind = bytes(map(number.__getitem__, states))
    first = list(map(at.__getitem__, islice(
        accumulate(map(len, map(letters.__getitem__, kind)), initial=1), len(kind))))
    return letters, kind, [{a: r for r, a in enumerate(tup)} for tup in letters], first


def gl_count(l: int) -> int:
    return sum(g2.dim(n) for n in range(l + 1))


def a_count(l: int) -> int:
    return sum(a2.dim(k, j) for i, k, j in _blocks(l))


# -- explicit tableau anchors -------------------------------------------


def _anchor_f0p(l, i, j, p) -> tuple[int, ...]:
    """Word assigned to f_0^p applied to the highest element of B^i_(l-i,j),
    unsorted; four residue cases of l - i - j mod 3.  Of the p steps,
    a = min(p, i) add a 1 each, and the other b each put a 6 for a -2."""
    y, m = divmod(l - i - j, 3)
    a, b = min(p, i), max(p - i, 0)
    ones, twos = (1,) * a, (-2,) * (y + j - b)
    if m == 0:
        return ones + (6,) * (y + b) + g2.cstrip(y + i - a) + twos
    if m == 2:
        return ones + (6,) * (y + b + 1) + g2.cstrip(y + i - a) + (-3,) + twos
    if y + i > a:
        return ones + (6,) * (y + b + 1) + g2.cstrip(y + i - a - 1) + (-4,) + twos
    # y + i <= a = min(p, i) leaves y = 0 and a = i
    return ones + (6,) * b + (-5,) + twos


def _anchor_word(letters) -> tuple[int, ...]:
    """The letters sorted; with a non-letter among them, as they are: an invalid word."""
    return g2.sort_word(letters) if all(a in g2.ORDER_INDEX for a in letters) else letters


def _anchor_cases(l):
    """Yield (rule, model element, word) for each explicit anchor formula.

    Each pair is yielded once: R2's k = l row is the boundary family
    (6^p, -2^(l-p)), and R5's p = 0 word the highest element's."""
    for p in range(l + 1):
        yield "R1", AParam(0, l, l, l, 2 * l, l - p), (2,) * (l - p) + (-6,) * p
    for k in range(l + 1):
        for p in range(l + 1):
            w = g2.apply_power("e", 2, (6,) * p + (-2,) * (l - p), l - k)
            yield "R2", AParam(0, k, l, 0, 0, p), w
        # w is now the p = l word of R2, the base of the R3 color-1 string
        for q in range(1, l + k + 1):
            w = g2.apply_power("f", 1, w, 1)
            yield "R3", AParam(0, k, l, q, q, l - q) if q <= l else AParam(0, k, l, l, q, 0), w
    for i, k, j in _blocks(l):
        if k == l - i:
            for p in range(j + 1):
                w = _anchor_word(_anchor_f0p(l, i, j, p))
                yield "R5", AParam(i, k, j, 0, 0, p), w
                # a mis-transcribed (invalid) word fails R5 and voids its
                # R6 string instead of raising inside g2.apply
                w = w if g2.is_valid_word(w) else None
                for q in range(1, (k - j) // 3 + j - max(i - p, 0) + 1):
                    w = g2.apply_power("f", 1, w, 1)
                    yield "R6", (AParam(i, k, j, q, q, p - q) if q <= p
                                 else AParam(i, k, j, p, q, 0)), w


def verify_anchors(l: int, phi: PhiTable) -> dict[str, int]:
    """Failure counts per rule of the explicit anchor formulas against Phi.

    R1 the boundary family (2^(l-p), -6^p), R2 the e_2-powers of the family
    (6^p, -2^(l-p)), R3/R6 f_1-powers over R2's p = l word and the f_0-power
    anchors, R5 the residue-case tableau formula for f_0^p of each block's
    highest element (at p = 0 the highest element's own), R8/R9 the
    involution law Phi(C_A b) = involution(Phi(b)) everywhere.
    """
    counts = dict.fromkeys(("R1", "R2", "R3", "R5", "R6", "R8/R9"), 0)
    mod, perm, words = model(l), phi.perm, phi.words
    for rule, b, w in _anchor_cases(l):
        n = mod.position(b)
        counts[rule] += n is None or words[perm[n]] != w
    # on positions: the involution of Phi(C_A b) must sit where Phi(b) does
    inv = _involution_positions(bl_crystal(l))
    images = list(map(inv.__getitem__, map(perm.__getitem__, mod._ca)))
    if images != perm:
        counts["R8/R9"] = sum(x != y for x, y in zip(images, perm))
    return counts


def _involution_positions(bl) -> list[int | None]:
    """The position of each of B^l's words' involution (``g2.involution``),
    in element order, grown along the prefix tree with no word built: for
    w = p + (a,), w[1:] is the child of p[1:] by a, and inv(w) is the child
    of inv(w[1:]) by the bar of w[0].  None where the involution, or the
    suffix it is grown from, has no place in the tree."""
    letters, kind, ranks, first = bl._tree
    at = bl.model._at
    bar, code, letter = g2._BAR, g2.ORDER_INDEX, g2.LETTERS
    short = len(kind)
    # per word shorter than l only: the position of w[1:], and w[0] as its
    # place in g2.LETTERS; the empty word has neither
    inv, suf, firsts = [at[0]], [None], bytearray(1)
    # the words (a,): the empty word is their suffix, (bar a,) their involution
    for a in letters[kind[0]] if short else ():
        r = ranks[kind[0]].get(bar[a])
        inv.append(None if r is None else at[first[0] + r])
        if short > 1:
            suf.append(at[0])
            firsts.append(code[a])
    for p in range(1, short):
        s, fa = suf[p], firsts[p]
        b, grow = bar[letter[fa]], first[p] < short  # grow: p's children are shorter than l
        base, rank = (None, None) if s is None else (first[s], ranks[kind[s]])
        for a in letters[kind[p]]:
            try:
                t = at[base + rank[a]]
            except (TypeError, KeyError):  # s is None, or w[1:] is no child of it
                t = None
            try:
                x = inv[t]
                inv.append(at[first[x] + ranks[kind[x]][b]])
            except (TypeError, KeyError):  # inv(w[1:]) is None, or inv(w) no child of it
                inv.append(None)
            if grow:
                suf.append(t)
                firsts.append(fa)
    return inv


class PhiTable:
    """Phi at one level: ``words[perm[n]]`` is Phi of the model's element at
    position n, ``inverse`` inverts ``perm``, and the dict ``forward`` is
    built on first read and kept."""

    def __init__(self, perm, inverse, model, words):
        self.perm, self.inverse, self.model, self.words = perm, inverse, model, words

    def __len__(self):
        return len(self.perm)

    @cached_property
    def forward(self) -> dict[AParam, tuple[int, ...]]:
        return dict(zip(self.model.elements, map(self.words.__getitem__, self.perm)))


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
    param, words = mod.param, bl.elements
    perm = [None] * len(mod)
    inverse = [None] * len(words)

    def assign(b, w):
        old = perm[b]
        if old is not None:
            if old != w:
                raise ConstructionFault(f"conflict at {param(b)}: {words[old]} vs {words[w]}")
            return False
        owner = inverse[w]
        if owner is not None:
            raise ConstructionFault(
                f"word {words[w]} already assigned to {param(owner)}, not {param(b)}")
        perm[b] = w
        inverse[w] = b
        return True

    e1, ea = mod._e1, mod._ea
    highest = sorted((mod.weight(param(b)), b) for b in mod._at
                     if e1[b] is None and ea[b] is None)
    if [wt for wt, _ in highest] != [(n, -2 * n) for n in range(l + 1)]:
        raise ConstructionFault(f"highest elements {[param(b) for _, b in highest]} "
                                f"are not one per n*Lambda_1, n <= {l}")
    frontier = [b for _, b in highest]
    for n, b in enumerate(frontier):
        assign(b, bl.index[(1,) * n])
    f1, fa, bf1, bf2 = mod._f1, mod._fa, bl._fpos[1], bl._fpos[2]
    while frontier:
        nxt = []
        for b in frontier:
            w = perm[b]
            for t, img in ((f1[b], bf1[w]), (fa[b], bf2[w])):
                if (t is None) != (img is None):
                    raise ConstructionFault(
                        f"lowering edge at {param(b)} ~ {words[w]} exists on one side only")
                if t is not None and assign(t, img):
                    nxt.append(t)
        frontier = nxt
    missing = [param(b) for b, w in enumerate(perm) if w is None][:5]
    if missing:
        raise ConstructionFault(f"gap: unassigned parameters remain, e.g. {missing}")
    # every image is an element of bl and assign is injective
    if None in inverse:
        raise ConstructionFault("assignment is not onto the word set")
    return PhiTable(perm, inverse, mod, words)


def phi_table(l: int) -> PhiTable:
    return bl_crystal(l).phi


# -- the level-l affine crystal ----------------------------------------


class BlCrystal:
    """B^l: tableau words of length at most l with three colored operators."""

    def __init__(self, l: int):
        self.l = l
        self.model = model(l)
        # the tableau walk's words, by length and then in letter order, the
        # order of _prefix_tree's places
        self.elements = [w for n in range(l + 1) for w in g2._grown(n)[0]]
        # zip would drop the words or positions past the shorter list
        if len(self.elements) != len(self.model):
            raise ConstructionFault(f"B^{l} has {len(self.elements)} words but the "
                                    f"model {len(self.model)} elements")
        # the model's own position ints, which every table below stores
        self.index = dict(zip(self.elements, self.model._at))
        # per color, indexed like elements: the positions of the f_i and e_i
        # images (None where undefined), eps_i and phi_i
        self._fpos, self._epos = ([], [], []), ([], [], [])
        self._eps = ([], [], [])
        self._phi = ([], [], [])
        # the prefix tree and its places, kept for the R8/R9 and E3/E4 checks
        self._tree = _prefix_tree(l, self.model._at)
        self._grow(*self._tree)
        self.phi = build_phi(self)
        self._zero()

    def _zero(self):
        """Fill color 0's tables: the model's f_0/e_0 through Phi.

        The model's elements run r innermost, so each f_0-string is a run of
        that list: f_0 of the element at position m is the one at m + 1 while
        phi_0 > 0, and e_0 the one at m - 1 while r > 0.  Both are read off
        the strings (``AffineModel.r_phi0``), not the elements.
        """
        rs, phis = self.model.r_phi0
        perm, inverse = self.phi.perm, self.phi.inverse
        self._eps[0].extend(map(rs.__getitem__, inverse))
        self._phi[0].extend(map(phis.__getitem__, inverse))
        self._fpos[0].extend([perm[m + 1] if phis[m] else None for m in inverse])
        self._epos[0].extend([perm[m - 1] if rs[m] else None for m in inverse])

    def _grow(self, letters, kind, ranks, first):
        """Fill colors 1 and 2 along the prefix tree, each word from its
        prefix's row, in element order.

        A word p + (a,) is the tensor product a (x) p (Kashiwara's rule): f_i
        acts on a iff phi_i(a) > eps_i(p), e_i iff phi_i(a) >= eps_i(p), the
        two-factor case of ``signature.bracket``.  Colors 1 and 2 keep a
        word's length, so each image is a child in the tree: the sibling p + (step(a),) or
        the child of f_i p (e_i p) by a, found at its parent's first child
        plus the letter's rank among that parent's children.  No word is
        sliced, joined or hashed.  A step the rule needs that is undefined,
        or an image that is not a tableau, is a fault.
        """
        at = self.model._at

        def sibling(rank, step):
            """The rank of the sibling by ``step``: None where the step is
            undefined, past every position where it is not a tableau."""
            return None if step is None else rank.get(step, len(at))

        for i, ep, fstep, estep in ((1, g2.EP1, g2.F1_STEP, g2.E1_STEP),
                                    (2, g2.EP2, g2.F2_STEP, g2.E2_STEP)):
            # each child's letter, (eps, phi) and f_i and e_i siblings
            rows = [tuple((a, *ep[a], sibling(rank, fstep.get(a)), sibling(rank, estep.get(a)))
                          for a in kids) for kids, rank in zip(letters, ranks)]
            eps, phi, f, e = self._eps[i], self._phi[i], self._fpos[i], self._epos[i]
            eps.append(0)
            phi.append(0)
            f.append(None)
            e.append(None)
            put_eps, put_phi, put_f, put_e = eps.append, phi.append, f.append, e.append
            try:
                for p, kids in enumerate(map(rows.__getitem__, kind)):
                    E, P, fp, ep_, c = eps[p], phi[p], f[p], e[p], first[p]
                    for a, ea, fa, fsib, esib in kids:
                        if fa < E:
                            put_eps(ea + E - fa)
                            put_phi(P)
                            put_f(at[first[fp] + ranks[kind[fp]][a]] if P else None)
                            put_e(at[first[ep_] + ranks[kind[ep_]][a]])
                        else:
                            put_eps(ea)
                            put_phi(P + fa - E)
                            put_f(at[c + fsib] if fa > E
                                  else at[first[fp] + ranks[kind[fp]][a]] if P else None)
                            put_e(at[c + esib] if ea else None)
            # e is filled last, so len(e) is the position of the word at fault
            except TypeError:  # a step or prefix image the rule needs is None
                raise ConstructionFault(
                    f"color-{i} rule at {self.elements[len(e)]} needs an undefined step") from None
            except (KeyError, IndexError):  # an image with no place in the tree
                raise ConstructionFault(
                    f"color-{i} image of {self.elements[len(e)]} is not a tableau") from None

    # {word: word} views of f_i and e_i per color, built on each read
    _f = property(lambda self: self._words(self._fpos))
    _e = property(lambda self: self._words(self._epos))

    def _words(self, tables):
        el = self.elements
        return tuple({el[n]: el[t] for n, t in enumerate(tab) if t is not None} for tab in tables)

    def f(self, i, w):
        return _image(self, self._fpos[i], w)

    def e(self, i, w):
        return _image(self, self._epos[i], w)

    def eps(self, i, w) -> int:
        return self._eps[i][self.index[w]]

    def phi_i(self, i, w) -> int:
        return self._phi[i][self.index[w]]

    def weight(self, w) -> ClassicalWeight:
        return g2.weight(w)


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


def _components(size, tables) -> list[int]:
    """Connected components of positions 0..size-1 under position tables:
    per position, the root position that labels its component."""
    parent = list(range(size))
    # each find halves the path it walks; the loops run once per edge and
    # once per position, so the finds are inlined
    for table in tables:
        for a, b in enumerate(table):
            if b is None:
                continue
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
    for x in range(size):
        root = parent[x]
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        parent[x] = root
    return parent


def _word_weights(letters, kind) -> tuple[bytearray, bytearray]:
    """(m1, m2) of each of B^l's words, in element order, plus 128: the sums
    of its letters' weights, ``g2._WT1`` and ``g2._WT2`` read now, each grown
    along the prefix tree as its prefix's sums plus its last letter's.  A
    letter weighs at most 3, so |m| <= 3l fits a byte with that offset, and
    the sums take two bytes a word, where two lists of ints take sixteen.
    ``letters`` and ``kind`` are from the prefix tree (``_prefix_tree``)."""
    wt1, wt2 = g2._WT1, g2._WT2
    steps = [tuple((wt1[a], wt2[a]) for a in kids) for kids in letters]
    m1s, m2s = bytearray([128]), bytearray([128])
    put1, put2 = m1s.append, m2s.append
    for p, kids in enumerate(map(steps.__getitem__, kind)):
        m1, m2 = m1s[p], m2s[p]
        for d1, d2 in kids:
            put1(m1 + d1)
            put2(m2 + d2)
    return m1s, m2s


def verify_construction(l: int) -> dict:
    """Check every construction axiom exhaustively; failures are data.

    One pass along the model's f_0-strings reads each element's E_A, F_A and
    Phi image once for C1-C3 and E1-E5, its weight, phi_0, f_0 and e_0 off its
    place in its string, and C3 reads the E_A and F_A string depths of every
    element from one list each; E_A injectivity follows from C1, and its
    collisions are listed only when C1 fails; D1 runs over B^l's positions.
    Counterexamples name parameters and words, not positions.  A check's
    comment says what the build already implies; which checks catch a table
    poisoned after the build is pinned in tests/test_affine.py.
    """
    mod = model(l)
    table = phi_table(l)
    bl = bl_crystal(l)
    bad: dict[str, list] = {name: [] for name in (
        "pair_mutual_inverse", "affine_color_commutation", "string_depth_weight",
        "EA_injective", "zero_two_commutation", "color1_compatibility",
        "color2_compatibility", "weight_compatibility", "vanishing_compatibility")}
    ea, fa, f1, e1 = mod._ea, mod._fa, mod._f1, mod._e1
    param, fwd, words = mod.param, table.perm, bl.elements
    bf0, bf1, bf2 = bl._fpos
    be0, be1, be2 = bl._epos
    ea_depth = _depths(ea)
    fa_depth = _depths(fa)
    phis = mod.r_phi0[1]
    m1s, m2s = _word_weights(*bl._tree[:2])
    n = 0
    for (i, k, j, p, q), top in _strings(mod.blocks):
        # along the string r runs 0..top, wt_1 = k + p - 2q + r and
        # wt_0 = j - 2p + q - 2r, so -2 wt_1 - wt_0 = 3q - 2k - j throughout
        w1 = k + p - 2 * q
        gap = 3 * q - 2 * k - j
        for ph0 in range(top, -1, -1):
            # f_0 is the next position while phi_0 > 0, e_0 is defined iff r > 0
            up, dn, w = ea[n], fa[n], fwd[n]
            t = n + 1 if ph0 else None
            # (C1) mutual inverse
            if up is not None and fa[up] != n:
                bad["pair_mutual_inverse"].append((param(n), param(up)))
            if dn is not None and ea[dn] != n:
                bad["pair_mutual_inverse"].append((param(n), param(dn)))
            # (C2) commutation with f_0, including definedness, plus phi_0
            # preservation; the commutation half follows from E_A's build, which
            # sends a string onto the start of one as long or longer, slice for
            # slice; the phi_0 half does not, as that string may be longer
            up_ph0 = None if up is None else phis[up]
            if t is not None and ea[t] != (up + 1 if up_ph0 else None):
                bad["affine_color_commutation"].append(param(n))
            if up is not None and up_ph0 != ph0:
                bad["affine_color_commutation"].append(param(n))
            # (C3) string-length difference equals the weight functional
            if fa_depth[n] - ea_depth[n] != gap:
                bad["string_depth_weight"].append(param(n))
            # (E1)/(E2) color-1 and extra-color compatibility: the model's tables
            # transported through Phi agree with the B^l tables; the f1 and FA halves
            # follow from a successful build_phi, which walks every f_1 and F_A edge;
            # the e1 and EA halves do not
            x = f1[n]
            if (None if x is None else fwd[x]) != bf1[w]:
                bad["color1_compatibility"].append((param(n), "f1"))
            x = e1[n]
            if (None if x is None else fwd[x]) != be1[w]:
                bad["color1_compatibility"].append((param(n), "e1"))
            if (None if dn is None else fwd[dn]) != bf2[w]:
                bad["color2_compatibility"].append((param(n), "FA"))
            if (None if up is None else fwd[up]) != be2[w]:
                bad["color2_compatibility"].append((param(n), "EA"))
            # (E3)/(E4) weight matching: the word's (m1, m2), summed from its
            # letters along the prefix tree, not read off B^l's eps/phi tables
            if m1s[w] - 128 != w1 + top - ph0 or m2s[w] - 128 != gap:
                bad["weight_compatibility"].append(param(n))
            # (E5) the affine operators match the model's, where they vanish
            # and where they do not; this follows from BlCrystal._zero, which
            # transports the model's f_0 and e_0 through Phi
            if bf0[w] != (None if t is None else fwd[t]):
                bad["vanishing_compatibility"].append((param(n), "f0"))
            if be0[w] != (None if ph0 == top else fwd[n - 1]):
                bad["vanishing_compatibility"].append((param(n), "e0"))
            n += 1
    # the per-element lists are not needed by the component passes below
    del ea_depth, fa_depth, phis, m1s, m2s
    # E_A injectivity where nonzero: two elements with one E_A image cannot
    # both pass C1's F_A(E_A b) = b, so only a C1 failure can hide a
    # collision, and only then is each (earlier preimage, b, image) listed
    if bad["pair_mutual_inverse"]:
        preimage = {}
        for n, up in enumerate(ea):
            if up is not None:
                if up in preimage:
                    bad["EA_injective"].append((param(preimage[up]), param(n), param(up)))
                preimage[up] = n

    # (D1) the affine operator commutes with the extra finite color
    ops = (("f", bf0, bf2), ("e", be0, be2))
    for n, w in enumerate(words):
        for name, zero, two in ops:
            a = zero[n]
            a = None if a is None else two[a]
            c = two[n]
            c = None if c is None else zero[c]
            if a != c:
                bad["zero_two_commutation"].append((w, name))
    report: dict[str, dict] = {name: {"pass": not lst, "counterexamples": lst[:10],
                                      "failures": len(lst)} for name, lst in bad.items()}

    # the paper's explicit anchor formulas, as an oracle independent of the BFS
    counts = verify_anchors(l, table)
    bad_rules = [rule for rule, n in counts.items() if n]
    report["anchor_formulas"] = {"pass": not bad_rules, "rules": counts,
                                 "failures": sum(counts.values()),
                                 "counterexamples": bad_rules}

    # restriction to the finite colors {1,2}: one component per n <= l, each
    # with one source, the word [1^n]
    eps0, eps1, eps2 = bl._eps
    roots = _components(len(words), (bf1, bf2))
    sizes = sorted(Counter(roots).values())
    expected = sorted(g2.dim(n) for n in range(l + 1))
    ok = sizes == expected
    sources: dict[int, list] = {}
    for n, (a, c) in enumerate(zip(eps1, eps2)):
        if a == c == 0:
            sources.setdefault(roots[n], []).append(words[n])
    ok = ok and len(sources) == len(sizes) and all(
        len(s) == 1 and s[0] == (1,) * len(s[0]) for s in sources.values())
    report["restriction_12"] = {"pass": ok, "sizes": sizes, "failures": 0 if ok else 1,
                                "counterexamples": []}

    # restriction to the colors {1,0}: components match the model blocks,
    # by size and by the weight of the unique source of each component
    back = table.inverse
    roots = _components(len(words), (bf1, bf0))
    sizes = Counter(roots)
    sources = {}
    for n, (a, c) in enumerate(zip(eps1, eps0)):
        if a == c == 0 and e1[back[n]] is None:
            sources.setdefault(roots[n], []).append(back[n])
    ok = len(sources) == len(sizes) and all(len(s) == 1 for s in sources.values())
    got = sorted((sizes[root], *mod.weight(param(s[0]))) for root, s in sources.items())
    expected = sorted((a2.dim(k, j), k, j) for (i, k, j) in mod.blocks)
    ok &= got == expected
    report["restriction_10"] = {"pass": ok, "components": len(sizes),
                                "failures": 0 if ok else 1,
                                "counterexamples": []}

    report["all_pass"] = all(v["pass"] for v in report.values())
    return report
