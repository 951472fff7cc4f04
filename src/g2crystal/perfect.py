"""Perfectness checks for the level-l crystal.

Verifies the checkable perfectness conditions: connectedness of the tensor
square under all three colors, a unique element of the extremal weight,
the level bound on the raising distances, and the bijections from minimal
elements onto dominant weights of the level.  The module-theoretic
condition (existence of a module with crystal pseudo-base) is assumed from
the fusion construction and is not represented here.

The square B^l (x) B^l is proved connected over its classical {1,2}-
components (``_square_components``): one highest element names each, and
one e_0 probe from it, raised, joins it to another.  The flat BFS over all
|B^l|^2 states is its reference in the tests, and applies the two-factor
rule itself; the proof raises pairs of positions through B^l's own
position tables, one e_i step at a time (``_pair_step``).
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat

from .affine import ConstructionFault, _components, bl_crystal
from .cartan import ClassicalWeight, dominant_weights, simple_root, weyl_dim


# the perfectness conditions, each held as the field cond_<name>, in the
# order every report lists them
CONDITIONS = ("connected_square", "unique_top_weight", "level_bound", "eps_phi_bijective",
              "self_connected")


class PerfectReport:
    """The perfectness conditions of one level; reports compare field-wise."""

    def __init__(self, level: int):
        self.level = level
        self.cond_connected_square = False
        self.cond_unique_top_weight = False
        self.cond_level_bound = False
        self.cond_eps_phi_bijective = False
        self.cond_self_connected = False
        self.square_size = 0
        self.square_components = 0
        self.square_roots = 0
        self.top_weight: ClassicalWeight | None = None
        self.minimal = []

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is PerfectReport else NotImplemented

    def conditions(self) -> dict[str, bool]:
        return {name: getattr(self, "cond_" + name) for name in CONDITIONS}

    def all_pass(self) -> bool:
        return all(self.conditions().values())

    def to_json(self) -> dict:
        return {
            "level": self.level,
            **self.conditions(),
            "square_size": self.square_size,
            "square_components": self.square_components,
            "square_roots": self.square_roots,
            "top_weight": self.top_weight._asdict() if self.top_weight else None,
            "minimal_count": len(self.minimal),
        }


def minimal_rows(l: int) -> list[tuple[tuple[int, ...], ClassicalWeight, ClassicalWeight]]:
    """(word, eps, phi) of each element whose raising-distance weight eps
    has level exactly l, in element order."""
    bl = bl_crystal(l)
    return [(w, ClassicalWeight(e0, e1, e2), ClassicalWeight(p0, p1, p2))
            for w, e0, e1, e2, p0, p1, p2 in zip(bl.elements, *bl._eps, *bl._phi)
            if e0 + 2 * e1 + e2 == l]


def minimal_elements(l: int) -> list[tuple[int, ...]]:
    """The words of ``minimal_rows``."""
    return [w for w, _, _ in minimal_rows(l)]


def _self_connected(bl) -> bool:
    return len(set(_components(len(bl.elements), bl._fpos))) <= 1


def _pair_step(bl, i, x, y):
    """e_i of x (x) y as a position pair, or None: e_i acts on x iff
    phi_i(x) >= eps_i(y) (Kashiwara's rule), and on y otherwise."""
    img = bl._epos[i]
    if bl._phi[i][x] >= bl._eps[i][y]:
        t = img[x]
        return None if t is None else (t, y)
    t = img[y]
    return None if t is None else (x, t)


def _greedy(bl, pair):
    """Raise pair by e_1 or e_2 until neither is defined.

    In a crystal each step moves one factor strictly in weight, so the walk
    ends within 2|B| steps; one that does not is a fault of the tables.
    """
    limit = 2 * len(bl.elements)
    for _ in range(limit):
        for i in (1, 2):
            nxt = _pair_step(bl, i, *pair)
            if nxt is not None:
                pair = nxt
                break
        else:
            return pair
    raise ConstructionFault(f"e_1/e_2 walk from {pair} does not end in {limit} steps")


def _highest_pairs(bl) -> list[tuple[int, int]]:
    """The {1,2}-highest pairs (x, y) of B^l (x) B^l as positions, x then y
    ascending: eps_i(x) = 0 and eps_i(y) <= phi_i(x) for i = 1, 2."""
    eps, phi = bl._eps, bl._phi
    # the y by (eps_1(y), eps_2(y)), each group in position order: a top x
    # reads only the groups under (phi_1(x), phi_2(x)), sorted back together
    groups = {}
    for y, key in enumerate(zip(eps[1], eps[2])):
        if key in groups:
            groups[key].append(y)
        else:
            groups[key] = [y]
    highest = []
    for x in groups.get((0, 0), ()):
        p1, p2 = phi[1][x], phi[2][x]
        ys = []
        for (e1, e2), group in groups.items():
            if e1 <= p1 and e2 <= p2:
                ys += group
        ys.sort()
        highest += zip(repeat(x), ys)
    return highest


def _square_components(bl) -> tuple[int, int, int]:
    """(K, roots, size) of B^l (x) B^l over its K {1,2}-components.

    x (x) y is {1,2}-highest iff eps_i(x) = 0 and eps_i(y) <= phi_i(x) for
    i = 1, 2; on B^l that makes x = (1,)*m.  B^l restricted to {1,2} is a sum
    of normal crystals (``restriction_12`` and Phi check this), so is its
    square: each component has one highest element, greedy e_1/e_2 raising
    reaches it, and its size is the Weyl dimension of its weight.  ``size``
    sums those dimensions.  One e_0 probe from each highest element, raised
    to a highest element, joins components; ``roots`` is the number of
    classes left, and a probe whose raising ends outside the K counts as a
    root of its own.  Every probe and raising step is a real edge, so
    roots == 1 and size == |B^l|^2 prove the square connected; too few
    probes could only read FAIL, never a false pass.
    """
    eps, phi = bl._eps, bl._phi
    highest = _highest_pairs(bl)
    comp = {h: c for c, h in enumerate(highest)}
    # per highest element, the one its e_0 probe raises to
    joins = [None] * len(highest)
    size = escaped = 0
    for c, h in enumerate(highest):
        x, y = h
        size += weyl_dim(phi[2][x] - eps[2][x] + phi[2][y] - eps[2][y],
                          phi[1][x] - eps[1][x] + phi[1][y] - eps[1][y])
        img = _pair_step(bl, 0, *h)
        if img is None:
            continue
        top = comp.get(_greedy(bl, img))
        if top is None:
            escaped += 1
        joins[c] = top
    roots = len(set(_components(len(highest), [joins]))) + escaped
    return len(highest), roots, size


def check_perfect(l: int) -> PerfectReport:
    bl = bl_crystal(l)
    rep = PerfectReport(level=l)

    rep.cond_self_connected = _self_connected(bl)
    rep.square_components, rep.square_roots, rep.square_size = _square_components(bl)
    rep.cond_connected_square = (rep.square_roots == 1
                                 and rep.square_size == len(bl.elements) ** 2)

    # the minimal elements, then one pass over B^l's tables in ints: the
    # weights phi - eps and the level <c, eps> against l; a ClassicalWeight
    # is built only per distinct weight and per minimal element
    rep.minimal = minimal_rows(l)
    counts: Counter[tuple[int, int, int]] = Counter()
    below = False
    for e0, e1, e2, p0, p1, p2 in zip(*bl._eps, *bl._phi):
        counts[p0 - e0, p1 - e1, p2 - e2] += 1
        below |= e0 + 2 * e1 + e2 < l
    rep.cond_level_bound = not below
    weights = {ClassicalWeight(*k): n for k, n in counts.items()}

    # the extremal weight is discovered, not assumed: the unique weight from
    # which no other weight is reachable by adding a classical simple root
    # of a nonzero color
    shifts = [simple_root(1), simple_root(2)]
    tops = [wt for wt in weights if all(wt + s not in weights for s in shifts)]
    if len(tops) == 1:
        rep.top_weight = lam0 = tops[0]
        rep.cond_unique_top_weight = (weights[lam0] == 1
                                      and all(_in_cone(lam0 - wt) for wt in weights))

    # the minimal elements map bijectively onto the dominant weights
    dom = dominant_weights(l)
    eps_img = {e for (_, e, _) in rep.minimal}
    phi_img = {p for (_, _, p) in rep.minimal}
    # each image set is dom and of the minimal list's length, so no two
    # minimal elements share an eps or a phi
    rep.cond_eps_phi_bijective = len(rep.minimal) == len(dom) and eps_img == dom == phi_img
    return rep


def _in_cone(d: ClassicalWeight) -> bool:
    """d = x*cl(alpha_1) + y*cl(alpha_2) for some integers x, y >= 0.

    cl(alpha_1) = (-1, 2, -3) and cl(alpha_2) = (0, -1, 2) have determinant
    1 in (m1, m2), so x = 2*m1 + m2 and y = 3*m1 + 2*m2, and m0 must be -x.
    """
    x, y = 2 * d.m1 + d.m2, 3 * d.m1 + 2 * d.m2
    return x >= 0 and y >= 0 and d.m0 == -x
