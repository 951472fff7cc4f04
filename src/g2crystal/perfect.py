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
|B^l|^2 states (``_square_connected``) is the reference for tests.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from .affine import ConstructionFault, _components, bl_crystal
from .cartan import ClassicalWeight, dominant_weights, level, simple_root, weyl_dim


@dataclass
class PerfectReport:
    level: int
    cond_connected_square: bool = False
    cond_unique_top_weight: bool = False
    cond_level_bound: bool = False
    cond_eps_phi_bijective: bool = False
    cond_self_connected: bool = False
    square_size: int = 0
    square_components: int = 0
    square_roots: int = 0
    top_weight: ClassicalWeight | None = None
    minimal: list = field(default_factory=list)

    def all_pass(self) -> bool:
        return (
            self.cond_connected_square
            and self.cond_unique_top_weight
            and self.cond_level_bound
            and self.cond_eps_phi_bijective
            and self.cond_self_connected
        )

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "connected_square": self.cond_connected_square,
            "unique_top_weight": self.cond_unique_top_weight,
            "level_bound": self.cond_level_bound,
            "eps_phi_bijective": self.cond_eps_phi_bijective,
            "self_connected": self.cond_self_connected,
            "square_size": self.square_size,
            "square_components": self.square_components,
            "square_roots": self.square_roots,
            "top_weight": self.top_weight.to_json() if self.top_weight else None,
            "minimal_count": len(self.minimal),
        }


def _eps_phi(bl):
    """Yield (word, eps, phi) for each element, the weights read off B^l's tables."""
    for w, e0, e1, e2, p0, p1, p2 in zip(bl.elements, *bl._eps, *bl._phi):
        yield w, ClassicalWeight(e0, e1, e2), ClassicalWeight(p0, p1, p2)


def minimal_elements(l: int) -> list[tuple[int, ...]]:
    """Elements whose raising-distance weight has level exactly l."""
    bl = bl_crystal(l)
    return [w for w, e0, e1, e2 in zip(bl.elements, *bl._eps) if e0 + 2 * e1 + e2 == l]


def _self_connected(bl) -> bool:
    return len(_components(bl.elements, bl.index, [bl._f[i] for i in (0, 1, 2)])) <= 1


def _index_tables(bl):
    """(f, e, eps, phi) per color, indexed like ``bl.elements``.

    ``f[i][x]``/``e[i][x]`` are the indices of the images of element x, -1
    where the operator is undefined.
    """
    idx = bl.index
    f = [[idx.get(bl._f[i].get(w), -1) for w in bl.elements] for i in (0, 1, 2)]
    e = [[idx.get(bl._e[i].get(w), -1) for w in bl.elements] for i in (0, 1, 2)]
    return f, e, bl._eps, bl._phi


def _pair_step(tables, op, i, x, y):
    """f_i ('f') or e_i ('e') of x (x) y as an index pair, or None.

    The bracketing rule in its two-factor closed form: f_i acts on x when
    phi_i(x) > eps_i(y), e_i when phi_i(x) >= eps_i(y), and on y otherwise.
    """
    f, e, eps, phi = tables
    img = (f if op == "f" else e)[i]
    d = phi[i][x] - eps[i][y]
    if d > 0 or (d == 0 and op == "e"):
        t = img[x]
        return None if t < 0 else (t, y)
    t = img[y]
    return None if t < 0 else (x, t)


def _greedy(tables, pair):
    """Raise pair by e_1 or e_2 until neither is defined.

    In a crystal each step moves one factor strictly in weight, so the walk
    ends within 2|B| steps; one that does not is a fault of the tables.
    """
    limit = 2 * len(tables[0][0])
    for _ in range(limit):
        for i in (1, 2):
            nxt = _pair_step(tables, "e", i, *pair)
            if nxt is not None:
                pair = nxt
                break
        else:
            return pair
    raise ConstructionFault(f"e_1/e_2 walk from {pair} does not end in {limit} steps")


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
    tables = _index_tables(bl)
    _, _, eps, phi = tables
    n = len(bl.elements)
    tops = [x for x in range(n) if eps[1][x] == 0 and eps[2][x] == 0]
    highest = [(x, y) for x in tops for y in range(n)
               if eps[1][y] <= phi[1][x] and eps[2][y] <= phi[2][x]]
    comp = {h: c for c, h in enumerate(highest)}
    joins = {}  # highest -> the highest element its e_0 probe raises to
    size = escaped = 0
    for h in highest:
        x, y = h
        size += weyl_dim(phi[2][x] - eps[2][x] + phi[2][y] - eps[2][y],
                          phi[1][x] - eps[1][x] + phi[1][y] - eps[1][y])
        img = _pair_step(tables, "e", 0, *h)
        if img is None:
            continue
        top = _greedy(tables, img)
        if top in comp:
            joins[h] = top
        else:
            escaped += 1
    roots = len(_components(highest, comp, [joins])) + escaped
    return len(highest), roots, size


def _square_connected(bl) -> tuple[int, int]:
    """(states reached from () (x) (), all states) of the tensor square x (x) y.

    The flat BFS over all |B^l|^2 states: the reference for
    ``_square_components``, for tests only.
    """
    tables = _index_tables(bl)
    n = len(bl.elements)
    start = bl.index[()]
    seen = bytearray(n * n)
    seen[start * n + start] = 1
    frontier = deque([(start, start)])
    count = 1
    while frontier:
        pair = frontier.popleft()
        for i in (0, 1, 2):
            for op in ("f", "e"):
                nxt = _pair_step(tables, op, i, *pair)
                if nxt is None:
                    continue
                code = nxt[0] * n + nxt[1]
                if not seen[code]:
                    seen[code] = 1
                    count += 1
                    frontier.append(nxt)
    return count, n * n


def check_perfect(l: int) -> PerfectReport:
    bl = bl_crystal(l)
    rep = PerfectReport(level=l)

    rep.cond_self_connected = _self_connected(bl)
    rep.square_components, rep.square_roots, rep.square_size = _square_components(bl)
    rep.cond_connected_square = (rep.square_roots == 1
                                 and rep.square_size == len(bl.elements) ** 2)

    # one pass over B^l's tables: the weights phi - eps, the level bound and
    # the minimal elements
    weights: Counter[ClassicalWeight] = Counter()
    rep.cond_level_bound = True
    for w, e, p in _eps_phi(bl):
        weights[p - e] += 1
        lev = level(e)
        rep.cond_level_bound &= lev >= l
        if lev == l:
            rep.minimal.append((w, e, p))

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
    rep.cond_eps_phi_bijective = (
        len(rep.minimal) == len(dom)
        and eps_img == dom
        and phi_img == dom
        and len(eps_img) == len(rep.minimal)
        and len(phi_img) == len(rep.minimal)
    )
    return rep


def _in_cone(d: ClassicalWeight) -> bool:
    """d = x*cl(alpha_1) + y*cl(alpha_2) for some integers x, y >= 0.

    cl(alpha_1) = (-1, 2, -3) and cl(alpha_2) = (0, -1, 2) have determinant
    1 in (m1, m2), so x = 2*m1 + m2 and y = 3*m1 + 2*m2, and m0 must be -x.
    """
    x, y = 2 * d.m1 + d.m2, 3 * d.m1 + 2 * d.m2
    return x >= 0 and y >= 0 and d.m0 == -x
