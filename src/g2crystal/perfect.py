"""Perfectness checks for the level-l crystal.

Verifies the checkable perfectness conditions: connectedness of the tensor
square under all three colors, a unique element of the extremal weight,
the level bound on the raising distances, and the bijections from minimal
elements onto dominant weights of the level.  The module-theoretic
condition (existence of a module with crystal pseudo-base) is assumed from
the fusion construction and is not represented here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .affine import _components, bl_crystal
from .cartan import ClassicalWeight, dominant_weights, level, simple_root


@dataclass
class PerfectReport:
    level: int
    cond_connected_square: bool = False
    cond_unique_top_weight: bool = False
    cond_level_bound: bool = False
    cond_eps_phi_bijective: bool = False
    cond_self_connected: bool = False
    square_size: int = 0
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
            "top_weight": self.top_weight.to_json() if self.top_weight else None,
            "minimal_count": len(self.minimal),
        }


def eps_phi_total(l: int, word) -> tuple[ClassicalWeight, ClassicalWeight]:
    """Componentwise raising and lowering distances as classical weights."""
    bl = bl_crystal(l)
    w = tuple(word)
    return bl.eps_weight(w), bl.phi_weight(w)


def minimal_elements(l: int) -> list[tuple[int, ...]]:
    """Elements whose raising-distance weight has level exactly l."""
    bl = bl_crystal(l)
    return [w for w in bl.elements if level(bl.eps_weight(w)) == l]


def _self_connected(bl) -> bool:
    return len(_components(bl.elements, [bl._f[i] for i in (0, 1, 2)])) <= 1


def _square_connected(bl) -> tuple[int, int]:
    """(states reached from () (x) (), all states) of the tensor square x (x) y.

    The bracketing rule is inlined in its two-factor closed form, since a
    call per state is too slow here: f_i acts on x when phi_i(x) > eps_i(y),
    e_i when phi_i(x) >= eps_i(y), and on y otherwise.
    """
    n = len(bl.elements)
    idx = bl.index
    eps = bl._eps
    phi = bl._phi
    fmap = [[idx.get(bl.f(i, w)) if bl.f(i, w) is not None else None for w in bl.elements]
            for i in (0, 1, 2)]
    emap = [[idx.get(bl.e(i, w)) if bl.e(i, w) is not None else None for w in bl.elements]
            for i in (0, 1, 2)]

    start = idx[()] * n + idx[()]
    seen = bytearray(n * n)
    seen[start] = 1
    frontier = deque([start])
    count = 1
    while frontier:
        code = frontier.popleft()
        x, y = divmod(code, n)
        for i in (0, 1, 2):
            # lowering: left factor wins when phi(x) > eps(y)
            if phi[i][x] > eps[i][y]:
                fx = fmap[i][x]
                nxt = None if fx is None else fx * n + y
            else:
                fy = fmap[i][y]
                nxt = None if fy is None else x * n + fy
            if nxt is not None and not seen[nxt]:
                seen[nxt] = 1
                count += 1
                frontier.append(nxt)
            # raising: left factor wins when phi(x) >= eps(y)
            if phi[i][x] >= eps[i][y]:
                ex = emap[i][x]
                nxt = None if ex is None else ex * n + y
            else:
                ey = emap[i][y]
                nxt = None if ey is None else x * n + ey
            if nxt is not None and not seen[nxt]:
                seen[nxt] = 1
                count += 1
                frontier.append(nxt)
    return count, n * n


def check_perfect(l: int) -> PerfectReport:
    bl = bl_crystal(l)
    rep = PerfectReport(level=l)

    rep.cond_self_connected = _self_connected(bl)
    reached, rep.square_size = _square_connected(bl)
    rep.cond_connected_square = reached == rep.square_size

    # the extremal weight is discovered, not assumed: the unique weight from
    # which no other weight is reachable by adding a classical simple root
    # of a nonzero color
    weights = {}
    for w in bl.elements:
        weights.setdefault(bl.weight(w), []).append(w)
    shifts = [simple_root(1), simple_root(2)]
    tops = [wt for wt in weights if all(wt + s not in weights for s in shifts)]
    cone_ok = False
    if len(tops) == 1:
        lam0 = tops[0]
        rep.top_weight = lam0
        cone_ok = len(weights[lam0]) == 1 and _cone_check(weights, lam0)
    rep.cond_unique_top_weight = len(tops) == 1 and cone_ok

    # level bound and minimal-element bijections
    rep.cond_level_bound = all(level(bl.eps_weight(w)) >= l for w in bl.elements)
    minimal = minimal_elements(l)
    rep.minimal = [(w, bl.eps_weight(w), bl.phi_weight(w)) for w in minimal]
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


def _cone_check(weights, lam0) -> bool:
    """wt(B) lies in lam0 minus the nonnegative span of the nonzero colors."""
    a1, a2 = simple_root(1), simple_root(2)
    for wt in weights:
        d = lam0 - wt
        # solve d = x*cl(alpha_1) + y*cl(alpha_2) with x, y >= 0
        det = a1.m1 * a2.m2 - a2.m1 * a1.m2
        x = (d.m1 * a2.m2 - a2.m1 * d.m2)
        y = (a1.m1 * d.m2 - d.m1 * a1.m2)
        if det < 0:
            x, y, det = -x, -y, -det
        if x % det or y % det or x < 0 or y < 0:
            return False
        if d.m0 != (x // det) * a1.m0 + (y // det) * a2.m0:
            return False
    return True
