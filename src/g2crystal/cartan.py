"""Cartan data and classical weight lattice for affine G2.

Index order is (0, 1, 2) throughout.  Classical weights are stored in the
fundamental-weight basis (Lambda_0, Lambda_1, Lambda_2); the delta-component
of an affine weight is never tracked.
"""

from __future__ import annotations

from collections import namedtuple

# Rows <h_i, alpha_j> for i, j in {0, 1, 2}.
CARTAN_MATRIX = (
    (2, -1, 0),
    (-1, 2, -1),
    (0, -3, 2),
)

# (alpha_i, alpha_i) for i in {0, 1, 2}: alpha_0, alpha_1 long, alpha_2 short.
ROOT_NORMS = (3, 3, 1)


class ClassicalWeight(namedtuple("ClassicalWeight", "m0 m1 m2")):
    """Element m0*Lambda_0 + m1*Lambda_1 + m2*Lambda_2 of the classical lattice.

    A named tuple: it hashes, compares and sorts as its field tuple, and adds
    and negates as a weight, not as a sequence.
    """

    __slots__ = ()

    def wt(self, i: int) -> int:
        return self[i]

    def __add__(self, other: "ClassicalWeight") -> "ClassicalWeight":
        return ClassicalWeight(self.m0 + other.m0, self.m1 + other.m1, self.m2 + other.m2)

    def __sub__(self, other: "ClassicalWeight") -> "ClassicalWeight":
        return ClassicalWeight(self.m0 - other.m0, self.m1 - other.m1, self.m2 - other.m2)

    def __neg__(self) -> "ClassicalWeight":
        return ClassicalWeight(-self.m0, -self.m1, -self.m2)


def weyl_dim(a: int, b: int) -> int:
    """Dimension of the G2 module of highest weight a*Lambda_2 + b*Lambda_1."""
    return ((a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3) * (a + 3 * b + 4)
            * (2 * a + 3 * b + 5)) // 120


def simple_root(j: int) -> ClassicalWeight:
    """cl(alpha_j): the j-th column of the Cartan matrix in the Lambda-basis."""
    return ClassicalWeight(*(CARTAN_MATRIX[i][j] for i in range(3)))


def from_classical_pair(m1: int, m2: int) -> ClassicalWeight:
    """Lift a G2 weight m1*Lambda_1 + m2*Lambda_2 to the level-zero classical weight."""
    return ClassicalWeight(-2 * m1 - m2, m1, m2)


def dominant_weights(l: int) -> set[ClassicalWeight]:
    """All dominant classical weights of level l."""
    if l < 0:
        raise ValueError("level must be nonnegative")
    out = set()
    for m1 in range(l // 2 + 1):
        for m2 in range(l - 2 * m1 + 1):
            out.add(ClassicalWeight(l - 2 * m1 - m2, m1, m2))
    return out
