"""Known answers the benchmark checks outputs against.

None of these is read from the program under test.  |B(n Lambda_1)| is the
Weyl dimension of the G2 module whose highest weight is n times the highest
root; |B^l| is their sum over n <= l; the tensor square of B^l has |B^l|^2
elements and is connected (perfectness in the sense of Kang, Kashiwara,
Misra, Miwa, Nakashima and Nakayashiki, Duke Math. J. 68, 1992); the
minimal elements of B^l are in bijection with the dominant weights
m0 Lambda_0 + m1 Lambda_1 + m2 Lambda_2 of level m0 + 2 m1 + m2 = l.  The
level-1 q-suite has eight singular vectors and fifteen fusion identities.

Keys are flat strings, so that a run can replace any one of them
(``run.py --expect KEY=VALUE``) to prove that a wrong answer is caught.
"""

from __future__ import annotations

TABLEAUX = (1, 14, 77, 273, 748, 1729, 3542)  # |B(n Lambda_1)|, n = 0..6
BL_SIZE = (1, 15, 92, 365, 1113, 2842, 6384)  # |B^l|, l = 0..6
MINIMAL = (1, 2, 4, 6, 9, 12, 16)  # minimal elements of B^l, l = 0..6
SQUARE_SIZE = {1: 225, 2: 8464, 3: 133225, 4: 1238769}  # |B^l (x) B^l|

KNOWN = {
    **{f"tableaux.{n}": v for n, v in enumerate(TABLEAUX)},
    **{f"bl_size.{l}": v for l, v in enumerate(BL_SIZE)},
    **{f"minimal.{l}": v for l, v in enumerate(MINIMAL)},
    **{f"square_size.{l}": v for l, v in SQUARE_SIZE.items()},
    "singular_vectors": 8,
    "fusion_items": 15,
}


def with_overrides(pairs) -> dict:
    """KNOWN with ``KEY=VALUE`` replacements; an unknown key is an error."""
    ans = dict(KNOWN)
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or key not in ans:
            raise ValueError(f"--expect takes KEY=VALUE for a known answer KEY, got {pair!r}")
        ans[key] = int(value)
    return ans
