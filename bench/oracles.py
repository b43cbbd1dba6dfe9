"""Correctness oracles for the benchmark, computed apart from torusgit.

Nothing here imports the package under test: every check works on plain
integer lists and Python's ``fractions``, so a fault in torusgit's
lattice kernel cannot hide itself by agreeing with its own copy.

Supports are bitmasks over coordinate indices (bit j = coordinate j),
characters are integer tuples, and a weight matrix is given by its list
of columns (``chars[j]`` is the character scaling coordinate j).

Sign convention (the one torusgit pins): a support s is semistable for
chi iff no lambda with <lambda, chi_j> >= 0 for all j in s pairs
positively with chi.  By Farkas' lemma that holds iff -chi lies in the
cone spanned by the chi_j, j in s, and by Caratheodory iff -chi is a
non-negative combination of a linearly independent subset of at most
r of them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

Vector = Sequence[int]


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def _row_echelon(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of the first ``ncols`` columns; returns the
    reduced rows and the pivot column of each nonzero row."""
    a = [list(r) for r in rows]
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        piv = next((i for i in range(top, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = 1 / a[top][col]
        a[top] = [x * inv for x in a[top]]
        for i in range(len(a)):
            if i != top and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(col)
        top += 1
    return a, pivots


def rank_of(vectors: Sequence[Vector]) -> int:
    """Rank of a list of integer vectors, by Gauss-Jordan over Fractions."""
    if not vectors:
        return 0
    n = len(vectors[0])
    _, pivots = _row_echelon([[Fraction(e) for e in v] for v in vectors], n)
    return len(pivots)


def combination(columns: Sequence[Vector], target: Vector) -> list[Fraction] | None:
    """The coefficients c with sum c_k columns[k] = target, when the columns
    are linearly independent and target lies in their span; else None."""
    k = len(columns)
    r = len(target)
    aug = [[Fraction(columns[c][i]) for c in range(k)] + [Fraction(target[i])] for i in range(r)]
    red, pivots = _row_echelon(aug, k + 1)
    if pivots != list(range(k)):  # dependent columns, or target outside the span
        return None
    return [red[i][k] for i in range(k)]


# ---------------------------------------------------------------------------
# supports as bitmasks
# ---------------------------------------------------------------------------


def mask_of(support) -> int:
    out = 0
    for j in support:
        out |= 1 << j
    return out


def bits(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def upward_closed(masks: set[int], n: int) -> bool:
    """Every superset of a member is a member."""
    return all(m | (1 << j) in masks for m in masks for j in range(n))


def maximal(masks: set[int]) -> list[int]:
    """Members of a downward closed family with no member strictly above them."""
    return sorted(m for m in masks
                  if not any(o != m and o & m == m for o in masks))


# ---------------------------------------------------------------------------
# semistability by Farkas / Caratheodory
# ---------------------------------------------------------------------------


def cone_certificates(chars: Sequence[Vector], target: Vector) -> list[int]:
    """Masks B of linearly independent characters, |B| <= rank, with target a
    non-negative combination of the chi_j, j in B.  target lies in the cone of
    a set S of characters iff S contains one of these masks."""
    r = len(target)
    if all(e == 0 for e in target):
        return [0]
    out = []
    for size in range(1, r + 1):
        for subset in itertools.combinations(range(len(chars)), size):
            coeffs = combination([chars[j] for j in subset], target)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                out.append(mask_of(subset))
    return out


def supersets_of(certificates: Sequence[int], n: int) -> set[int]:
    """The upward closure in {0..n-1} of a list of masks."""
    full = 1 << n
    hit = bytearray(full)
    for c in certificates:
        hit[c] = 1
    for j in range(n):
        bit = 1 << j
        for m in range(full):
            if m & bit and hit[m ^ bit]:
                hit[m] = 1
    return {m for m in range(full) if hit[m]}


def semistable_masks(chars: Sequence[Vector], chi: Vector) -> set[int]:
    """Supports semistable for chi: those whose characters span a cone
    containing -chi."""
    neg = tuple(-e for e in chi)
    return supersets_of(cone_certificates(chars, neg), len(chars))


def orbit_changing(chars: Sequence[Vector], mask: int) -> bool:
    """Some lambda in the limit cone of the support pairs positively with a
    support character.  Otherwise the cone of the support characters is a
    linear space: every -chi_j, j in s, lies in it."""
    members = bits(mask)
    sub = [chars[j] for j in members]
    for j in members:
        neg = tuple(-e for e in chars[j])
        if not cone_certificates(sub, neg):
            return True
    return False


# ---------------------------------------------------------------------------
# walls and generic characters (psi = identity)
# ---------------------------------------------------------------------------


def is_generic(chars: Sequence[Vector], mu: Vector) -> bool:
    """mu lies on no hyperplane spanned by r - 1 independent characters (for
    r = 1, the empty set spans the hyperplane {0})."""
    r = len(mu)
    for subset in itertools.combinations(range(len(chars)), r - 1):
        rows = [tuple(chars[j]) for j in subset]
        if rank_of(rows) == r - 1 and rank_of(rows + [tuple(mu)]) < r:
            return False
    return True


def candidates(rank: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors by increasing height (max absolute entry), and within
    a height lexicographically with coordinate order 0, 1, -1, 2, -2, ..."""
    order = [0]
    for h in range(1, bound + 1):
        order.extend((h, -h))
    for h in range(bound + 1):
        for v in itertools.product(order[: 2 * h + 1], repeat=rank):
            if max((abs(e) for e in v), default=0) == h:
                yield v


def first_generic(chars: Sequence[Vector], rank: int, bound: int) -> tuple[int, ...] | None:
    return next((mu for mu in candidates(rank, bound) if is_generic(chars, mu)), None)


def wall_normals_rank2(chars: Sequence[Vector]) -> set[tuple[int, ...]]:
    """For rank 2, the lines spanned by the nonzero characters, as primitive
    normals whose first nonzero entry is positive."""
    out = set()
    for a, b in chars:
        if (a, b) == (0, 0):
            continue
        g = math.gcd(a, b)
        nu = (-b // g, a // g)
        out.add(nu if next(e for e in nu if e != 0) > 0 else (-nu[0], -nu[1]))
    return out


# ---------------------------------------------------------------------------
# normalized Hilbert-Mumford values, compared exactly
# ---------------------------------------------------------------------------


def quad(q: Sequence[Vector], v: Vector) -> int:
    return sum(v[i] * q[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


def dot(u: Vector, v: Vector) -> int:
    return sum(a * b for a, b in zip(u, v))


def hm_value(chi: Vector, lam: Vector, q: Sequence[Vector]) -> tuple[int, Fraction]:
    """mu^chi(lambda)/|lambda|_Q = -<lambda, chi>/sqrt(lambda^T Q lambda) as
    (sign, square)."""
    t = dot(lam, chi)
    sign = (t < 0) - (t > 0)
    return sign, Fraction(t * t, quad(q, lam))


def less(a: tuple[int, Fraction], b: tuple[int, Fraction]) -> bool:
    """a < b for signed square roots a = sa*sqrt(A), b = sb*sqrt(B)."""
    (sa, qa), (sb, qb) = a, b
    if sa != sb:
        return sa < sb
    return qa < qb if sa >= 0 else qa > qb


def in_limit_cone(chars: Sequence[Vector], mask: int, lam: Vector) -> bool:
    return all(dot(lam, chars[j]) >= 0 for j in bits(mask))


def check_hm_minimum(chars: Sequence[Vector], q: Sequence[Vector], chi: Vector, mask: int,
                     value: tuple[int, Fraction], minimizer: Vector, box: int) -> str:
    """Empty when the reported minimum over the limit cone of ``mask`` is
    attained by its minimizer and no integer lambda in [-box, box]^r inside
    the cone has a smaller value; else a description of the fault."""
    if all(e == 0 for e in minimizer):
        return "zero minimizer"
    if not in_limit_cone(chars, mask, minimizer):
        return f"minimizer {tuple(minimizer)} outside the limit cone of {bits(mask)}"
    if hm_value(chi, minimizer, q) != value:
        return f"value {value} is not attained by the minimizer {tuple(minimizer)}"
    for lam in itertools.product(range(-box, box + 1), repeat=len(chi)):
        if any(lam) and in_limit_cone(chars, mask, lam) and less(hm_value(chi, lam, q), value):
            return f"lambda {lam} beats the reported minimum on {bits(mask)}"
    return ""


def sup_closed_form(q: Sequence[Vector], chi_m: Vector) -> tuple[int, Fraction]:
    """The largest normalized value of <lambda, chi_M> over all nonzero
    lambda, sqrt(chi_M^T Q^-1 chi_M); it is e whenever the empty support is
    unstable, since limit cones shrink as supports grow."""
    if not any(chi_m):
        return 0, Fraction(0)
    y = combination(q, chi_m)  # Q is symmetric, so its rows are its columns
    return 1, sum((c * yi for c, yi in zip(chi_m, y)), Fraction(0))


def least_m0(m0: int, d: tuple[int, Fraction], e: tuple[int, Fraction]) -> bool:
    """m0 is the least positive integer with m0*d + e < 0, for d < 0."""
    def negative(m: int) -> bool:  # m*d + e < 0 with d = -sqrt(D)
        se, qe = e
        return se <= 0 or qe < m * m * d[1]
    if d[0] >= 0 or m0 < 1:
        return False
    return negative(m0) and (m0 == 1 or not negative(m0 - 1))
