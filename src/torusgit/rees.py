"""Extended weighted blow-ups of torus quotients at monomial centers.

A monomial weighted center on [A^N / T] is a nonempty subset Z of the
coordinates with positive integer weights a_j.  It induces the weighted
ideal sequence I_n = (monomials in the x_j, j in Z, of weighted degree
>= n), with I_n = (1) for n <= 0.  The two-sided Rees algebra
(+)_n I_n is a polynomial ring on generators X_j (degree a_j), the
untouched coordinates x_k (degree 0) and T (degree -1), subject to
x_j = X_j T^{a_j}; its G_m-quotient is the extended weighted blow-up.

The presentation built here keeps coordinate j of the ambient A^{N+1} in
the slot of the original coordinate x_j (so X_j sits at index j) and
appends T as the last coordinate.  The Rees G_m contributes one extra
torus factor, so the ambient carries a rank-(r+1) action with columns
(chi_j, a_j) for j in Z, (chi_k, 0) for k not in Z, and (0, -1) for T.
theta is the distinguished character t -> t^{-1} of the Rees factor.
"""

from __future__ import annotations

from typing import Sequence

from ._record import record
from .errors import DEFAULT_MAX_SUPPORTS, InputError, guard_supports
from .torus import Support, TorusAction, semistable_supports


@record
class MonomialWeightedCenter:
    coords: tuple[int, ...]  # 0-based, strictly increasing, nonempty
    weights: tuple[int, ...]  # aligned with coords, all >= 1

    def __post_init__(self) -> None:
        if not self.coords:
            raise InputError("a monomial center needs at least one coordinate")
        if list(self.coords) != sorted(set(self.coords)):
            raise InputError("center coordinates must be strictly increasing")
        if len(self.weights) != len(self.coords) or any(a < 1 for a in self.weights):
            raise InputError("center weights must be positive and aligned with coords")

    def weight_of(self, j: int) -> int:
        return self.weights[self.coords.index(j)]

    def weighted_degree(self, exponents: Sequence[int]) -> int:
        """Weighted degree of a monomial on the center coordinates."""
        return sum(self.weight_of(j) * exponents[j] for j in self.coords)


@record
class EBPresentation:
    """Graded presentation of an extended weighted blow-up."""

    original: TorusAction
    center: MonomialWeightedCenter
    ambient: TorusAction  # rank r+1 on A^{N+1}; coordinate N is T
    theta: tuple[int, ...]  # (0, ..., 0, -1)
    exceptional_index: int  # index of T in the ambient, = original.dim
    substitution: tuple[int, ...]  # substitution[j] = Rees power a_j (0 off the center)

    def section_support(self, s: Support) -> Support:
        """Image of an original support under the T = 1 section."""
        return frozenset(s) | {self.exceptional_index}

    def section_of_monomial(self, ambient_monomial: Sequence[int]) -> tuple[int, ...]:
        """Restrict an ambient monomial to the T = 1 section (drop T)."""
        return tuple(ambient_monomial[: self.exceptional_index])

    def rees_degree(self, ambient_monomial: Sequence[int]) -> int:
        return self.ambient.weights.mul_vec(list(ambient_monomial))[-1]


def extended_weighted_blowup(action: TorusAction, center: MonomialWeightedCenter) -> EBPresentation:
    """Build the rank-(r+1) presentation described in the module docstring.

    The finite part of the action must preserve the center: sigma(Z) = Z
    with matching weights; it then extends to the ambient by fixing T.
    """
    n = action.dim
    if any(j < 0 or j >= n for j in center.coords):
        raise InputError("center coordinates out of range")
    zset = set(center.coords)
    for el in action.finite_part:
        image = {el.perm[j] for j in center.coords}
        if image != zset:
            raise InputError("finite part does not preserve the center coordinates")
        for j in center.coords:
            if center.weight_of(el.perm[j]) != center.weight_of(j):
                raise InputError("finite part does not preserve the center weights")

    substitution = tuple(center.weight_of(j) if j in zset else 0 for j in range(n))
    ambient = action.with_factor(substitution, t_weight=-1)
    theta = tuple(0 for _ in range(action.rank)) + (-1,)
    return EBPresentation(action, center, ambient, theta, n, substitution)


def weighted_blowup_locus(eb: EBPresentation, max_supports: int = DEFAULT_MAX_SUPPORTS) -> list[Support]:
    """Supports semistable for theta relative to the original quotient:
    exactly those meeting the center coordinates {X_j}.  The only relevant
    destabilizer over the base is the Rees cocharacter (0, ..., 0, -1),
    whose limit fails to exist precisely when some X_j is present."""
    guard_supports(eb.ambient.dim, max_supports)
    zset = set(eb.center.coords)
    return [s for s in eb.ambient.all_supports() if s & zset]


def saturated_locus(eb: EBPresentation, max_supports: int = DEFAULT_MAX_SUPPORTS) -> list[Support]:
    """Supports semistable for theta relative to the good moduli space:
    no lambda in the full rank-(r+1) limit cone with negative T-component.
    Always contained in the weighted blow-up locus, with equality when the
    original torus is trivial."""
    guard_supports(eb.ambient.dim, max_supports)
    return semistable_supports(eb.ambient, eb.theta)


@record
class ExceptionalDivisor:
    """The Cartier divisor V(T): supports on it are those omitting T."""

    exceptional_index: int
    on_divisor: tuple[Support, ...]
    blowup_intersection: tuple[Support, ...]  # closure of the usual exceptional divisor

    def contains(self, s: Support) -> bool:
        return self.exceptional_index not in s


def exceptional_divisor(eb: EBPresentation, max_supports: int = DEFAULT_MAX_SUPPORTS) -> ExceptionalDivisor:
    guard_supports(eb.ambient.dim, max_supports)
    t = eb.exceptional_index
    zset = set(eb.center.coords)
    on_div = [s for s in eb.ambient.all_supports() if t not in s]
    inter = [s for s in on_div if s & zset]
    return ExceptionalDivisor(t, tuple(on_div), tuple(inter))


# ---------------------------------------------------------------------------
# Structural checks on the graded presentation
# ---------------------------------------------------------------------------


def check_presentation(eb: EBPresentation) -> list[str]:
    """Structural round-trip checks; returns a list of failure descriptions.

    Verifies that the substitution x_j -> X_j T^{a_j} composed with the
    T = 1 section is the identity on coordinates, and that the ambient
    weight columns are exactly (chi_j, a_j), (chi_k, 0) and (0, -1).
    """
    failures = []
    a = eb.original
    amb = eb.ambient
    n = a.dim
    if amb.dim != n + 1 or amb.rank != a.rank + 1:
        failures.append("ambient dimensions do not extend the original by one")
        return failures
    if eb.exceptional_index != n:
        failures.append("exceptional coordinate is not the appended one")
    zset = set(eb.center.coords)
    for j in range(n):
        expected_rees = eb.center.weight_of(j) if j in zset else 0
        if eb.substitution[j] != expected_rees:
            failures.append(f"substitution table wrong at coordinate {j}")
        col = amb.character(j)
        if col[: a.rank] != a.character(j) or col[a.rank] != expected_rees:
            failures.append(f"ambient weight column wrong at coordinate {j}")
    t_col = amb.character(n)
    if t_col != tuple([0] * a.rank + [-1]):
        failures.append("T column is not (0, ..., 0, -1)")
    return failures
