"""Independent reference computations the tests compare the library against.

Neither routine has a caller in the package: each checks a closed-form rule
of the package by a longer route through other parts of it.
"""

from __future__ import annotations

from typing import Literal, Sequence

from torusgit.lattice import IntMatrix, monomials_up_to_degree
from torusgit.quasimap import SEMISTABLE, _binary_form_multiplicities
from torusgit.rees import MonomialWeightedCenter
from torusgit.torus import TorusAction, cone_over_projective, is_semistable, is_stable


def binary_forms_hm(multiplicities: Sequence[int], n: int,
                    mode: Literal["semistable", "stable_dm"]) -> bool:
    """Hilbert-Mumford route to ``quasimap.check_binary_forms``, through the
    affine cone.

    Every one-parameter subgroup of the automorphism group of P^1 is
    diagonal after placing two points (or fewer) of the divisor at 0 and
    infinity, so the configuration is (semi)stable iff, for every such
    placement, the cone point with the induced coefficient support is
    (semi)stable for the distinguished cone character.  The coefficient
    of x^k y^(2n-k) carries torus weight k - n, and a placement with
    multiplicity a at 0 and b at infinity leaves the coefficients
    a..2n-b generically nonzero.
    """
    mults = _binary_form_multiplicities(multiplicities, n)
    base = TorusAction(1, IntMatrix.from_rows([[k - n for k in range(2 * n + 1)]]))
    reduction = cone_over_projective(base, (0,), 1)
    placements = {(0, 0)}
    for i, a in enumerate(mults):
        placements.add((a, 0))
        for j, b in enumerate(mults):
            if i != j:
                placements.add((a, b))
    test = is_semistable if mode == SEMISTABLE else is_stable
    for a, b in sorted(placements):
        sup = frozenset(range(a, 2 * n - b + 1))
        if not test(reduction.action, reduction.character, sup):
            return False
    return True


def check_weighted_sequence(center: MonomialWeightedCenter, n_bound: int = 8,
                            total_degree_bound: int = 8) -> bool:
    """Sanity of the ideal sequence a monomial weighted center induces, on
    small degrees: I_n I_m is contained in I_{n+m} (multiplicativity) and
    each I_n is generated by the I_i with i <= max(a_j) (generation bound),
    checked on monomials of total degree <= the bound."""
    k = len(center.coords)
    d = max(center.weights)
    wts = center.weights

    def wdeg(alpha: Sequence[int]) -> int:
        return sum(a * e for a, e in zip(wts, alpha))

    monos = monomials_up_to_degree(k, total_degree_bound)

    def generated(alpha: tuple[int, ...], m: int) -> bool:
        # is alpha in the ideal spanned by products of I_i, i <= d, of total weight m?
        if m <= d:
            return wdeg(alpha) >= m
        return any(
            alpha[j] >= 1
            and generated(tuple(a - (1 if i == j else 0) for i, a in enumerate(alpha)),
                          m - wts[j])
            for j in range(k)
        )

    for n in range(1, n_bound + 1):
        in_n = [alpha for alpha in monos if wdeg(alpha) >= n]
        for alpha in in_n:
            for beta in monos:
                if wdeg(beta) >= 1 and sum(alpha) + sum(beta) <= total_degree_bound:
                    if wdeg(tuple(a + b for a, b in zip(alpha, beta))) < n + 1:
                        return False
            if not generated(alpha, n):
                return False
    return True
