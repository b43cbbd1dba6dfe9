"""Independent reference computations the tests compare the library against.

No routine here has a caller in the package: each checks a rule or a fast
path of the package by a longer route, often through other parts of it.
"""

from __future__ import annotations

import itertools
from typing import Literal, Sequence

from torusgit.errors import InputError
from torusgit.lattice import (
    IntMatrix,
    cone_has_point_with,
    dot,
    kernel_basis,
    primitive,
    rank,
)
from torusgit.quasimap import SEMISTABLE, _binary_form_multiplicities
from torusgit.rees import EBPresentation, MonomialWeightedCenter
from torusgit.torus import (
    Support,
    TorusAction,
    cone_over_projective,
    is_semistable,
    is_stable,
    limit_cone,
)


def hm_pairing(action: TorusAction, chi: Sequence[int], lam: Sequence[int]) -> int:
    """mu^chi(lambda) = -<lambda, chi>."""
    if len(chi) != action.rank or len(lam) != action.rank:
        raise InputError("character/cocharacter length does not match the rank")
    return -dot(lam, chi)


def two_step_semistable(
    action: TorusAction, chi_l: Sequence[int], chi_m: Sequence[int], s: Support
) -> bool:
    """Membership in the two-step locus: semistable for chi_l, and every
    lambda in the limit cone with <lambda, chi_l> = 0 has <lambda, chi_m> <= 0.

    This is the support-level shadow of taking the chi_m-semistable locus
    relative to the good moduli space of the chi_l-semistable locus; it is
    the brute-force oracle against which the m0 bound is validated.
    """
    if not is_semistable(action, chi_l, s):
        return False
    rows = limit_cone(action, s) + (tuple(chi_l), tuple(-x for x in chi_l))
    return not cone_has_point_with(rows, chi_m)


def cone_nonzero_point_snf(rows: Sequence[Sequence[int]], dim: int) -> tuple[int, ...] | None:
    """``lattice.cone_nonzero_point`` with every kernel, the lineality space
    and each candidate ray alike, taken from a Smith normal form."""
    if dim == 0:
        return None
    normals = [primitive(m) for m in rows]
    normals = [m for m in normals if any(e != 0 for e in m)]
    if not normals:
        return tuple(1 if i == 0 else 0 for i in range(dim))

    def in_cone(x: Sequence[int]) -> bool:
        return all(dot(x, m) >= 0 for m in normals)

    lin = kernel_basis(IntMatrix.from_rows([list(m) for m in normals], dim))
    if lin:
        return primitive(lin[0])
    seen: set[tuple[int, ...]] = set()
    for subset in itertools.combinations(range(len(normals)), dim - 1):
        mat = IntMatrix.from_rows([list(normals[i]) for i in subset], dim)
        basis = kernel_basis(mat)
        if len(basis) != 1:
            continue
        v = primitive(basis[0])
        if v in seen:
            continue
        seen.add(v)
        if in_cone(v):
            return v
        w = tuple(-e for e in v)
        if in_cone(w):
            return w
    return None


def greedy_orbit_directions(action: TorusAction, s: Support) -> list[int]:
    """The default orbit directions of ``luna.slice_at_fixed_point``: the
    coordinates of s, in order, whose character is independent of the
    characters taken before it, by one rank per coordinate."""
    moved: list[int] = []
    taken: list[list[int]] = []
    for j in sorted(s):
        cand = taken + [list(action.character(j))]
        if rank(IntMatrix.from_rows(cand, action.rank)) == len(cand):
            taken = cand
            moved.append(j)
    return moved


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


def _iter_exponents_exact(n_vars: int, total: int):
    if n_vars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _iter_exponents_exact(n_vars - 1, total - head):
            yield (head,) + tail


def monomials_up_to_degree(n_vars: int, bound: int) -> list[tuple[int, ...]]:
    """Every exponent vector of total degree <= bound, by degree and then
    lexicographically."""
    if n_vars == 0:
        return [()]
    out = []
    for total in range(bound + 1):
        out.extend(_iter_exponents_exact(n_vars, total))
    return out


def hilbert_basis_by_enumeration(weights: IntMatrix, degree_bound: int) -> list[tuple[int, ...]]:
    """``lattice.hilbert_basis_bounded`` by listing every monomial up to the
    bound: a nonzero solution is kept iff it dominates no other one."""
    zero = tuple(0 for _ in range(weights.rows))
    sols = [a for a in monomials_up_to_degree(weights.cols, degree_bound)
            if any(e != 0 for e in a) and weights.mul_vec(a) == zero]
    return [a for a in sols
            if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in sols)]


def good_moduli_space_by_monomials(eb: EBPresentation, theta: Sequence[int]) -> str:
    """The detail of ``verify_tower``'s good_moduli_space row, by monomials of
    total degree <= 6: pi_* theta^n = I_n for n <= max weight + 1, then the
    invariant monomials before and after the blow-up."""
    t_last = theta[-1]
    center = eb.center
    monos = monomials_up_to_degree(eb.original.dim, 6)
    for mono in monos:
        wdeg = center.weighted_degree(mono)
        for n in range(max(center.weights) + 2):
            # the lift X^alpha x^beta T^c has Rees degree wdeg - c
            if (wdeg + n * t_last >= 0) != (wdeg >= n):
                return f"pushforward of theta^{n} disagrees with I_{n} at monomial {mono}"
    orig, amb = eb.original, eb.ambient
    for mono in monos:
        lift = tuple(mono) + (center.weighted_degree(mono),)
        if (not any(orig.weights.mul_vec(mono))) != (not any(amb.weights.mul_vec(lift))):
            return f"invariant monomials differ at {mono}"
    return ""
