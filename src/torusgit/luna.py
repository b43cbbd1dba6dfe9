"""Luna slices at torus fixed points, and the plane-cubics slice.

At a point fixed by a subtorus, the tangent space splits as the tangent
space of the orbit plus a normal complement, and the slice is the
stabilizer representation on that complement.  At the combinatorial
level this is multiset arithmetic on weights: restrict every tangent
weight to the stabilizer subtorus and remove the weights of the orbit
directions.

The plane-cubics instance is hard-coded from the geometry: the space of
cubic forms in x0, x1, x2 carries the 10 degree-3 monomial weights of
the torus G_m^3, the fixed point is x0 x1 x2, the orbit directions in
its tangent chart are the six mixed monomials (the root directions of
the full automorphism group), and the slice that remains is spanned by
the three cube directions, on which G_m^3 acts through the columns
(2,-1,-1), (-1,2,-1), (-1,-1,2) with the coordinate permutations as a
finite part.  ``cubics_example`` packages the slice together with its
extended blow-up, the stabilizer certificate of the distinguished
boundary point, the invariant-monomial certificate and the verified
one-step desingularization tower.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ._record import record
from .errors import InputError, InternalError
from .lattice import IntMatrix, echelon_basis, hilbert_basis_bounded, kernel_basis
from .desing import DesingTower, desingularize, verify_tower
from .rees import EBPresentation, MonomialWeightedCenter, extended_weighted_blowup
from .torus import (
    DiagonalizableGroup,
    Effectivization,
    FinitePartElement,
    Support,
    TorusAction,
    effectivize,
    stabilizer,
)

INVARIANT_DEGREE_BOUND = 6  # total degree of the Hilbert basis ``cubics_example`` certifies


def slice_at_fixed_point(
    action: TorusAction,
    s: Support,
    orbit_directions: Sequence[int] | None = None,
) -> TorusAction:
    """Stabilizer action on the normal complement of the orbit at a fixed point.

    The stabilizer of a point with support s is the subtorus annihilating
    the support characters; its cocharacter lattice is the saturated
    kernel K of the pairing with those characters, and every ambient
    weight restricts to the stabilizer as K^T chi.  The orbit directions
    default to the torus orbit itself (rank(W_s) many coordinates of s,
    all of restricted weight zero); for points whose orbit under a larger
    group is known, pass the orbit's coordinate directions explicitly, as
    done for the cubics instance.
    """
    action.check_support(s)
    cols = sorted(s)
    support_rows = [list(action.character(j)) for j in cols]
    basis = kernel_basis(IntMatrix.from_rows(support_rows, action.rank))
    stab_dim = len(basis)
    if stab_dim == 0:
        raise InputError("the point is not fixed by a positive-dimensional subtorus")
    kt = IntMatrix.from_rows([list(b) for b in basis], action.rank)  # stab_dim x rank
    restricted = [kt.mul_vec(action.character(j)) for j in range(action.dim)]

    if orbit_directions is None:
        # the torus orbit moves along independent support directions, all of
        # stabilizer weight zero; drop the lexicographically first such set,
        # the pivot columns of W_s
        w_s = action.weights.submatrix_cols(cols).entries
        orbit_directions = [cols[next(j for j, x in enumerate(row) if x)]
                            for row in echelon_basis(w_s, len(cols))]
    orbit = sorted(orbit_directions)
    if any(j < 0 or j >= action.dim for j in orbit) or len(set(orbit)) != len(orbit):
        raise InputError("orbit directions out of range or repeated")

    remaining = [j for j in range(action.dim) if j not in orbit]
    slice_weights = IntMatrix.from_rows(
        [[restricted[j][i] for j in remaining] for i in range(stab_dim)], len(remaining)
    )
    return TorusAction(stab_dim, slice_weights)


# ---------------------------------------------------------------------------
# The plane-cubics instance
# ---------------------------------------------------------------------------


def cubic_forms_ambient() -> tuple[TorusAction, int, tuple[int, ...]]:
    """The 10 degree-3 monomials under G_m^3: the action, the index of
    x0 x1 x2, and the indices of the six mixed monomials (orbit chart
    directions at the triangle cubic)."""
    monomials = sorted(
        ((i, j, 3 - i - j) for i in range(4) for j in range(4 - i)), reverse=True
    )
    weights = IntMatrix.from_rows([[m[i] for m in monomials] for i in range(3)],
                                  len(monomials))
    action = TorusAction(3, weights)
    fixed = monomials.index((1, 1, 1))
    mixed = tuple(k for k, m in enumerate(monomials) if sorted(m) == [0, 1, 2])
    return action, fixed, mixed


def cubics_chart_action() -> tuple[TorusAction, tuple[int, ...]]:
    """Tangent chart of the cubic-forms projective space at x0 x1 x2:
    nine coordinates with weights shifted by the weight of the fixed
    monomial, and the six orbit directions."""
    ambient, fixed, mixed = cubic_forms_ambient()
    idx = [j for j in range(ambient.dim) if j != fixed]
    shift = ambient.character(fixed)
    rows = [[ambient.character(j)[i] - shift[i] for j in idx] for i in range(3)]
    orbit = tuple(idx.index(j) for j in mixed)
    return TorusAction(3, IntMatrix.from_rows(rows, len(idx))), orbit


def _permutation_finite_part(rank3: int = 3) -> tuple[FinitePartElement, ...]:
    out = []
    for perm in itertools.permutations(range(rank3)):
        if perm == tuple(range(rank3)):
            continue
        aut = IntMatrix.from_rows(
            [[1 if i == perm[j] else 0 for j in range(rank3)] for i in range(rank3)], rank3
        )
        out.append(FinitePartElement(perm, aut))
    return tuple(out)


def cubics_slice() -> TorusAction:
    """The rank-3 presentation of the Luna slice at x0 x1 x2: columns
    (2,-1,-1), (-1,2,-1), (-1,-1,2) with the coordinate permutations as
    finite part (the symmetric group of the three nodes)."""
    chart, orbit = cubics_chart_action()
    bare = slice_at_fixed_point(chart, frozenset(), orbit)
    expected = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    if tuple(bare.weights.col(j) for j in range(3)) != expected:
        raise InternalError("cubics slice weights came out in an unexpected order")
    return TorusAction(3, bare.weights, finite_part=_permutation_finite_part())


@record
class CubicsCertificate:
    """Every number the plane-cubics example pins down, recomputed on demand."""

    slice_rank3: TorusAction
    effectivization: Effectivization
    blowup: EBPresentation
    boundary_support: Support  # the X1, X2, X3 coordinates of the blow-up
    boundary_stabilizer: DiagonalizableGroup
    invariant_generators: tuple[tuple[int, ...], ...]  # Hilbert basis certificate
    tower: DesingTower
    tower_verified: bool


def cubics_example() -> CubicsCertificate:
    """Run the full plane-cubics pipeline and certify the expected output:
    invariant ring generated by x1 x2 x3, boundary stabilizer of dimension
    0 with invariant factors (3, 3) and permutation part of order 6, and a
    one-step tower whose final supports are all Deligne-Mumford."""
    slice3 = cubics_slice()
    eff = effectivize(slice3)
    center = MonomialWeightedCenter((0, 1, 2), (1, 1, 1))
    eb = extended_weighted_blowup(eff.action, center)
    boundary = frozenset({0, 1, 2})
    stab = stabilizer(eb.ambient, boundary)
    invariants = tuple(hilbert_basis_bounded(slice3.weights, INVARIANT_DEGREE_BOUND))
    tower = desingularize(eff.action, tuple(0 for _ in range(eff.action.rank)))
    report = verify_tower(tower)
    return CubicsCertificate(slice3, eff, eb, boundary, stab, invariants,
                             tower, report.ok)
