"""Wall and chamber analysis for torus linearizations.

For a rank-r action with weight columns chi_1, ..., chi_N and a reference
torus G_m^n mapping onto T with finite kernel, the forbidden locus in the
character space of G_m^n is the union of the pullbacks of the hyperplanes
of X(T)_Q spanned by rank-(r-1) subsets of the weight columns.  A
character off every wall has equal semistable and stable loci over all
supports (the wall set may be over-inclusive, and necessity is not
asserted).  ``verify_ss_equals_s`` certifies that equality without
scanning supports: it looks for -chi in the cone over a linearly
independent set of fewer than r weight columns, O(N^(r-1)) small exact
solves.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ._record import record
from .errors import ComputationDeclined, InputError
from .lattice import IntMatrix, dot, kernel_basis, primitive, rank, span_split
from .torus import Support, TorusAction


@record
class WallArrangement:
    """Finitely many linear hyperplanes in X(G_m^n)_Q, stored by their
    primitive integer normals, together with the pullback map psi."""

    ambient_rank: int
    walls: tuple[tuple[int, ...], ...]
    psi: IntMatrix  # r x n matrix of Psi: X(G_m^n)_Q -> X(T)_Q


def _canonical_normal(v: Sequence[int]) -> tuple[int, ...]:
    v = primitive(v)
    for e in v:
        if e != 0:
            return v if e > 0 else tuple(-x for x in v)
    return v


def compute_walls(action: TorusAction, psi: IntMatrix) -> WallArrangement:
    """Pull back the hyperplanes spanned by rank-(r-1) weight subsets.

    For r = 1 the empty subset spans {0}, whose pullback is the single
    hyperplane ker(Psi); duplicate walls are removed.
    """
    r = action.rank
    if psi.rows != r:
        raise InputError("psi must map onto the character space of the acting torus")
    if rank(psi) != r:
        raise InputError("psi must have full rank r (finite kernel)")
    n = psi.cols
    normals = set()
    for subset in itertools.combinations(range(action.dim), max(r - 1, 0)):
        mat = IntMatrix.from_rows([list(action.character(j)) for j in subset], r)
        basis = kernel_basis(mat)
        if len(basis) != 1:
            continue  # the subset does not span a hyperplane
        h = basis[0]
        nu = psi.transpose().mul_vec(h)
        if all(e == 0 for e in nu):
            raise InputError("psi is not injective on character spaces")
        normals.add(_canonical_normal(nu))
    return WallArrangement(n, tuple(sorted(normals)), psi)


def is_generic(arrangement: WallArrangement, mu: Sequence[int]) -> bool:
    """True iff mu lies on none of the walls (exact membership)."""
    if len(mu) != arrangement.ambient_rank:
        raise InputError("character length does not match the reference torus rank")
    return all(dot(nu, mu) != 0 for nu in arrangement.walls)


def _height_shells(n: int, bound: int):
    """Integer vectors of length n and height <= bound, in search order.

    Shell h holds the vectors of height (max absolute coordinate) exactly
    h, lexicographically with per-coordinate order 0, 1, -1, ..., h, -h.
    Shells are generated, never materialized or sorted.
    """
    if n == 0:
        yield ()
        return
    order = (0,)
    for h in range(bound + 1):
        if h:
            order += (h, -h)
        yield from _shell(n, h, order)


def _shell(n: int, h: int, order: tuple[int, ...]):
    """Vectors of length n over `order` with a coordinate of absolute value h."""
    for x in order:
        if abs(x) == h:
            for rest in itertools.product(order, repeat=n - 1):
                yield (x,) + rest
        elif n > 1:
            for rest in _shell(n - 1, h, order):
                yield (x,) + rest


def find_generic_character(arrangement: WallArrangement, height_bound: int) -> tuple[int, ...]:
    """Deterministic search for a generic character of height <= bound.

    Candidates are scanned by increasing height (max absolute coordinate)
    and, within a height, lexicographically with per-coordinate order
    0, 1, -1, 2, -2, ...; the first vector off every wall is returned.
    """
    if height_bound < 1:
        raise InputError("height_bound must be >= 1")
    n = arrangement.ambient_rank
    for mu in _height_shells(n, height_bound):
        if is_generic(arrangement, mu):
            return mu
    raise ComputationDeclined(
        f"no generic character of height <= {height_bound} "
        f"in rank {n} off {len(arrangement.walls)} walls"
    )


def pull_back(arrangement: WallArrangement, mu: Sequence[int]) -> tuple[int, ...]:
    """Psi(mu): the character of the acting torus induced by mu."""
    if len(mu) != arrangement.ambient_rank:
        raise InputError("character length does not match the reference torus rank")
    return arrangement.psi.mul_vec(mu)


def verify_ss_equals_s(
    action: TorusAction, mu_pulled: Sequence[int], max_dim: int = 20
) -> tuple[bool, Support | None]:
    """Check that every semistable support is stable.

    Returns (True, None), or (False, s) for the first semistable but not
    stable support s in ``support_key`` order (by size, then
    lexicographically).  No support is scanned; the check rests on this:

    * Farkas: s is semistable for chi iff -chi lies in the orbit cone
      K(s) = cone(chi_j : j in s), the dual of the limit cone of s.
    * Duality: s is stable iff -chi lies in the interior of K(s) in
      X(T)_Q; a K(s) spanning less than X(T)_Q has empty interior.
    * So a semistable, non-stable s has -chi in a face of K(s) of
      dimension < r.  By Caratheodory, -chi then lies in cone(B) for a
      linearly independent B inside s with |B| < r.
    * Such a B is itself semistable and not stable, since K(B) spans
      less than X(T)_Q, and ``support_key(B) <= support_key(s)``.

    Hence the first counterexample is the first independent B with
    |B| < r and -chi in cone(B).  Subsets B are scanned by size, then
    lexicographically; each needs one ``span_split`` of chi along B,
    O(N^(r-1)) exact solves in all.  B = {} covers chi = 0, and
    rank-deficient weights need no special case.
    """
    if action.dim > max_dim:
        raise ComputationDeclined(
            f"{action.dim} coordinates exceed the guard (max_dim={max_dim})"
        )
    chi = action.check_invariant_character(mu_pulled)
    eye = IntMatrix.identity(action.rank)  # the verdict does not depend on Q
    for size in range(action.rank):
        for b in itertools.combinations(range(action.dim), size):
            split = span_split([action.character(j) for j in b], chi, eye)
            if split is not None and not any(split[0]) and all(y <= 0 for y in split[1]):
                return False, frozenset(b)  # chi = sum y_j chi_j with every y_j <= 0
    return True, None
