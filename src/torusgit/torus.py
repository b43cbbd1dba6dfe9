"""Diagonal torus actions and Hilbert-Mumford (semi)stability.

A rank-r torus acts diagonally on A^N through an integer weight matrix W
whose j-th column is the character scaling the coordinate x_j.  The orbit
data of a point depends only on its *support* (the set of nonzero
coordinates), so every predicate here is a function of supports: the
one-parameter subgroups admitting a limit at a point of support s form
the rational cone {lambda : <lambda, chi_j> >= 0 for j in s}.

Sign convention, pinned once and validated by the wall/chamber test
suite: the Hilbert-Mumford pairing is mu^chi(lambda) = -<lambda, chi>,
and a support is semistable for chi iff no lambda in its limit cone has
<lambda, chi> > 0.  Equivalently, semistable iff mu^chi >= 0 on the
limit cone.  Do not "fix" apparent sign mismatches locally; rerun the
chamber suite instead.

Normalized Hilbert-Mumford minima are irrational in general (they are
square roots of rationals), so they are carried around exactly as
``SignedSquare`` values: a sign together with the square of the value.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from ._record import record
from .errors import ComputationDeclined, InputError, InternalError
from .lattice import (
    HM_FACE_CAP,
    IntMatrix,
    cone_has_point_with,
    cone_nonzero_point,
    det,
    dot,
    echelon_basis,
    is_positive_definite,
    kernel_basis,
    primitive,
    scale_to_integers,
    smith_normal_form,
    span_split,
    unimodular_inverse,
)

Support = frozenset  # subset of coordinate indices, 0-based
Character = tuple  # integer vector of length rank
Cocharacter = tuple


def support_key(s: Support) -> tuple[int, tuple[int, ...]]:
    """Deterministic sort key for supports: by size, then lexicographic."""
    t = tuple(sorted(s))
    return (len(t), t)


@record
class FinitePartElement:
    """A permutation of the coordinates together with the compatible
    unimodular automorphism of the character lattice: aut * chi_j = chi_{perm(j)}."""

    perm: tuple[int, ...]  # perm[j] = image of coordinate j, 0-based
    aut: IntMatrix

    def apply_support(self, s: Support) -> Support:
        return frozenset(self.perm[j] for j in s)


@record
class TorusAction:
    """Diagonal action of G_m^rank on A^dim, with an optional finite
    permutation part and a norm form on the cocharacter lattice."""

    rank: int
    weights: IntMatrix  # rank x dim, column j = character of x_j
    norm_form: IntMatrix = None  # type: ignore[assignment]
    finite_part: tuple[FinitePartElement, ...] = ()

    def __post_init__(self) -> None:
        if self.weights.rows != self.rank:
            raise InputError("weight matrix must have `rank` rows")
        q = self.norm_form
        if q is None:
            object.__setattr__(self, "norm_form", IntMatrix.identity(self.rank))
            q = self.norm_form
        if q.rows != self.rank or q.cols != self.rank:
            raise InputError("norm form must be rank x rank")
        if not q.is_symmetric():
            raise InputError("norm form must be symmetric")
        if not is_positive_definite(q):
            raise InputError("norm form must be positive definite")
        n = self.dim
        for el in self.finite_part:
            if sorted(el.perm) != list(range(n)):
                raise InputError("finite part permutation is not a permutation of the coordinates")
            if el.aut.rows != self.rank or el.aut.cols != self.rank:
                raise InputError("finite part automorphism has wrong size")
            if abs(det(el.aut)) != 1:
                raise InputError("finite part automorphism must be unimodular")
            for j in range(n):
                if el.aut.mul_vec(self.weights.col(j)) != self.weights.col(el.perm[j]):
                    raise InputError("finite part automorphism incompatible with the weights")
            if el.aut.transpose().mul(q).mul(el.aut).entries != q.entries:
                raise InputError("finite part automorphism does not preserve the norm form")

    @property
    def dim(self) -> int:
        return self.weights.cols

    def character(self, j: int) -> Character:
        return self.weights.col(j)

    def with_factor(self, row: Sequence[int], t_weight: int | None = None) -> "TorusAction":
        """This action times one more G_m factor, acting with weights ``row``.

        The norm form becomes Q (+) 1 and each finite-part automorphism
        aut (+) 1.  With ``t_weight`` a coordinate T is appended: weight 0
        on the old factors, ``t_weight`` on the new one, and fixed by every
        permutation.
        """
        r, t = self.rank, [] if t_weight is None else [t_weight]
        if len(row) != self.dim:
            raise InputError("factor weights must have one entry per coordinate")
        rows = [list(self.weights.row(i)) + [0] * len(t) for i in range(r)] + [list(row) + t]

        def plus_one(m: IntMatrix) -> IntMatrix:
            return IntMatrix.from_rows([list(m.row(i)) + [0] for i in range(r)] + [[0] * r + [1]])

        fixed = () if t_weight is None else (self.dim,)
        finite = tuple(FinitePartElement(tuple(el.perm) + fixed, plus_one(el.aut))
                       for el in self.finite_part)
        return TorusAction(r + 1, IntMatrix.from_rows(rows), plus_one(self.norm_form), finite)

    def check_support(self, s: Support) -> None:
        if any(j < 0 or j >= self.dim for j in s):
            raise InputError(f"support {sorted(s)} not contained in 0..{self.dim - 1}")

    def all_supports(self) -> list[Support]:
        """Every support, in ``support_key`` order (by size, then lexicographic)."""
        return [frozenset(c) for size in range(self.dim + 1)
                for c in itertools.combinations(range(self.dim), size)]

    def check_invariant_character(self, chi: Sequence[int]) -> tuple[int, ...]:
        chi = tuple(int(e) for e in chi)
        if len(chi) != self.rank:
            raise InputError("character length does not match the torus rank")
        for el in self.finite_part:
            if el.aut.mul_vec(chi) != chi:
                raise InputError("character is not invariant under the finite part")
        return chi

    def finite_group_elements(self) -> list[FinitePartElement]:
        """The group generated by the finite part, via closure under composition."""
        ident = FinitePartElement(tuple(range(self.dim)), IntMatrix.identity(self.rank))
        seen = {(ident.perm, ident.aut.entries): ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for g in frontier:
                for h in self.finite_part:
                    perm = tuple(h.perm[g.perm[j]] for j in range(self.dim))
                    aut = h.aut.mul(g.aut)
                    key = (perm, aut.entries)
                    if key not in seen:
                        el = FinitePartElement(perm, aut)
                        seen[key] = el
                        nxt.append(el)
            frontier = nxt
        return list(seen.values())


@record
class DiagonalizableGroup:
    """A stabilizer: torus of `dimension`, component group +(Z/d_i), and the
    order of the finite permutation part preserving the support."""

    dimension: int
    invariant_factors: tuple[int, ...]
    finite_part_order: int = 1

    @property
    def torus_component_order(self) -> int:
        return math.prod(self.invariant_factors)


# ---------------------------------------------------------------------------
# Limit cones and the basic predicates
# ---------------------------------------------------------------------------


def limit_cone(action: TorusAction, s: Support) -> tuple[Character, ...]:
    """The rows chi_j, j in s in order, of the cone of cocharacters lambda
    with a limit at a point of support s: {lambda : <lambda, chi_j> >= 0}."""
    action.check_support(s)
    return tuple(action.character(j) for j in sorted(s))


def is_semistable(action: TorusAction, chi: Sequence[int], s: Support) -> bool:
    """No destabilizing one-parameter subgroup: no lambda in the limit cone
    with <lambda, chi> > 0."""
    chi = action.check_invariant_character(chi)
    return not cone_has_point_with(limit_cone(action, s), chi)


def is_stable(action: TorusAction, chi: Sequence[int], s: Support) -> bool:
    """Every nonzero lambda in the limit cone has <lambda, chi> < 0."""
    chi = action.check_invariant_character(chi)
    return cone_nonzero_point(limit_cone(action, s) + (chi,), action.rank) is None


def semistable_supports(action: TorusAction, chi: Sequence[int]) -> list[Support]:
    """The semistable locus, in ``support_key`` order: the one scan behind
    every semistable locus of the package."""
    return [s for s in action.all_supports() if is_semistable(action, chi, s)]


# ---------------------------------------------------------------------------
# Exact normalized Hilbert-Mumford minima
# ---------------------------------------------------------------------------


@record
class SignedSquare:
    """The exact value sign * sqrt(square), with square a non-negative rational."""

    sign: int
    square: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise InputError("sign must be -1, 0 or 1")
        if self.square < 0 or (self.sign == 0) != (self.square == 0):
            raise InputError("inconsistent signed square")

    @staticmethod
    def zero() -> "SignedSquare":
        return SignedSquare(0, Fraction(0))

    def neg(self) -> "SignedSquare":
        return SignedSquare(-self.sign, self.square)

    def __lt__(self, other: "SignedSquare") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        if self.sign >= 0:
            return self.square < other.square
        return self.square > other.square

    def __le__(self, other: "SignedSquare") -> bool:
        return self == other or self < other


@record
class HmMinimum:
    value: SignedSquare
    minimizer: tuple[int, ...]


def normalized_hm_min(
    action: TorusAction, chi: Sequence[int], s: Support, *, _faces: dict | None = None
) -> HmMinimum | None:
    """Minimum of mu^chi(lambda)/|lambda|_Q over nonzero lambda in the limit cone.

    Returns None when the cone is {0} (no-destabilizer signal).  The
    minimization enumerates the faces of the cone: on the span of each
    face the critical directions of the linear functional restricted to
    the Q-unit sphere are the (exactly computable) Riesz vector of chi
    and its negative, and the minimum over the cone is attained at a
    feasible critical direction of the minimal face containing it.

    A face's critical directions and zero-face witness depend only on the
    span of its active set, and every nonzero span is cut out by a linearly
    independent active set of fewer than r coordinates.  So only those sets
    are visited: at most sum_{k<r} C(|s|, k) on every support, whatever its
    weights, and a support with more than ``HM_FACE_CAP`` is declined.

    The critical direction of a face depends only on (action, chi) and
    the active set, not on s, so callers evaluating many supports pass
    one ``_faces`` dict to share it (see ``_face_direction``).  That dict
    must be scoped to a single (action, chi) pair: reused for another
    action or character it returns the wrong directions.
    """
    chi = tuple(int(e) for e in chi)
    if len(chi) != action.rank:
        raise InputError("character length does not match the rank")
    cone_rows = limit_cone(action, s)
    n_faces = sum(math.comb(len(s), k) for k in range(action.rank))
    if n_faces > HM_FACE_CAP:
        raise ComputationDeclined(f"the Hilbert-Mumford minimum on {len(s)} coordinates would "
                                  f"visit {n_faces} faces, over the cap of {HM_FACE_CAP}")
    if _faces is None:
        _faces = {}

    def in_cone(v: Sequence[int]) -> bool:
        return all(dot(v, row) >= 0 for row in cone_rows)

    best: tuple[SignedSquare, tuple[int, ...]] | None = None

    def consider(value: SignedSquare, witness: tuple[int, ...]) -> None:
        nonlocal best
        witness = primitive(witness)
        if best is None or value < best[0] or (value == best[0] and witness < best[1]):
            best = (value, witness)

    for size in range(action.rank):
        for active in itertools.combinations(sorted(s), size):
            if active not in _faces:
                _faces[active] = _face_direction(action, chi, active)
            face = _faces[active]
            if face is None:  # a dependent active set
                continue
            v2, lam = face
            if v2 == 0:  # lam is the span's basis B; <m, By> = <B^T m, y>
                y = cone_nonzero_point([[dot(b, m) for b in lam] for m in cone_rows], len(lam))
                if y is not None:
                    w = tuple(sum(b[i] * yj for b, yj in zip(lam, y)) for i in range(action.rank))
                    consider(SignedSquare.zero(), w)
                continue
            if in_cone(lam):
                consider(SignedSquare(-1, v2), lam)
            neg = tuple(-e for e in lam)
            if in_cone(neg):
                consider(SignedSquare(1, v2), neg)

    if best is None:
        return None
    return HmMinimum(best[0], best[1])


def _face_direction(
    action: TorusAction, chi: tuple[int, ...], active: tuple[int, ...]
) -> tuple[Fraction, tuple] | None:
    """The critical direction of chi on the span {lambda : <lambda, chi_j> = 0, j in active}.

    Returns None when the active characters are linearly dependent or the
    span is {0}, (0, B) with B a basis of the span when chi vanishes on
    it, and otherwise (v2, lam): v2 > 0 the squared Q-dual norm of chi
    restricted to the span and lam the primitive Riesz direction, so that
    mu^chi/|.|_Q takes the values -sqrt(v2) at lam and +sqrt(v2) at -lam.
    lam and v2 = <chi, lam> come from one ``span_split``; B is the integer
    kernel of the echelon basis of the active characters, so B and the
    zero-face witness ``normalized_hm_min`` finds in it depend only on the span.
    """
    rows = [action.character(j) for j in active]
    if len(rows) >= action.rank:
        return None
    split = span_split(rows, chi, action.norm_form)
    if split is None:
        return None
    lam = split[0]
    if not any(lam):
        basis = kernel_basis(IntMatrix.from_rows(echelon_basis(rows, action.rank), action.rank))
        return (Fraction(0), tuple(basis))
    v2 = dot(chi, lam)
    if v2 <= 0:
        raise InternalError("Riesz norm of a nonzero restricted character must be positive")
    return (v2, scale_to_integers(lam))


def in_orbit_changing_locus(action: TorusAction, s: Support) -> bool:
    """Whether some limit actually changes the orbit: exists lambda in the
    limit cone with <lambda, chi_j> > 0 for some j in s.

    On the limit cone every <lambda, chi_j> is >= 0, so one of them is
    > 0 iff their sum is: one Fourier-Motzkin system with the strict row
    sum_{j in s} chi_j.  For the empty support that row is 0, and the
    answer is False.
    """
    cone = limit_cone(action, s)
    total = [sum(action.character(j)[i] for j in s) for i in range(action.rank)]
    return cone_has_point_with(cone, total)


def minimal_hm_values(action: TorusAction, chi: Sequence[int]) -> frozenset[SignedSquare]:
    """The finite set of normalized minima over all supports whose points
    admit an orbit-changing limit."""
    chi = tuple(int(e) for e in chi)
    values = set()
    faces: dict = {}  # shared face table for this (action, chi)
    for s in action.all_supports():
        if not in_orbit_changing_locus(action, s):
            continue
        res = normalized_hm_min(action, chi, s, _faces=faces)
        if res is None:
            raise InternalError("orbit-changing support with trivial limit cone")
        values.add(res.value)
    return frozenset(values)


# ---------------------------------------------------------------------------
# Combining linearizations: the m0 bound
# ---------------------------------------------------------------------------


@record
class CombinedLinearization:
    m0: int
    combined: tuple[int, ...]
    d: SignedSquare | None  # None when chi_L has no unstable support
    e: SignedSquare | None


def combine_linearizations(
    action: TorusAction, chi_l: Sequence[int], chi_m: Sequence[int]
) -> CombinedLinearization:
    """Smallest m0 > 0 with m0*d + e < 0 and the character m0*chi_l + chi_m.

    d is the largest normalized HM minimum of chi_l over the chi_l-unstable
    supports, e the largest normalized supremum of mu^{chi_m} over the same
    supports (computed as the negated minimum for -chi_m).  The maxima run
    over *all* unstable supports, not only those admitting orbit-changing
    limits: destabilizers within the stabilizer still rule out semistability
    for every large m, and restricting to orbit-changing supports makes the
    two-step property fail on degenerate weight matrices.

    Only two kinds of support are evaluated.  Proof: s <= t gives
    C(t) <= C(s) for the limit cones, so unstable supports are closed under
    subsets, minima over C(t) are >= those over C(s) and suprema are <=.
    Hence d is attained on an inclusion-maximal unstable support, and e on
    the empty support, which is unstable as soon as any support is and
    whose limit cone is the whole cocharacter space.
    """
    chi_l = action.check_invariant_character(chi_l)
    chi_m = action.check_invariant_character(chi_m)
    unstable = {s for s in action.all_supports() if not is_semistable(action, chi_l, s)}
    if not unstable:
        combined = tuple(a + b for a, b in zip(chi_l, chi_m))
        return CombinedLinearization(1, combined, None, None)

    d: SignedSquare | None = None
    faces: dict = {}  # shared face table for (action, chi_l)
    for s in sorted(unstable, key=support_key):
        if any(s | {j} in unstable for j in range(action.dim) if j not in s):
            continue  # not maximal
        res_l = normalized_hm_min(action, chi_l, s, _faces=faces)
        if res_l is None:
            raise InternalError("unstable support with trivial limit cone")
        if res_l.value.sign >= 0:
            raise InternalError("normalized minimum is non-negative on an unstable support")
        d = res_l.value if d is None or d < res_l.value else d
    res_m = normalized_hm_min(action, tuple(-x for x in chi_m), frozenset())
    if d is None or res_m is None:
        raise InternalError("unstable support with trivial limit cone")
    e = res_m.value.neg()

    if e.sign <= 0:
        m0 = 1
    else:
        # least m > 0 with m*d + e < 0, i.e. m^2 * d.square > e.square
        ratio = e.square / d.square
        m0 = math.isqrt(ratio.numerator // ratio.denominator)
        while Fraction(m0 * m0) * d.square <= e.square:
            m0 += 1
    combined = tuple(m0 * a + b for a, b in zip(chi_l, chi_m))
    return CombinedLinearization(m0, combined, d, e)


# ---------------------------------------------------------------------------
# Stabilizers and effectivization
# ---------------------------------------------------------------------------


def stabilizer(action: TorusAction, s: Support) -> DiagonalizableGroup:
    """Stabilizer of a point with support s, as Hom(X(T)/Lambda_s, G_m)
    where Lambda_s is generated by the support characters, plus the order
    of the finite-part subgroup fixing the support setwise."""
    action.check_support(s)
    snf = smith_normal_form(action.weights.submatrix_cols(sorted(s)))
    dim = action.rank - snf.rank
    factors = tuple(d for d in snf.diag if d > 1)
    order = sum(1 for g in action.finite_group_elements() if g.apply_support(s) == s)
    return DiagonalizableGroup(dim, factors, max(order, 1))


@record
class Effectivization:
    action: TorusAction
    quotiented_cocharacters: tuple[tuple[int, ...], ...]  # basis of the killed subtorus


def effectivize(action: TorusAction) -> Effectivization:
    """Re-express the action through the quotient by the kernel subtorus.

    The new weight matrix is U[:k] W for the Smith transform U of W, where
    k = rank(W); characters of the quotient torus are the saturation of the
    column span of W, and the returned action has the same semistability
    data support by support.
    """
    w = action.weights
    snf = smith_normal_form(w)
    k = snf.rank
    if k == action.rank:
        return Effectivization(action, tuple())
    killed = kernel_basis(w.transpose())
    u_top = IntMatrix.from_rows([snf.left.row(i) for i in range(k)], action.rank)
    new_w = u_top.mul(w)
    u_inv = unimodular_inverse(snf.left)
    basis = IntMatrix.from_rows([[u_inv.entries[i][j] for j in range(k)]
                                 for i in range(action.rank)], k)  # rank x k
    new_q = basis.transpose().mul(action.norm_form).mul(basis)
    new_fp = tuple(
        FinitePartElement(el.perm, u_top.mul(el.aut).mul(basis))
        for el in action.finite_part
    )
    eff = TorusAction(k, new_w, new_q, new_fp)
    return Effectivization(eff, tuple(primitive(b) for b in killed))


# ---------------------------------------------------------------------------
# Projective-to-affine-cone reduction
# ---------------------------------------------------------------------------


@record
class ConeReduction:
    action: TorusAction  # rank + 1, same coordinates; the cone G_m scales all of A^N
    character: tuple[int, ...]  # (twist, -d)


def cone_over_projective(
    action: TorusAction, linearization_twist: Sequence[int], d: int
) -> ConeReduction:
    """Affine-cone form of a linear action on P^{N-1} linearized by O(d)
    twisted by a character: adds a G_m scaling every coordinate with weight
    1 and the distinguished character (twist, -d).  Semistability of a
    projective point equals affine semistability of any cone representative."""
    if d <= 0:
        raise InputError("the linearization degree d must be positive")
    twist = tuple(int(e) for e in linearization_twist)
    if len(twist) != action.rank:
        raise InputError("twist length does not match the rank")
    return ConeReduction(action.with_factor([1] * action.dim), twist + (-d,))
