"""Iterated partial desingularization of a torus quotient.

The tower repeats one step until every live support has a finite
stabilizer: find the locus of maximal stabilizer dimension among the
currently semistable supports, extended-blow-up the corresponding
reduced coordinate subspace (weights all 1), give the new Rees factor its
character theta, and fold theta into the accumulated linearization with
the exact m0 bound of ``combine_linearizations``.  The result is a
Deligne-Mumford relative semistable locus together with the accumulated
character playing the role of L_DM.

``verify_tower`` certifies the outcome rather than the construction
path: section/projection round-trips, the good-moduli-space identities
pi_* theta^n = I_n (a condition on theta alone), finiteness of the final
stabilizers, and the ambient staying a torus quotient.
"""

from __future__ import annotations

from typing import Sequence

from ._record import record
from .errors import DEFAULT_MAX_SUPPORTS, ComputationDeclined, InputError, guard_supports
from .lattice import rank
from .rees import (
    EBPresentation,
    MonomialWeightedCenter,
    check_presentation,
    extended_weighted_blowup,
)
from .torus import (
    Support,
    TorusAction,
    combine_linearizations,
    is_stable,
    semistable_supports,
)


@record
class DesingStep:
    presentation: EBPresentation
    center: MonomialWeightedCenter
    m0: int
    character: tuple[int, ...]  # accumulated linearization on the step ambient


@record
class DesingTower:
    base: TorusAction
    start_character: tuple[int, ...]
    steps: tuple[DesingStep, ...]
    final_character: tuple[int, ...]
    final_dm_supports: tuple[Support, ...]

    @property
    def final_action(self) -> TorusAction:
        return self.steps[-1].presentation.ambient if self.steps else self.base


def _stabilizer_dimension(action: TorusAction, s: Support) -> int:
    return action.rank - rank(action.weights.submatrix_cols(sorted(s)))


def max_stabilizer_centers(action: TorusAction, live_supports: Sequence[Support]) -> list[MonomialWeightedCenter]:
    """Reduced monomial centers for the maximal-stabilizer-dimension locus.

    A live support s of maximal stabilizer dimension, r - rank(chi_j : j in s),
    sits generically on the coordinate subspace {x_j = 0 : j not in s}; the
    centers are the inclusion-minimal complements (maximal subspaces), with
    weights 1, in lexicographic order.  Empty if every stabilizer is finite.
    """
    if not live_supports:
        raise InputError("live_supports must be nonempty")
    dims = {s: _stabilizer_dimension(action, s) for s in live_supports}
    d_max = max(dims.values())
    if d_max == 0:
        return []
    zs = {frozenset(range(action.dim)) - s for s, d in dims.items() if d == d_max}
    minimal = [z for z in zs if not any(other < z for other in zs)]
    out = []
    for z in sorted(minimal, key=lambda z: tuple(sorted(z))):
        coords = tuple(sorted(z))
        if not coords:
            raise InputError(
                "the generic point has a positive-dimensional stabilizer; "
                "effectivize the action first"
            )
        out.append(MonomialWeightedCenter(coords, tuple(1 for _ in coords)))
    return out


def desingularize(action: TorusAction, start_character: Sequence[int],
                  max_steps: int = 32,
                  max_supports: int = DEFAULT_MAX_SUPPORTS) -> DesingTower:
    """Run the tower until the live locus is Deligne-Mumford.

    One center per step, lexicographically least; the accumulated
    character is updated to m0 * (previous, 0) + theta.  A step guard
    raises ComputationDeclined with diagnostics instead of looping, and
    the support scans are guarded before the first one and again as each
    blow-up adds a coordinate.
    """
    guard_supports(action.dim, max_supports)
    chi = action.check_invariant_character(start_character)
    if rank(action.weights) < action.rank:
        raise InputError("the action has a positive-dimensional kernel; effectivize first")
    current = action
    live = semistable_supports(current, chi)
    if not live:
        raise InputError("the start character has an empty semistable locus")
    if not is_stable(current, chi, frozenset(range(current.dim))):
        # no properly stable point: the relative semistable loci of the
        # blow-ups would eventually be empty and the tower meaningless
        raise InputError("the action has no properly stable point for the start character")
    steps: list[DesingStep] = []
    while True:
        centers = max_stabilizer_centers(current, live)
        if not centers:
            break
        if len(steps) >= max_steps:
            raise ComputationDeclined(
                f"desingularization did not terminate within {max_steps} steps; "
                f"last live supports: {[sorted(s) for s in live]}"
            )
        center = centers[0]
        eb = extended_weighted_blowup(current, center)
        guard_supports(eb.ambient.dim, max_supports)
        lifted = chi + (0,)
        combo = combine_linearizations(eb.ambient, lifted, eb.theta)
        current = eb.ambient
        chi = combo.combined
        live = semistable_supports(current, chi)
        steps.append(DesingStep(eb, center, combo.m0, chi))
    return DesingTower(action, tuple(start_character), tuple(steps), chi, tuple(live))


# ---------------------------------------------------------------------------
# Tower verification
# ---------------------------------------------------------------------------


@record
class TowerCheck:
    step: int  # -1 for tower-level checks
    name: str
    ok: bool
    detail: str = ""


@record
class TowerReport:
    ok: bool
    checks: tuple[TowerCheck, ...]


def _pushforward_check(eb: EBPresentation) -> str:
    """Certify pi_* theta^n = I_n for every n and every monomial.

    The lift X^alpha x^beta T^c of a monomial of weighted degree w has
    Rees degree w - c, and is a theta^n-semi-invariant iff c = w + n*t >= 0,
    with t = eb.theta[-1]; the monomial lies in I_n iff w >= n.  These agree
    for all w, n >= 0 iff t = -1.  Otherwise the detail names the first
    disagreeing pair in (total degree, exponents, n) order: the monomial 1
    at n = 1 when t >= 0, and when t <= -2 the last center coordinate x_j,
    of weight a, at n = a // -t + 1.  The sign of theta enters through t,
    so a corrupted theta is caught here.
    """
    t_last = eb.theta[-1]
    if t_last == -1:
        return ""
    mono = [0] * eb.original.dim
    if t_last >= 0:
        n = 1
    else:
        mono[eb.center.coords[-1]] = 1
        n = eb.center.weights[-1] // -t_last + 1
    return f"pushforward of theta^{n} disagrees with I_{n} at monomial {tuple(mono)}"


def verify_tower(tower: DesingTower) -> TowerReport:
    checks: list[TowerCheck] = []
    previous = tower.base
    for i, step in enumerate(tower.steps):
        eb = step.presentation
        failures = check_presentation(eb)
        if eb.original.weights.entries != previous.weights.entries:
            failures.append("step does not blow up the previous ambient")
        previous = eb.ambient
        checks.append(TowerCheck(i, "section_projection_roundtrip", not failures,
                                 "; ".join(failures)))
        # the invariant rings agree whenever the ambient columns pass the
        # round trip: the lift (m, wdeg m) then has weights (W m, 0)
        detail = _pushforward_check(eb)
        checks.append(TowerCheck(i, "good_moduli_space", not detail, detail))
        amb_ok = (eb.ambient.rank == eb.original.rank + 1
                  and eb.ambient.dim == eb.original.dim + 1)
        checks.append(TowerCheck(i, "global_quotient", amb_ok,
                                 "" if amb_ok else "ambient is not a torus quotient extension"))
    action = tower.final_action
    bad = [s for s in tower.final_dm_supports if _stabilizer_dimension(action, s)]
    checks.append(TowerCheck(-1, "final_stabilizers_finite", not bad,
                             "" if not bad else f"infinite stabilizer at {[sorted(s) for s in bad]}"))
    return TowerReport(all(c.ok for c in checks), tuple(checks))
