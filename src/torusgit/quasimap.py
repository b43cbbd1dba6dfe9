"""Combinatorial quasimap machinery on dual graphs of twisted curves.

A quasimap from a twisted nodal curve is modeled by its dual graph: one
vertex per irreducible component with its geometric genus, a flag saying
whether the component maps into the Deligne-Mumford locus, and the exact
rational degrees of the tracked line bundles.  Edges carry the index of
the node gerbe, legs the index of the marking gerbe.  The bundle "L_X"
(pullback of an ample bundle from the good moduli space) must always be
tracked; "L" (the bundle cutting out the DM locus) is needed by the
predicates that look at degenerate components.

Stability of a quasimap: the log-canonical-plus-pullback degree
(2g - 2 + #nodes + #markings) + 3 deg L_X must be non-negative on every
vertex, and a vertex where it vanishes must be rational and not
contracted to a point of the DM locus, the latter read off through the
in_dm flag and the sign of deg L.  For total genus != 1 this is
equivalent to the bundle twisted by a small positive power of L being
ample, which is the second predicate implemented here.

The module also houses the degree-2n binary-forms rules, the twisted
conic configuration rules, the DVR lifting computation for blow-ups of
torus quotients, and the degree bookkeeping of pencils of plane cubics.
All arithmetic is exact (integers and Fractions).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal, Mapping, Sequence

from ._record import record
from .errors import InputError

LOG_BUNDLE = "L_X"
DM_BUNDLE = "L"


@record
class Vertex:
    genus: int
    in_dm_locus: bool
    degrees: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise InputError("vertex genus must be non-negative")
        object.__setattr__(self, "degrees",
                           {k: Fraction(v) for k, v in dict(self.degrees).items()})


@record
class TwistedCurveGraph:
    """Dual graph of a twisted nodal marked curve with tracked degrees."""

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int, int], ...] = ()  # (v, w, node index >= 1)
    legs: tuple[tuple[int, int], ...] = ()  # (v, marking index >= 1)
    tracked_bundles: tuple[str, ...] = (LOG_BUNDLE,)

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n == 0:
            raise InputError("a dual graph needs at least one vertex")
        if LOG_BUNDLE not in self.tracked_bundles:
            raise InputError(f'tracked bundles must include "{LOG_BUNDLE}"')
        for v, w, d in self.edges:
            if not (0 <= v < n and 0 <= w < n) or d < 1:
                raise InputError("edge endpoints out of range or node index < 1")
        for v, e in self.legs:
            if not (0 <= v < n) or e < 1:
                raise InputError("leg endpoint out of range or marking index < 1")
        if not self._connected():
            raise InputError("the dual graph must be connected")
        for i, vert in enumerate(self.vertices):
            for name in self.tracked_bundles:
                if name not in vert.degrees:
                    raise InputError(f"vertex {i} has no degree for tracked bundle {name!r}")
            if vert.degrees[LOG_BUNDLE] < 0:
                raise InputError(f"vertex {i} has negative {LOG_BUNDLE} degree")
            lcm = self._local_index_lcm(i)
            for name in self.tracked_bundles:
                if lcm % vert.degrees[name].denominator != 0:
                    raise InputError(
                        f"degree denominator at vertex {i} does not divide the "
                        f"lcm {lcm} of its local indices"
                    )

    def _connected(self) -> bool:
        n = len(self.vertices)
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for a, b, _ in self.edges:
                for x, y in ((a, b), (b, a)):
                    if x == v and y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return len(seen) == n

    def _local_index_lcm(self, v: int) -> int:
        return math.lcm(*(d for a, b, d in self.edges if v in (a, b)),
                        *(e for a, e in self.legs if a == v))

    def edge_ends(self, v: int) -> int:
        return sum((a == v) + (b == v) for a, b, _ in self.edges)

    def legs_at(self, v: int) -> int:
        return sum(1 for a, _ in self.legs if a == v)

    def total_genus(self) -> int:
        return sum(v.genus for v in self.vertices) + len(self.edges) - len(self.vertices) + 1

    def degree(self, v: int, bundle: str) -> Fraction:
        if bundle not in self.tracked_bundles:
            raise InputError(f"bundle {bundle!r} is not tracked")
        return self.vertices[v].degrees[bundle]

    def subcurve(self, vertex_subset: Sequence[int]) -> "TwistedCurveGraph":
        """Marked subcurve on a subset of vertices: kept edges stay edges,
        severed edges become legs with the same local index."""
        keep = sorted(set(vertex_subset))
        index = {v: i for i, v in enumerate(keep)}
        edges = []
        legs = [(index[v], e) for v, e in self.legs if v in index]
        for a, b, d in self.edges:
            if a in index and b in index:
                edges.append((index[a], index[b], d))
            elif a in index:
                legs.append((index[a], d))
            elif b in index:
                legs.append((index[b], d))
        return TwistedCurveGraph(
            tuple(self.vertices[v] for v in keep), tuple(edges), tuple(legs),
            self.tracked_bundles,
        )


def omega_log_degree(graph: TwistedCurveGraph, v: int) -> int:
    """Coarse degree of omega_C(sum p_i) on the component of vertex v:
    (2g - 2) + #edge-ends + #legs."""
    vert = graph.vertices[v]
    return 2 * vert.genus - 2 + graph.edge_ends(v) + graph.legs_at(v)


def _nef_degree(graph: TwistedCurveGraph, v: int) -> Fraction:
    return omega_log_degree(graph, v) + 3 * graph.degree(v, LOG_BUNDLE)


def is_stable_quasimap(graph: TwistedCurveGraph) -> tuple[bool, list[int]]:
    """Stability of the quasimap encoded by the graph.

    Every vertex needs nef degree omega_log + 3 deg L_X >= 0; a vertex
    with nef degree zero must have genus zero and must not be contracted
    to a point of the DM locus, decided as: either the vertex maps out of
    the DM locus, or its deg L is positive ("L" must be tracked to decide
    this case).  Returns the flag and every violating vertex.
    """
    violations = []
    for v in range(len(graph.vertices)):
        q = _nef_degree(graph, v)
        if q < 0:
            violations.append(v)
            continue
        if q != 0:
            continue
        if graph.vertices[v].genus != 0:
            violations.append(v)
            continue
        if not graph.vertices[v].in_dm_locus:
            continue
        if DM_BUNDLE not in graph.tracked_bundles:
            raise InputError(
                f'deciding vertex {v} needs the tracked bundle "{DM_BUNDLE}"'
            )
        if graph.degree(v, DM_BUNDLE) <= 0:
            violations.append(v)
    return not violations, violations


def epsilon_ample_equivalent(graph: TwistedCurveGraph) -> bool:
    """Ampleness of omega_C(sum p_i) (x) f*L_X^3 (x) L^epsilon for small
    positive epsilon: per vertex the nef degree is positive, or vanishes
    with deg L > 0.  Refuses total genus 1, where the equivalence with
    quasimap stability is not available."""
    if DM_BUNDLE not in graph.tracked_bundles:
        raise InputError(f'the epsilon-ample test needs the tracked bundle "{DM_BUNDLE}"')
    if graph.total_genus() == 1:
        raise InputError("the epsilon-ample formulation excludes total genus 1")
    for v in range(len(graph.vertices)):
        q = _nef_degree(graph, v)
        if q < 0:
            return False
        if q == 0 and graph.degree(v, DM_BUNDLE) <= 0:
            return False
    return True


def class_beta(graph: TwistedCurveGraph) -> dict[str, Fraction]:
    """The class of the quasimap: tracked bundle -> total degree."""
    return {
        name: sum((vert.degrees[name] for vert in graph.vertices), Fraction(0))
        for name in graph.tracked_bundles
    }


# ---------------------------------------------------------------------------
# Binary forms of degree 2n on P^1
# ---------------------------------------------------------------------------

SEMISTABLE = "semistable"
STABLE_DM = "stable_dm"


def _binary_form_multiplicities(multiplicities: Sequence[int], n: int) -> list[int]:
    """The multiplicities of a degree-2n divisor on P^1, checked: n >= 1,
    each multiplicity positive, and their sum 2n."""
    if n < 1:
        raise InputError("n must be >= 1")
    mults = [int(m) for m in multiplicities]
    if any(m < 1 for m in mults):
        raise InputError("multiplicities must be positive")
    if sum(mults) != 2 * n:
        raise InputError(f"multiplicities must sum to 2n = {2 * n}")
    return mults


def check_binary_forms(multiplicities: Sequence[int], n: int,
                       mode: Literal["semistable", "stable_dm"]) -> bool:
    """GIT rules for a degree-2n divisor on P^1 given its multiplicity
    pattern: semistable iff max multiplicity <= n, in the DM locus iff
    max multiplicity <= n - 1."""
    mults = _binary_form_multiplicities(multiplicities, n)
    if mode == SEMISTABLE:
        return max(mults) <= n
    if mode == STABLE_DM:
        return max(mults) <= n - 1
    raise InputError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Twisted conic configurations
# ---------------------------------------------------------------------------


@record
class DivisorConfig:
    """A degree-2n divisor on P^1 or on a twisted conic, by per-component
    point multiplicities on the smooth locus."""

    ambient: Literal["smooth_P1", "twisted_conic"]
    multiplicities: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        if self.ambient not in ("smooth_P1", "twisted_conic"):
            raise InputError(f"unknown ambient {self.ambient!r}")
        expected = 1 if self.ambient == "smooth_P1" else 2
        if len(self.multiplicities) != expected:
            raise InputError(f"{self.ambient} has {expected} component(s)")
        if self.n < 1:
            raise InputError("n must be >= 1")
        for comp in self.multiplicities:
            if any(m < 1 for m in comp):
                raise InputError("multiplicities must be positive")
        total = sum(sum(comp) for comp in self.multiplicities)
        if total != 2 * self.n:
            raise InputError(f"total multiplicity must be 2n = {2 * self.n}")


def check_twisted_conic(cfg: DivisorConfig) -> tuple[bool, bool]:
    """(valid_in_CY, in_dm) for a divisor configuration.

    Valid: every irreducible component carries degree >= n and no point
    has multiplicity > n.  DM additionally caps multiplicities at n - 1;
    for a two-component conic the component totals are then forced to be
    exactly (n, n) by the degree count, which is checked explicitly.
    """
    n = cfg.n
    totals = [sum(comp) for comp in cfg.multiplicities]
    max_mult = max(max(comp) for comp in cfg.multiplicities)
    valid = all(t >= n for t in totals) and max_mult <= n
    in_dm = valid and max_mult <= n - 1
    if in_dm and cfg.ambient == "twisted_conic" and totals != [n, n]:
        in_dm = False
    return valid, in_dm


# ---------------------------------------------------------------------------
# DVR lifting to the blow-up
# ---------------------------------------------------------------------------


@record
class DvrMapData:
    """Orders of vanishing of the coordinate pullbacks at the closed point
    of a DVR mapping generically off every axis and specially to the origin."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.orders:
            raise InputError("need at least one coordinate")
        if any(o < 1 for o in self.orders):
            raise InputError("every order of vanishing must be >= 1 "
                             "(the generic point must map off the axes)")


@record
class DvrLift:
    m: int
    lifted_orders: tuple[int, ...]
    on_axis_proper_transform: tuple[bool, ...]

    @property
    def meets_some_axis(self) -> bool:
        return any(self.on_axis_proper_transform)


def dvr_lift(data: DvrMapData) -> DvrLift:
    """Lift through the blow-up of the origin: twist by the minimal order m.

    The lifted section of coordinate j vanishes iff its order exceeds m,
    so the lift meets the proper transform of some axis iff the orders
    are not all equal.
    """
    m = min(data.orders)
    lifted = tuple(o - m for o in data.orders)
    return DvrLift(m, lifted, tuple(o > m for o in data.orders))


# ---------------------------------------------------------------------------
# Pencils of plane cubics
# ---------------------------------------------------------------------------

PENCIL_LEGS = 12


@record
class PencilReport:
    ok: bool
    vertex_results: tuple[tuple[int, bool], ...]


def check_pencil_degrees(graph: TwistedCurveGraph) -> PencilReport:
    """Bookkeeping for a pencil of plane cubics: with the 12 base points as
    legs, pulling back O(1) along the degree-12 map to the moduli line
    forces deg L_X = #legs + 3 deg L on every vertex."""
    if DM_BUNDLE not in graph.tracked_bundles:
        raise InputError(f'the pencil check needs the tracked bundle "{DM_BUNDLE}"')
    if len(graph.legs) != PENCIL_LEGS:
        raise InputError(f"a cubic pencil graph has exactly {PENCIL_LEGS} legs, "
                         f"got {len(graph.legs)}")
    results = []
    for v in range(len(graph.vertices)):
        ok = graph.degree(v, LOG_BUNDLE) == graph.legs_at(v) + 3 * graph.degree(v, DM_BUNDLE)
        results.append((v, ok))
    return PencilReport(all(ok for _, ok in results), tuple(results))
