import pytest

from torusgit.errors import InputError
from torusgit.lattice import IntMatrix
from torusgit.luna import (
    cubic_forms_ambient,
    cubics_chart_action,
    cubics_example,
    cubics_slice,
    slice_at_fixed_point,
)
from torusgit.torus import TorusAction, stabilizer


def action(rows, n=None):
    if not rows:
        return TorusAction(0, IntMatrix(0, n, ()))
    return TorusAction(len(rows), IntMatrix.from_rows(rows, len(rows[0])))


# ---------------------------------------------------------------------------
# the general slice operation
# ---------------------------------------------------------------------------


def test_slice_weight_count():
    # slice weights + orbit weights = ambient weights, always
    a = action([[1, -1, 0, 2]])
    s = frozenset({2})  # a weight-0 coordinate: fixed by the full torus
    res = slice_at_fixed_point(a, s)
    assert res.dim == a.dim  # rank(W_s) = 0: no orbit directions removed
    a2 = action([[1, -1, 0, 2], [0, 0, 1, 1]])
    s2 = frozenset({0, 1})  # rank of W_s = 1, stabilizer dimension 1
    res2 = slice_at_fixed_point(a2, s2)
    assert res2.rank == 1
    assert res2.dim == a2.dim - 1


def test_slice_weight_count_random(rng):
    # slice weights + orbit weights = ambient weights, on random actions
    from conftest import random_action
    from torusgit.lattice import rank as mrank

    tried = 0
    while tried < 20:
        a = random_action(rng, max_rank=3, max_dim=5, entry_bound=2)
        s = frozenset(j for j in range(a.dim) if rng.random() < 0.5)
        cols = sorted(s)
        mat_rank = mrank(a.weights.submatrix_cols(cols)) if cols else 0
        if a.rank - mat_rank == 0:
            continue  # finite stabilizer: no slice
        tried += 1
        res = slice_at_fixed_point(a, s)
        assert res.dim + mat_rank == a.dim
        assert res.rank == a.rank - mat_rank


def test_default_orbit_directions_are_the_greedy_independent_set(rng):
    """The pivot columns of W_s are the coordinates a rank test per
    coordinate takes, in order, on seeded random actions."""
    from conftest import random_action
    from reference import greedy_orbit_directions

    tried = 0
    while tried < 200:
        a = random_action(rng, max_rank=4, max_dim=7, entry_bound=2)
        s = frozenset(j for j in range(a.dim) if rng.random() < 0.6)
        if not stabilizer(a, s).dimension:
            continue
        tried += 1
        assert slice_at_fixed_point(a, s) == slice_at_fixed_point(a, s, greedy_orbit_directions(a, s))


def test_slice_origin_is_whole_ambient():
    a = action([[1, -1, 3]])
    res = slice_at_fixed_point(a, frozenset())
    assert res.rank == 1 and res.dim == 3
    assert [res.weights.col(j) for j in range(3)] == [(1,), (-1,), (3,)]


def test_slice_dense_orbit_has_rank_zero_complement():
    a = action([[1, -1]])
    with pytest.raises(InputError):
        slice_at_fixed_point(a, frozenset({0, 1}))  # stabilizer is finite


def test_slice_requires_valid_orbit_directions():
    a = action([[1, -1]])
    with pytest.raises(InputError):
        slice_at_fixed_point(a, frozenset(), orbit_directions=[5])


# ---------------------------------------------------------------------------
# the cubics instance
# ---------------------------------------------------------------------------


def test_cubic_forms_ambient_shape():
    ambient, fixed, mixed = cubic_forms_ambient()
    assert ambient.rank == 3 and ambient.dim == 10
    assert ambient.character(fixed) == (1, 1, 1)
    assert len(mixed) == 6


def test_cubics_chart_orbit_directions_are_roots():
    chart, orbit = cubics_chart_action()
    roots = sorted(chart.character(j) for j in orbit)
    assert roots == sorted(
        [(1, 0, -1), (1, -1, 0), (0, 1, -1), (-1, 1, 0), (0, -1, 1), (-1, 0, 1)]
    )


def test_cubics_slice_weights():
    s = cubics_slice()
    assert [s.weights.col(j) for j in range(3)] == [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
    assert len(s.finite_part) == 5  # the nontrivial permutations of S3


def test_cubics_certificate():
    cert = cubics_example()
    # invariant ring generated by x1 x2 x3
    assert cert.invariant_generators == ((1, 1, 1),)
    # the effectivization kills the diagonal subtorus
    assert cert.effectivization.action.rank == 2
    assert cert.effectivization.quotiented_cocharacters == ((1, 1, 1),)
    # boundary stabilizer: mu_3 x mu_3 (order 9) with an S3 of order 6
    g = cert.boundary_stabilizer
    assert g.dimension == 0
    assert g.invariant_factors == (3, 3)
    assert g.torus_component_order == 9
    assert g.finite_part_order == 6
    # the blow-up ambient is [A^4 / G x G_m]
    assert cert.blowup.ambient.rank == 3 and cert.blowup.ambient.dim == 4
    # one-step tower with a Deligne-Mumford outcome, fully verified
    assert len(cert.tower.steps) == 1
    assert cert.tower_verified
    assert cert.boundary_support in set(cert.tower.final_dm_supports)
    for s in cert.tower.final_dm_supports:
        assert stabilizer(cert.tower.final_action, s).dimension == 0


def test_cubics_slice_stabilizer_order_54():
    cert = cubics_example()
    g = cert.boundary_stabilizer
    assert g.torus_component_order * g.finite_part_order == 54
