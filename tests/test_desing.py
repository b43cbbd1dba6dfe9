import pytest

from conftest import random_action
from torusgit.desing import (
    DesingStep,
    DesingTower,
    desingularize,
    max_stabilizer_centers,
    verify_tower,
)
from torusgit.errors import ComputationDeclined, InputError
from torusgit.lattice import IntMatrix
from torusgit.rees import EBPresentation, MonomialWeightedCenter
from torusgit.torus import TorusAction, effectivize, is_semistable, stabilizer, support_key


def action(rows):
    return TorusAction(len(rows), IntMatrix.from_rows(rows, len(rows[0])))


HYPERBOLA = action([[1, -1]])


def cubics_effective():
    from torusgit.luna import cubics_slice

    return effectivize(cubics_slice()).action


def test_centers_hyperbola():
    live = HYPERBOLA.all_supports()
    centers = max_stabilizer_centers(HYPERBOLA, live)
    assert centers == [MonomialWeightedCenter((0, 1), (1, 1))]


def test_centers_cubics_slice():
    a = cubics_effective()
    centers = max_stabilizer_centers(a, a.all_supports())
    assert centers == [MonomialWeightedCenter((0, 1, 2), (1, 1, 1))]


def test_centers_already_dm():
    a = action([[1, 2]])
    live = [s for s in a.all_supports() if s]
    assert max_stabilizer_centers(a, live) == []


def test_desingularize_hyperbola():
    tower = desingularize(HYPERBOLA, (0,))
    assert len(tower.steps) == 1
    final = tower.final_action
    assert final.rank == 2 and final.dim == 3
    assert tower.final_character == (0, -1)
    assert set(tower.final_dm_supports) == {frozenset({0, 1}), frozenset({0, 1, 2})}
    for s in tower.final_dm_supports:
        assert stabilizer(final, s).dimension == 0
    # the strictly polystable directions {X, T} and {Y, T} are excluded
    assert frozenset({0, 2}) not in tower.final_dm_supports
    assert frozenset({1, 2}) not in tower.final_dm_supports


def test_desingularize_cubics_slice():
    a = cubics_effective()
    tower = desingularize(a, (0, 0))
    assert len(tower.steps) == 1
    boundary = frozenset({0, 1, 2})
    assert boundary in set(tower.final_dm_supports)
    g = stabilizer(tower.final_action, boundary)
    assert g.dimension == 0
    assert g.torus_component_order * g.finite_part_order == 9 * 6


def test_tower_stabilizer_dimensions_need_no_finite_group(monkeypatch):
    """A stabilizer dimension is r - rank(W_s), so neither the tower nor its
    check closes the finite part (S3 on the cubics slice) under composition."""
    a = cubics_effective()
    assert a.finite_part

    def closure(self):
        raise AssertionError("finite-part closure")

    monkeypatch.setattr(TorusAction, "finite_group_elements", closure)
    tower = desingularize(a, (0, 0))
    assert len(tower.steps) == 1 and verify_tower(tower).ok


def test_desingularize_already_dm_is_zero_steps():
    a = action([[1, 2]])
    tower = desingularize(a, (-1,))
    assert tower.steps == ()
    assert tower.final_character == (-1,)
    assert tower.final_action is a


def test_desingularize_requires_effective_action():
    a = action([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    with pytest.raises(InputError):
        desingularize(a, (0, 0, 0))


def test_desingularize_requires_nonempty_start_locus():
    a = TorusAction(1, IntMatrix(1, 0, ((),)))
    # dim-0 action: only the empty support; any nonzero character kills it
    with pytest.raises(InputError):
        desingularize(a, (1,))


def test_support_guard_runs_before_the_first_scan():
    # every support is unstable for (1,), but the guard declines first
    a = action([[1, 2]])
    with pytest.raises(ComputationDeclined, match=r"2\^2 supports exceed --max-supports=2"):
        desingularize(a, (1,), max_supports=2)


def test_verify_tower_passes_on_worked_examples():
    for base, chi in ((HYPERBOLA, (0,)), (cubics_effective(), (0, 0))):
        report = verify_tower(desingularize(base, chi))
        assert report.ok, [c for c in report.checks if not c.ok]
        assert {c.name for c in report.checks} == {
            "section_projection_roundtrip",
            "good_moduli_space",
            "global_quotient",
            "final_stabilizers_finite",
        }


def test_verify_tower_zero_steps_vacuous():
    a = action([[1, 2]])
    report = verify_tower(desingularize(a, (-1,)))
    assert report.ok
    assert [c.name for c in report.checks] == ["final_stabilizers_finite"]


def test_verify_tower_detects_corrupted_theta():
    tower = desingularize(HYPERBOLA, (0,))
    step = tower.steps[0]
    eb = step.presentation
    bad_theta = tuple(-e for e in eb.theta)
    bad_presentation = EBPresentation(eb.original, eb.center, eb.ambient, bad_theta,
                                      eb.exceptional_index, eb.substitution)
    bad_step = DesingStep(bad_presentation, step.center, step.m0, step.character)
    bad_tower = DesingTower(tower.base, tower.start_character, (bad_step,),
                            tower.final_character, tower.final_dm_supports)
    report = verify_tower(bad_tower)
    assert not report.ok
    failing = {c.name for c in report.checks if not c.ok}
    assert failing == {"good_moduli_space"}


def test_tower_termination_and_monotonicity(rng):
    """Fifty random effective actions: the tower terminates within N*r
    steps, the final supports are all Deligne-Mumford, and the maximal
    stabilizer dimension decreases, or the number of maximal centers
    does, at every step."""
    done = 0
    while done < 50:
        a = random_action(rng, max_rank=3, max_dim=5, entry_bound=2)
        a = effectivize(a).action
        if a.rank == 0:
            continue
        from torusgit.torus import is_stable

        if not is_stable(a, tuple(0 for _ in range(a.rank)), frozenset(range(a.dim))):
            continue  # no properly stable point: outside the tower's scope
        tower = desingularize(a, tuple(0 for _ in range(a.rank)))
        assert len(tower.steps) <= a.dim * a.rank + 1
        final = tower.final_action
        for s in tower.final_dm_supports:
            assert stabilizer(final, s).dimension == 0

        # monotonicity along the recorded steps
        profile = []
        current, chi = a, tuple(0 for _ in range(a.rank))
        live = [s for s in current.all_supports() if is_semistable(current, chi, s)]
        for step in tower.steps:
            dims = [stabilizer(current, s).dimension for s in live]
            centers = max_stabilizer_centers(current, live)
            profile.append((max(dims), len(centers)))
            current = step.presentation.ambient
            chi = step.character
            live = [s for s in current.all_supports() if is_semistable(current, chi, s)]
        for (d1, c1), (d2, c2) in zip(profile, profile[1:]):
            assert d2 < d1 or (d2 == d1 and c2 < c1), profile
        done += 1


def test_tower_embeds_original_stable_supports(rng):
    """The composite T = 1 section keeps originally properly-stable
    supports live and Deligne-Mumford in the final ambient.  (Supports
    with a finite stabilizer but a non-closed orbit over the moduli space
    may legitimately fall out of the relative semistable locus.)"""
    from torusgit.torus import is_stable

    done = 0
    while done < 20:
        a = random_action(rng, max_rank=2, max_dim=4, entry_bound=2)
        a = effectivize(a).action
        if a.rank == 0:
            continue
        chi0 = tuple(0 for _ in range(a.rank))
        if not is_stable(a, chi0, frozenset(range(a.dim))):
            continue
        tower = desingularize(a, chi0)
        if not tower.steps:
            done += 1
            continue
        original_stable = [s for s in a.all_supports() if is_stable(a, chi0, s)]
        final = set(tower.final_dm_supports)
        for s in original_stable:
            image = s
            for step in tower.steps:
                image = step.presentation.section_support(image)
            assert image in final, (a.weights.entries, sorted(s))
            assert stabilizer(tower.final_action, image).dimension == 0
        done += 1


def test_step_guard():
    with pytest.raises(ComputationDeclined):
        desingularize(HYPERBOLA, (0,), max_steps=0)


def test_live_lists_are_the_sorted_predicate_scans(rng, monkeypatch):
    """Every live list of the tower, the final one included, equals the
    sorted is_semistable scan of its ambient."""
    import torusgit.desing
    from torusgit.torus import is_stable, semistable_supports

    scans = []

    def recorded(action, chi):
        live = semistable_supports(action, chi)
        scans.append((action, chi, live))
        return live

    monkeypatch.setattr(torusgit.desing, "semistable_supports", recorded)
    done = 0
    while done < 10:
        a = effectivize(random_action(rng, max_rank=2, max_dim=4, entry_bound=2)).action
        chi0 = tuple(0 for _ in range(a.rank))
        if a.rank == 0 or not is_stable(a, chi0, frozenset(range(a.dim))):
            continue
        scans.clear()
        tower = desingularize(a, chi0)
        assert len(scans) == len(tower.steps) + 1
        assert tuple(scans[-1][2]) == tower.final_dm_supports
        for action, chi, live in scans:
            assert live == sorted((s for s in action.all_supports()
                                   if is_semistable(action, chi, s)), key=support_key)
        done += 1
