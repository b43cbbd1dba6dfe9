"""The package's public surface: the names ``import torusgit`` offers, resolved
through submodules that run only on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusgit

ALL_NAMES = [
    "CombinedLinearization", "ComputationDeclined", "DesingTower", "DiagonalizableGroup",
    "DivisorConfig", "DvrMapData", "EBPresentation", "ExceptionalDivisor", "FinitePartElement",
    "HmMinimum", "InputError", "IntMatrix", "InternalError", "MonomialWeightedCenter",
    "SignedSquare", "SmithDecomposition", "Support", "TorusAction", "TorusGitError",
    "TwistedCurveGraph", "Vertex", "WallArrangement", "check_binary_forms",
    "check_pencil_degrees", "check_twisted_conic", "class_beta", "combine_linearizations",
    "compute_walls", "cone_has_point_with", "cone_over_projective", "cubics_example",
    "cubics_slice", "desing", "desingularize", "dvr_lift", "effectivize",
    "epsilon_ample_equivalent", "errors", "exceptional_divisor", "extended_weighted_blowup",
    "find_generic_character", "hilbert_basis_bounded", "is_generic",
    "is_semistable", "is_stable", "is_stable_quasimap", "kernel_basis", "lattice", "limit_cone",
    "luna", "max_stabilizer_centers", "minimal_hm_values", "normalized_hm_min",
    "omega_log_degree", "quasimap", "rees", "saturated_locus", "semistable_supports",
    "slice_at_fixed_point", "smith_normal_form", "stabilizer", "torus",
    "verify_ss_equals_s", "verify_tower", "walls", "weighted_blowup_locus",
]

OWNERS = {
    "errors": ["ComputationDeclined", "InputError", "InternalError", "TorusGitError"],
    "lattice": ["IntMatrix", "SmithDecomposition", "cone_has_point_with",
                "hilbert_basis_bounded", "kernel_basis", "smith_normal_form"],
    "torus": ["CombinedLinearization", "DiagonalizableGroup", "FinitePartElement", "HmMinimum",
              "SignedSquare", "Support", "TorusAction", "combine_linearizations",
              "cone_over_projective", "effectivize", "is_semistable", "is_stable",
              "limit_cone", "minimal_hm_values", "normalized_hm_min", "semistable_supports",
              "stabilizer"],
    "walls": ["WallArrangement", "compute_walls", "find_generic_character", "is_generic",
              "verify_ss_equals_s"],
    "rees": ["EBPresentation", "ExceptionalDivisor", "MonomialWeightedCenter",
             "exceptional_divisor", "extended_weighted_blowup", "saturated_locus",
             "weighted_blowup_locus"],
    "desing": ["DesingTower", "desingularize", "max_stabilizer_centers", "verify_tower"],
    "quasimap": ["DivisorConfig", "DvrMapData", "TwistedCurveGraph", "Vertex",
                 "check_binary_forms", "check_pencil_degrees", "check_twisted_conic",
                 "class_beta", "dvr_lift", "epsilon_ample_equivalent", "is_stable_quasimap",
                 "omega_log_degree"],
    "luna": ["cubics_example", "cubics_slice", "slice_at_fixed_point"],
}


def test_all_is_the_public_names_and_the_eight_submodules():
    assert len(ALL_NAMES) == 58 + 8
    assert torusgit.__all__ == ALL_NAMES
    assert sorted([*OWNERS, *(n for names in OWNERS.values() for n in names)]) == ALL_NAMES


@pytest.mark.parametrize("module", sorted(OWNERS))
def test_each_public_name_is_its_submodules_object(module):
    owner = sys.modules[f"torusgit.{module}"]
    assert getattr(torusgit, module) is owner
    for name in OWNERS[module]:
        assert getattr(torusgit, name) is vars(owner)[name], name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from torusgit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ALL_NAMES
    assert all(namespace[name] is getattr(torusgit, name) for name in ALL_NAMES)


def test_dir_lists_the_public_names():
    listed = dir(torusgit)
    assert "__all__" in listed
    assert set(ALL_NAMES) <= set(listed)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        torusgit.no_such_name
    for oracle in ("binary_forms_hm", "hm_pairing", "two_step_semistable"):
        assert not hasattr(torusgit, oracle)


def test_concurrent_first_use_waits_for_the_whole_submodule():
    """Four threads touch the same submodules first, at once, in a fresh
    interpreter: each must see them fully run, never half run."""
    code = """if True:
        import threading, torusgit
        barrier, errors = threading.Barrier(4), []

        def touch():
            barrier.wait()
            try:
                torusgit.luna.cubics_slice, torusgit.desing.desingularize
            except AttributeError as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=touch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        print(errors, any(t.is_alive() for t in threads))
    """
    src = str(Path(torusgit.__file__).resolve().parent.parent)
    for _ in range(5):
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert out.strip() == "[] False"
