"""Exact geometric-invariant-theory computations for diagonal torus actions.

The package decides Hilbert-Mumford semistability on supports, analyses
wall/chamber genericity of linearizations, presents extended weighted
blow-ups as graded torus quotients, runs the iterated partial
desingularization producing a Deligne-Mumford relative semistable locus,
and checks the combinatorial stability of quasimaps from twisted nodal
curves.  All arithmetic is exact.

Importing the package runs none of its submodules: each engine submodule is
registered lazily (it is in ``sys.modules`` and an attribute of the package)
and runs on its first attribute access, and the public names below resolve
through their submodule on first use.  So a CLI call compiles only what its
subcommand uses.
"""

from threading import RLock as _RLock
from types import ModuleType as _ModuleType

_PUBLIC = {
    "errors": ("ComputationDeclined", "InputError", "InternalError", "TorusGitError"),
    "lattice": (
        "IntMatrix",
        "SmithDecomposition",
        "cone_has_point_with",
        "hilbert_basis_bounded",
        "kernel_basis",
        "smith_normal_form",
    ),
    "torus": (
        "CombinedLinearization",
        "DiagonalizableGroup",
        "FinitePartElement",
        "HmMinimum",
        "SignedSquare",
        "Support",
        "TorusAction",
        "combine_linearizations",
        "cone_over_projective",
        "effectivize",
        "is_semistable",
        "is_stable",
        "limit_cone",
        "minimal_hm_values",
        "normalized_hm_min",
        "semistable_supports",
        "stabilizer",
    ),
    "walls": (
        "WallArrangement",
        "compute_walls",
        "find_generic_character",
        "is_generic",
        "verify_ss_equals_s",
    ),
    "rees": (
        "EBPresentation",
        "ExceptionalDivisor",
        "MonomialWeightedCenter",
        "exceptional_divisor",
        "extended_weighted_blowup",
        "saturated_locus",
        "weighted_blowup_locus",
    ),
    "desing": ("DesingTower", "desingularize", "max_stabilizer_centers", "verify_tower"),
    "quasimap": (
        "DivisorConfig",
        "DvrMapData",
        "TwistedCurveGraph",
        "Vertex",
        "check_binary_forms",
        "check_pencil_degrees",
        "check_twisted_conic",
        "class_beta",
        "dvr_lift",
        "epsilon_ample_equivalent",
        "is_stable_quasimap",
        "omega_log_degree",
    ),
    "luna": ("cubics_example", "cubics_slice", "slice_at_fixed_point"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_PUBLIC, *_OWNER])


_FIRST_USE = _RLock()
_RUNNING: set[str] = set()


class _Deferred(_ModuleType):
    """A registered submodule that has not run yet: its first attribute access
    runs it.  One lock makes a concurrent first access wait until the module
    has run; CPython 3.11's ``importlib.util.LazyLoader`` marks a module loaded
    before running it, so there a second thread can see it half run.  The
    accesses the run itself makes pass straight through."""

    def __getattribute__(self, attr):
        with _FIRST_USE:
            name = _ModuleType.__getattribute__(self, "__name__")
            if type(self) is _Deferred and name not in _RUNNING:
                _RUNNING.add(name)
                try:
                    _ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                    self.__class__ = _ModuleType
                finally:
                    _RUNNING.discard(name)
        return _ModuleType.__getattribute__(self, attr)


def _register_lazily() -> None:
    import importlib.util
    import sys

    for module in _PUBLIC:
        name = f"{__name__}.{module}"
        deferred = importlib.util.module_from_spec(importlib.util.find_spec(name))
        deferred.__class__ = _Deferred
        sys.modules[name] = deferred
        globals()[module] = deferred


_register_lazily()


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
