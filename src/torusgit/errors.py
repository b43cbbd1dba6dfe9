"""Exception hierarchy shared by every module; each class carries the
``kind`` the CLI prints in its error document and the ``exit_code`` it returns.
Also the support-count guard, which raises ComputationDeclined, and its default."""

# kept out of the engine modules, so that building the CLI parser or guarding a
# scan loads none of them
DEFAULT_MAX_SUPPORTS = 1 << 20


class TorusGitError(Exception):
    """Base class for all errors raised by this package (CLI exit code 3)."""

    kind = "internal"
    exit_code = 3


class InputError(TorusGitError):
    """Malformed or inconsistent input data (CLI exit code 1)."""

    kind = "input"
    exit_code = 1


class ComputationDeclined(TorusGitError):
    """A guard refused the computation, e.g. a support-count or step limit
    was exceeded, or a bounded search was exhausted (CLI exit code 2)."""

    kind = "declined"
    exit_code = 2


class InternalError(TorusGitError):
    """An internal invariant was violated; indicates a bug (CLI exit code 3)."""


def guard_supports(dim: int, max_supports: int) -> None:
    """Decline a scan over the 2^dim supports of A^dim above ``max_supports``."""
    if 1 << dim > max_supports:
        raise ComputationDeclined(f"2^{dim} supports exceed --max-supports={max_supports}")
