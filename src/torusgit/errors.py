"""Exception hierarchy shared by every module; each class carries the
``kind`` the CLI prints in its error document and the ``exit_code`` it returns.
Also the default of the support-count guard, which raises ComputationDeclined."""

# kept out of the engine modules, so that building the CLI parser loads none of them
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
