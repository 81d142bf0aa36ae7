"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: InputError -> 3, HypothesisError and
PremiseError -> 2, LinearProgramError -> 4 (report status ``lp_error``),
anything else is a bug.
"""


class EvpkitError(Exception):
    """Base class for all package errors."""


class InputError(EvpkitError):
    """Malformed or invariant-violating input data."""


class HypothesisError(EvpkitError):
    """A checkable hypothesis of the requested result fails.

    Carries the name of the failed hypothesis plus optional witness data.
    """

    def __init__(self, name, detail=None, witness=None):
        self.name = name
        self.detail = detail
        self.witness = witness
        msg = f"hypothesis '{name}' failed"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class PremiseError(EvpkitError):
    """The premise of the requested result fails on this instance."""

    def __init__(self, detail=None, witness=None):
        self.detail = detail
        self.witness = witness
        super().__init__(detail or "premise failed")


class LinearProgramError(EvpkitError):
    """The LP kernel hit its iteration cap (should not happen on valid data)."""
