"""Exception hierarchy shared across the package.

A ValueError signals bad user input (CLI exit code 2); a NumericalError
signals a failed computation on valid input (CLI exit code 3), as does a
MemoryError, an allocation that the machine refuses.
"""


class NumericalError(RuntimeError):
    """A numerical routine failed on otherwise valid input."""


class ConvergenceError(NumericalError):
    """An iterative routine did not reach its tolerance."""


class InvariantViolation(NumericalError):
    """A computed object violates a structural invariant beyond tolerance."""
