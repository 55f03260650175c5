"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An operation was invoked on inputs outside its stated assumptions.

    The message names the violated assumption (e.g. "Laplacian analysis
    requires a simple graph"). The CLI maps this to exit code 2.
    """


class InconsistencyError(RuntimeError):
    """A closed-form certificate and its numeric confirmation disagree.

    This is never downgraded to a warning: if a formula predicts state
    transfer and the walk does not exhibit it (or vice versa), something is
    wrong with the inputs or the build, and silently preferring either side
    would hide it. The CLI maps this to exit code 3.
    """


class NumericError(RuntimeError):
    """A numeric routine failed: the eigensolver (LAPACK, through numpy)
    did not converge, or the walk entry used to confirm a transfer (the
    exponential of an equitable quotient) came out non-finite. The CLI
    maps this to exit code 3.
    """


class IntegerOverflowError(OverflowError):
    """An exact integer computation left the 64-bit range."""
