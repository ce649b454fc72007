"""Exception hierarchy and warning categories.

Every domain error raised by the package derives from NehariLabError so the
CLI can map any of them to exit code 1; configuration/usage problems derive
from ConfigError and map to exit code 2.
"""


class NehariLabError(Exception):
    """Base class for all domain errors raised by this package."""


# --- parameter validation -------------------------------------------------

class ParameterValidationError(NehariLabError, ValueError):
    """A problem configuration violates one or more hypotheses.

    ``violations`` lists every violated constraint by name, not just the one
    that selected the exception class.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class WeightViolation(ParameterValidationError):
    """alpha <= 0, mu <= 0 or 2*alpha + mu >= N."""


class SingularExponentViolation(ParameterValidationError):
    """q outside (0, 1)."""


class ExponentWindowViolation(ParameterValidationError):
    """p outside the open admissibility window."""


class PotentialDecayViolation(ParameterValidationError):
    """gamma3 or gamma4 outside its admissible window."""


# --- grids ----------------------------------------------------------------

class GridError(NehariLabError, ValueError):
    pass


class DegenerateGrid(GridError):
    """Too few nodes to build a usable grid."""


class UnsupportedDimension(GridError):
    """Operation only available in N = 3."""


class LengthMismatch(GridError):
    """Nodal array does not match the grid."""


class GridTooLarge(GridError):
    """Direct engine's box past its 29 MB peak (m > 76), or dense radial kernel above
    M = 4096 (its build holds the M^2 matrix plus one 64-row block)."""


class SnapshotError(NehariLabError, ValueError):
    """Snapshot file malformed or checksum mismatch."""


# --- functionals ----------------------------------------------------------

class NotInPositiveCone(NehariLabError, ValueError):
    """Function is not a nonnegative, nonzero grid function."""


class KernelDomain(NehariLabError, ValueError):
    """Kernel exponent mu outside (0, N)."""


# --- fibering -------------------------------------------------------------

class NonpositiveT(NehariLabError, ValueError):
    pass


class ZeroA(NehariLabError, ValueError):
    pass


class ZeroB(NehariLabError, ValueError):
    pass


class RootBracketFailure(NehariLabError, RuntimeError):
    """Root refinement failed its residual tolerance (internal)."""


# --- extremal -------------------------------------------------------------

class EmptyFamily(NehariLabError, ValueError):
    pass


# --- solver ---------------------------------------------------------------

class RayMissesNehari(NehariLabError, RuntimeError):
    """lambda > Lambda_n(u), or lambda within the tangency band of it: the
    ray through u carries no Nehari point off the tangency."""


# --- sweep ----------------------------------------------------------------

class NoSignChange(NehariLabError, RuntimeError):
    """Sweep window does not bracket the bound-state energy sign change."""


# --- cli ------------------------------------------------------------------

class ConfigError(NehariLabError, ValueError):
    """Malformed or inconsistent run configuration (usage error)."""


# --- warnings -------------------------------------------------------------

class ProfileNotInX(UserWarning):
    """Sampled profile decays too slowly for the truncated energy space."""
