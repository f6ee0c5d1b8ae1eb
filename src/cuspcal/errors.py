"""Exception types shared by all cuspcal modules."""


class CuspcalError(Exception):
    """Base class for errors raised by this package."""


class RankDeficient(CuspcalError):
    """A basis matrix failed its full-column-rank certificate."""


class ContourTooClose(CuspcalError):
    """Contour quadrature did not converge under node doubling.

    Signals an eigenvalue at or very near the integration contour.
    """

    def __init__(self, best_defect, nodes):
        self.best_defect = float(best_defect)
        self.nodes = int(nodes)
        super().__init__(
            f"idempotence defect {best_defect:.3e} after {nodes} quadrature nodes"
        )


class SpectrumNearAxis(CuspcalError):
    """A companion eigenvalue is on or near the real axis at xi': the symbol
    is not elliptic there. margin = min |Im lambda| / max(1, max |lambda|)."""

    def __init__(self, xi_prime, margin, tol):
        self.xi_prime = tuple(float(x) for x in xi_prime)
        self.margin = float(margin)
        super().__init__(f"companion spectrum at relative distance {margin:.3e} "
                         f"from the real axis at xi'={self.xi_prime} (tol {tol:.0e})")


class NotComplementary(CuspcalError):
    """Two subspaces expected to be complementary are not."""

    def __init__(self, message, gap=None, mu=None):
        self.gap = gap
        self.mu = mu
        if mu is not None:
            message = f"{message} (mu={mu})"
        if gap is not None:
            message = f"{message} [gap={gap:.3e}]"
        super().__init__(message)


class GramNotPD(CuspcalError):
    """The supplied inner-product matrix is not Hermitian positive definite."""


class ZeroCovector(CuspcalError):
    """A tangential covector was zero where a nonzero one is required."""


class GraphConditionFailed(CuspcalError):
    """Dirichlet data is not free: the projected range has no graph form."""


class NotInvertible(CuspcalError):
    """A matrix that the construction requires to be invertible is singular."""


class PointFibre(CuspcalError):
    """Operation requires an interval fibre but the model has a point fibre."""


class IntegrationFailure(CuspcalError):
    """The ODE integrator failed or its a-posteriori residual is too large."""

    def __init__(self, message, z=None, stepsize=None):
        self.z = z
        self.stepsize = stepsize
        super().__init__(message)


class UCPViolated(CuspcalError):
    """A kernel vector is supported entirely on the plus side."""


class SideConditionViolated(CuspcalError):
    """A hypothesis of the modification/augmentation algebra fails."""


class GeometryMismatch(CuspcalError):
    """Operator and grid (or operation) belong to different model geometries."""


class SolveFailure(CuspcalError):
    """A linear solve or a residual certification failed."""


class TraceUnstable(CuspcalError):
    """One-sided trace extrapolation is unstable at the interface."""

    def __init__(self, report, tol):
        self.report = float(report)
        self.tol = float(tol)
        super().__init__(f"trace stability report {report:.3e} exceeds {tol:.3e}")


class SchemaError(CuspcalError):
    """A configuration file violates the expected schema."""

    def __init__(self, path, reason):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")
