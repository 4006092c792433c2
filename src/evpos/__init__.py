"""evpos: classification of complex linear operators in the eventual /
asymptotic positivity hierarchy, with numerical verification of the
Perron-Frobenius-type spectral conclusions that follow."""

__version__ = "0.1.0"

from .classify import (
    Confirmed,
    Notion,
    PositivityVerdict,
    RefutedWithWitness,
    UndeterminedUpToHorizon,
    classify_asymptotic,
    classify_eventual,
    delta_n,
    hierarchy_violations,
    individual_eventual,
    uniform_eventual,
    weak_eventual,
)
from .lattice import (
    Ell1,
    Ell2,
    EllInf,
    GridSup,
    LatticeVector,
    LpQuadrature,
    cone_distance,
)
from .operators import Dense, Diagonal, RankK, WeightedShift
from .spectral import Spectrum, eigenvalues, peripheral_spectrum
from .verify import (
    CheckResult,
    multiplicity_monotonicity_check,
    peripheral_cyclicity_check,
    positive_eigenvector,
    verify_spr_in_spectrum,
)

__all__ = [
    "__version__",
    "CheckResult",
    "Confirmed",
    "Dense",
    "Diagonal",
    "Ell1",
    "Ell2",
    "EllInf",
    "GridSup",
    "LatticeVector",
    "LpQuadrature",
    "Notion",
    "PositivityVerdict",
    "RankK",
    "RefutedWithWitness",
    "Spectrum",
    "UndeterminedUpToHorizon",
    "WeightedShift",
    "classify_asymptotic",
    "classify_eventual",
    "cone_distance",
    "delta_n",
    "eigenvalues",
    "hierarchy_violations",
    "individual_eventual",
    "multiplicity_monotonicity_check",
    "peripheral_cyclicity_check",
    "peripheral_spectrum",
    "positive_eigenvector",
    "uniform_eventual",
    "verify_spr_in_spectrum",
    "weak_eventual",
]
