"""radonlik: likelihoods as density kernels against named dominating measures.

The package verifies, at desk scale, that likelihood curves obtained under
different dominating measures are proportional in the parameter and lead to
identical maximizers and posteriors, across point-mass mixtures, exponential
families, Poisson processes, and discretely observed diffusions.
"""

from .likelihood import (LogLikelihoodCurve, ModelFamily, ProportionalityReport,
                         SampleSpace, argmax_indices, argmax_invariance,
                         check_proportionality, eval_log_density, finite_family,
                         likelihood_curve, neighborhood_density_limit)
from .measures import (DominatingMeasure, MixtureMeasure, atomwise_abs_continuous,
                       build_minimal_dominating_measure, verify_dominance)

__version__ = "0.1.0"

__all__ = [
    "DominatingMeasure",
    "LogLikelihoodCurve",
    "MixtureMeasure",
    "ModelFamily",
    "ProportionalityReport",
    "SampleSpace",
    "argmax_indices",
    "argmax_invariance",
    "atomwise_abs_continuous",
    "build_minimal_dominating_measure",
    "check_proportionality",
    "eval_log_density",
    "finite_family",
    "likelihood_curve",
    "neighborhood_density_limit",
    "verify_dominance",
]
