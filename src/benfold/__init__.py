"""benfold: exact values and rigorous bounds for folded densities vs uniform.

The library answers one question in three independent ways: how far is
n*X mod 1 from the uniform distribution on [0, 1) (equivalently, how far is
the significand of X**n from its logarithmic limit)?  `closed` holds the
log-uniform closed forms in the standard library only; `density` represents
piecewise-smooth densities and their variation and `bounds` computes upper
bounds for any of them; `oracle` folds densities modulo 1 and provides the
independent numerical ground truth used to validate every bound.

The public names below are loaded on first access (PEP 562), so importing
the package, or using only the closed forms, does not import numpy.  Nor do
densities, which are made of const, linear and exp segments, their bounds
and their quadrature oracle, which fold in `math`; arrays, vectorized
integrands and Monte Carlo import it on first use.  numpy is the only
third-party dependency.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        "BisectionError BoundReport DensityError ExactUniformParams QuadratureError "
        "VacuousBoundError bound_fourier_closed bound_uniform_log_tv exact_delta_uniform "
        "folded_cdf_uniform fourier_coeff_uniform_log".split(),
        "closed",
    ),
    **dict.fromkeys(
        "PiecewiseDensity Segment const_segment exp_segment linear_segment "
        "normalized scale_density triangular_density tv_full_line "
        "tv_integer_delineated uniform_density uniform_log_density".split(),
        "density",
    ),
    **dict.fromkeys(
        "bound_convex_eighth bound_fourier_parseval bound_step_density bound_tv_quarter "
        "bound_tv_scaled uniform_log_coeffs uniform_log_tail_bound".split(),
        "bounds",
    ),
    **dict.fromkeys(
        "FoldedDensity OracleResult QuadratureConfig adaptive_simpson averaging_residual "
        "check_averaging_inequality delta_crossing_unimodal delta_monte_carlo delta_numeric "
        "fold_mod1 integrate inverse_cdf_sampler".split(),
        "oracle",
    ),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    # only the table's names resolve; dunders and typos fail as usual
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
