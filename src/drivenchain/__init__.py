"""Boundary-driven zero-range chains: simulation, exact measures, verification.

Two models share the toolkit: a particle chain whose sites shed k particles
at rate 1/k toward each neighbour or boundary reservoir, and its continuous
energy counterpart driven by an infinite-activity jump measure.  Their
stationary laws are order-statistics mixtures of product geometrics and
exponentials; this package simulates the dynamics, samples the exact laws,
and machine-checks the identities that make the mixtures stationary.
"""

from .core import (
    ChainParams,
    QuadratureError,
    harmonic_number,
    make_rng,
    quadrature_1d,
)
from .measure import (
    DensityEstimate,
    MixtureSpec,
    Model,
    ProfileMoments,
    geometric_pmf,
    exponential_pdf,
    marginal_cdf_continuous,
    marginal_pmf_discrete,
    mixture_density_continuous,
    mixture_density_discrete,
    moment_profile,
    sample_exact_continuous,
    sample_exact_discrete,
    sample_ordered_profile,
)
from .discrete_sim import simulate
from .continuous_sim import simulate_continuous
from .occupation import OccupationStats
from .stats import profile_report
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
