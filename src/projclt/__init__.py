"""Numerical laboratory for the gaussian behavior of low-dimensional projections
of isotropic log-concave samples.

The package covers the full experimental loop: draw isotropic samples from a
closed catalog of bodies, optionally smooth them with a scheduled gaussian
convolution, project onto Haar-random subspaces, estimate projected densities
pointwise, and compare against exact sphere-marginal kernels, radial mixtures,
thin-shell statistics and deconvolution sandwich certificates.
"""

from .errors import (
    DimensionError,
    DimensionTooHigh,
    DomainError,
    EmptyBatch,
    GridTooCoarse,
    InvalidSpec,
    ProjCltError,
    RangeError,
    TooFewSamples,
)
from .model import (
    BodyKind,
    BodySpec,
    ConvolutionSchedule,
    DeconvCertificate,
    DensityEstimate,
    GaussianSpec,
    RadialDensity,
    RatioReport,
    SubspaceBasis,
    dumps,
    from_jsonable,
    loads,
    to_jsonable,
)
from .samplers import (
    SampleBatch,
    convolve_and_rescale,
    load_batch,
    sample_body,
    sample_gaussian,
    save_batch,
    save_batch_csv,
)
from .grassmann import project, random_subspace
from .spherical import (
    KernelParams,
    chi_log_pdf,
    gaussian_density,
    log_gamma_nl,
    psi,
    psi_ball_mass,
    psi_gaussian_ratio_scan,
    radial_mixture_marginal,
)
from .radial import ThinShellFraction, thin_shell_fraction
from .density import (
    estimate_density,
    m_tilde_profile,
    radial_points,
    ratio_to_gaussian,
    scott_bandwidth,
)
from .deconvolution import (
    BODIES_1D,
    DeconvParams,
    SandwichReport,
    body_convolved_density_1d,
    body_density_1d,
    check_conditions,
    grid_convolve,
    sandwich_margins,
    verify_sandwich,
)
from .suite import CriterionResult, run_all, run_criterion

__version__ = "0.1.0"
