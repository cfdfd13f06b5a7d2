"""Numerical laboratory for the gaussian behavior of low-dimensional projections
of isotropic log-concave samples.

The package covers the full experimental loop: draw isotropic samples from a
closed catalog of bodies, optionally smooth them with a scheduled gaussian
convolution, project onto Haar-random subspaces, estimate projected densities
pointwise, and compare against exact sphere-marginal kernels, radial mixtures,
thin-shell statistics and deconvolution sandwich certificates.

The package re-exports nothing: import from its modules (``projclt.model``,
``projclt.samplers``, ``projclt.density``, ...).  Only the kernels that call
scipy import it, so ``import projclt.cli`` loads no scipy module.
"""

__version__ = "0.1.0"
