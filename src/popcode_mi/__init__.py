"""Fisher-information approximations to the mutual information of neural
population codes.

The package computes the log-determinant approximations I_F, I_G and I_G+
to the mutual information between a stimulus and the response of a large
neural population, validates them against an exact Monte Carlo reference
and closed-form Gaussian channels, and optimizes the population density of
tuning parameters as a concave program over the probability simplex.

Submodules
----------
models     Poisson populations of von Mises tuning curves, linear-Gaussian channel
fisher     priors: entropy, curvature P(x) and score covariance P+
mi         the approximation formulas, exact Gaussian MI, gap bounds
mc         Monte Carlo reference estimator for Poisson populations, with bootstrap bars
transform  input transforms, whitening, block dimensionality reduction
optimize   population-density optimization, KKT certificates, capacity
cli        the ``popcode-mi`` experiment runner
"""

__version__ = "0.1.0"
