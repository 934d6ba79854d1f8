"""Needlet analysis on the sphere and spectral estimation from masked,
noisy observations, with a reproducible Monte Carlo harness."""
