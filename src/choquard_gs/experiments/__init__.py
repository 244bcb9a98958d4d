"""Experiment drivers: verification suites, sign studies, and limit sweeps."""
