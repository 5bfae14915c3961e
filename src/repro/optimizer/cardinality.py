"""The estimator's old path, kept only because ``bench/stepwise.py`` imports
it from here; the estimator lives in :mod:`repro.costing.cardinality`."""

from repro.costing.cardinality import CardinalityEstimator

__all__ = ["CardinalityEstimator"]
