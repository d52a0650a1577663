"""Aspect-level review sentiment features for quarterly revenue-growth forecasting."""

__version__ = "0.1.0"
