"""Affordance/word network, gesture HMMs, probabilistic fusion and descriptions."""

__version__ = "0.1.0"
