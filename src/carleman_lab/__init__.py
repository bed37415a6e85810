"""Carleman lifts of quadratic ODEs: build, measure, certify, diagonalize."""

__version__ = "0.1.0"
