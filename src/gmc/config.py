"""Shared numeric configuration: tolerance table and quadrature defaults.

Tolerances are per-model constants: the torus path is spectrally exact
(float-roundoff scale), the Heisenberg path is limited by quadrature and
truncation. heisenberg_fd bounds the Heisenberg property rows; config files
set it by that name.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceTable:
    torus_exact: float = 1e-13
    heisenberg_fd: float = 5e-5
    mass_tol: float = 1e-10


@dataclass(frozen=True)
class QuadratureSpec:
    """Heisenberg truncation and the smoothing self-check tolerance.

    truncation is the only output length N of smoothing; an infinite input is read
    at least heisenberg.INPUT_MARGIN columns past it. A test function's (p, q) rule
    size is read off its terms, and smoothing sizes its Gauss-Hermite rule from the
    truncations and the support's largest |q|. Smoothing runs one pass and checks
    it, to check_tol relative to the result: its (p, q) rule against a finer one,
    and an input with coefficients past the band it reads against a longer one,
    both on the same Hermite table.
    """

    truncation: int = 40
    check_tol: float = 1e-6


DEFAULT_TOLERANCES = ToleranceTable()
DEFAULT_QUADRATURE = QuadratureSpec()
