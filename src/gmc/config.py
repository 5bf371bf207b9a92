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

    truncation is the only output length N of smoothing; the input is read as far as
    the kernel rows of those outputs reach. A test function's (p, q) rule
    size is read off its terms; smoothing's Hermite table has its own p count, set by
    the support's width and the Hermite degrees, not by that rule; its Gauss-Hermite
    rule is the least count exact on the degrees it reads and the support's phase.
    Smoothing runs one pass and checks its (p, q) rule against a finer one on the same
    Hermite table, to check_tol relative to the result.
    """

    truncation: int = 40
    check_tol: float = 1e-6


DEFAULT_TOLERANCES = ToleranceTable()
DEFAULT_QUADRATURE = QuadratureSpec()
