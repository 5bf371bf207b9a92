"""Shared numeric configuration: tolerance table and quadrature defaults.

Tolerances are per-model constants: the torus path is spectrally exact
(float-roundoff scale), the Heisenberg path is limited by quadrature and
truncation. heisenberg_fd bounds the Heisenberg property rows; config files
set it by that name.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceTable:
    torus_exact: float = 1e-13
    heisenberg_fd: float = 5e-5
    pair_abs_tol: float = 1e-12
    mass_tol: float = 1e-10
    quadrature_check: float = 1e-7

    def override(self, **kwargs) -> "ToleranceTable":
        bad = set(kwargs) - set(self.__dataclass_fields__)
        if bad:
            raise KeyError(f"unknown tolerance keys: {sorted(bad)}")
        return replace(self, **kwargs)


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncations and the Heisenberg smoothing rule.

    box_nodes is the per-axis Gauss-Legendre count on the (p, q) plane; the
    group-side kernels and the central t-integral are in closed form, and
    smoothing sizes its x-space rule from the truncations. Smoothing
    self-checks against a finer rule unless self_check is disabled.
    """

    truncation: int = 40
    box_nodes: int = 48
    input_margin: int = 32
    self_check: bool = True
    check_tol: float = 1e-6

    def override(self, **kwargs) -> "QuadratureSpec":
        bad = set(kwargs) - set(self.__dataclass_fields__)
        if bad:
            raise KeyError(f"unknown quadrature keys: {sorted(bad)}")
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = ToleranceTable()
DEFAULT_QUADRATURE = QuadratureSpec()
