"""Spans at gmc's public boundaries, recorded by wrappers installed from outside.

install() replaces each traced function wherever a caller looks it up: the
defining module, every gmc module that imported the name, and the function
fields of GroupModel bundles such as torus.TORUS and heisenberg.HEISENBERG.
uninstall() puts every original back. Spans stay in memory until dump().

A span is (name, start, end, parent index, request id). A boundary's self
time is its span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute path) -> boundary name; each is a public entry point of a layer
BOUNDARIES = (
    ("gmc.cli", "main"),
    ("gmc.specs", "parse_vector"),
    ("gmc.specs", "parse_test_function"),
    ("gmc.suites", "run_suite"),
    ("gmc.functionals", "GMCFunctional.evaluate"),
    ("gmc.mollify", "gmc_approx"),
    ("gmc.mollify", "mollify"),
    ("gmc.mollify", "push_forward"),
    ("gmc.mollify", "BumpProfile.standard"),
    ("gmc.torus", "gmc_eval"),
    ("gmc.torus", "smooth_by"),
    ("gmc.torus", "series_partial_sum"),
    ("gmc.heisenberg", "gmc_eval"),
    ("gmc.heisenberg", "smooth_by"),
    ("gmc.heisenberg", "fourier_wigner"),
    ("gmc.heisenberg", "act_group"),
    ("gmc.heisenberg", "act_algebra"),
    ("gmc.hermite", "hermite_scaled"),
    ("gmc.hermite", "gauss_hermite_rule"),
    ("gmc.groups", "factorize"),
    ("gmc.uea", "uea_multiply"),
    ("gmc.uea", "uea_antipode"),
    ("gmc.vectors", "pair"),
    ("gmc.vectors", "steepen_envelope"),
)

# boundaries whose inclusive time is reported as busy_s (outermost calls only)
ENTRY_BOUNDARIES = ("cli.main", "suites.run_suite", "functionals.GMCFunctional.evaluate", "mollify.gmc_approx")

# boundaries whose GmcError exits are counted
ERROR_BOUNDARIES = ("heisenberg.smooth_by", "heisenberg.fourier_wigner", "vectors.pair")


def boundary_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    def __init__(self, gmc_error: type):
        self.gmc_error = gmc_error
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span index, child time]
        self.request_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.suite_busy_s: dict[str, float] = defaultdict(float)
        self.coeff_calls = 0
        self.bandwidth_sum = 0
        self.hermite_evals = 0
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self.stack[-1][0] if self.stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, parent, self.request_id))
        self.stack.append([index, 0.0])
        self.depth[name] += 1
        return index

    def _exit(self, name: str, index: int) -> float:
        end = time.perf_counter()
        _, start, _, parent, rid = self.spans[index]
        self.spans[index] = (name, start, end, parent, rid)
        _, child = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.depth[name] -= 1
        if self.depth[name] == 0:
            self.busy_s[name] += duration
        if self.stack:
            self.stack[-1][1] += duration
        return duration

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except tracer.gmc_error:
                tracer.errors[name] += 1
                raise
            finally:
                duration = tracer._exit(name, index)
            tracer._count(name, args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, name: str, args, kwargs, result, duration: float) -> None:
        if name == "mollify.push_forward":
            self.bandwidth_sum += getattr(result, "bandwidth", 0)
        elif name == "hermite.hermite_scaled":
            x = args[0] if args else kwargs["x"]
            nmax = args[1] if len(args) > 1 else kwargs["nmax"]
            self.hermite_evals += int(np.size(x)) * (nmax + 1)
        elif name == "suites.run_suite":
            self.suite_busy_s[args[0] if args else kwargs["name"]] += duration

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "gmc" or n.startswith("gmc.")}
        models = self._group_models(modules)
        for module_name, attr in BOUNDARIES:
            name = boundary_name(module_name, attr)
            owner = modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                self._set(cls, meth, wrapped)
                # an alias such as GMCFunctional.__call__ = evaluate
                for alias, value in list(cls.__dict__.items()):
                    if value is raw and alias != meth:
                        self._set(cls, alias, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
            for model in models:
                for f in dataclasses.fields(model):
                    if getattr(model, f.name) is original:
                        self._set_frozen(model, f.name, wrapped)
        self._install_coeff_counter(modules["gmc.vectors"].CoefficientVector)

    def _install_coeff_counter(self, cls) -> None:
        original = cls.__dict__["coeff"]
        tracer = self

        def coeff(vec, k):
            tracer.coeff_calls += 1
            return original(vec, k)

        self._set(cls, "coeff", coeff)

    @staticmethod
    def _group_models(modules) -> list:
        group_model = modules["gmc.groups"].GroupModel
        seen = {}
        for module in modules.values():
            for value in vars(module).values():
                if isinstance(value, group_model):
                    seen[id(value)] = value
        return list(seen.values())

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, vars(owner)[key], False))
        setattr(owner, key, value)

    def _set_frozen(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key), True))
        object.__setattr__(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value, frozen in reversed(self._restore):
            if frozen:
                object.__setattr__(owner, key, value)
            else:
                setattr(owner, key, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self, suites) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for module_name, attr in BOUNDARIES:
            name = boundary_name(module_name, attr)
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        for name in ENTRY_BOUNDARIES:
            out[f"{name}.busy_s"] = (self.busy_s.get(name, 0.0), "s")
        for suite in suites:
            out[f"suites.{suite}.busy_s"] = (self.suite_busy_s.get(suite, 0.0), "s")
        out["vectors.CoefficientVector.coeff.calls"] = (self.coeff_calls, "count")
        out["mollify.push_forward.bandwidth_sum"] = (self.bandwidth_sum, "count")
        out["hermite.hermite_scaled.evals"] = (self.hermite_evals, "count")
        for name in ERROR_BOUNDARIES:
            out[f"{name}.errors"] = (self.errors.get(name, 0), "count")
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "request": rid}
                    )
                    + "\n"
                )
