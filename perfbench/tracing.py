"""Span recording around the calls into each lindbladiff layer.

The tracer replaces module attributes at the binding sites the pipeline
calls through (for example ``lindbladiff.qfi.eigh`` as well as
``lindbladiff.eigen.eigh``), so the package itself stays unmodified.  Every
wrapped call records one span: site name, the wrapped function's home
(``"eigen.eigh"``), start, end, parent span and op id, plus a few exact
attributes taken from arguments or results.  Spans stay in memory; the
benchmark reduces them to per-layer metrics and writes them out at the end.

Modules are looked up through ``sys.modules``: the package ``__init__``
re-exports functions called ``qfi`` and ``eigh``, which shadow the
submodule attributes of the same name.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _eigh_attrs(args, kwargs, result):
    m = np.ascontiguousarray(args[0])
    return {"input": hashlib.sha1(m.tobytes()).hexdigest()}


def _integrate_attrs(args, kwargs, result):
    s = result.stats
    return {"accepted": s.accepted, "rejected": s.rejected, "rhs": s.rhs_evaluations}


def _segment_attrs(args, kwargs, result):
    return {"steps": len(result) - 1}


def _gradient_attrs(args, kwargs, result):
    return {"longest_segment": result.diagnostics["longest_segment"]}


def _pipeline_attrs(args, kwargs, result):
    return {"want_gradient": bool(kwargs.get("want_gradient", False))}


# (module, attribute, attrs) for every binding site; a dotted attribute is
# a method on a class of that module.
SITES = (
    ("solver", "lindblad_rhs", None),
    ("solver", "dense_segment", _segment_attrs),
    ("sensitivity", "lindblad_rhs", None),
    ("sensitivity", "adjoint_liouvillian_apply", None),
    ("sensitivity", "rhs_parameter_derivative", None),
    ("sensitivity", "dense_segment", _segment_attrs),
    ("sensitivity", "CostCofunction.verify", None),
    ("qfi", "integrate", _integrate_attrs),
    ("qfi", "eigh", _eigh_attrs),
    ("qfi", "qfi", None),
    ("qfi", "qfi_rho_cotangent", None),
    ("qfi", "adjoint_gradient", _gradient_attrs),
    ("qfi", "eig_vjp", None),
    ("eigen", "eigh", _eigh_attrs),
    ("model", "DensityOperator.from_matrix", None),
    ("optimize", "qfi_of_params", _pipeline_attrs),
)

# attrs for the benchmark's own top-level calls, keyed by function home
ROOT_ATTRS = {
    "solver.integrate": _integrate_attrs,
    "qfi.qfi_of_params": _pipeline_attrs,
}


def _home(fn) -> str:
    return f"{fn.__module__.removeprefix('lindbladiff.')}.{fn.__qualname__}"


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        # span: [site, home, start, end, parent index or -1, op id, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    def wrap(self, site: str, fn, attrs=None):
        home = _home(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [site, home, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[6] = attrs(args, kwargs, result)
            return result

        return wrapper

    def call(self, fn, *args, **kwargs):
        """Run one top-level call of the benchmark as a root span."""
        return self.wrap("bench." + fn.__name__, fn, ROOT_ATTRS.get(_home(fn)))(*args, **kwargs)

    def install(self) -> None:
        for mod_name, attr, attrs in SITES:
            owner = sys.modules[f"lindbladiff.{mod_name}"]
            site = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(site, raw.__func__, attrs))
            else:
                patched = self.wrap(site, raw, attrs)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def to_json(self) -> list[dict]:
        keys = ("site", "home", "start", "end", "parent", "op", "attrs")
        return [dict(zip(keys, s)) for s in self.spans]


def self_times(spans: list[list], lo: int) -> list[float]:
    """Self time of each span in ``spans[lo:]``: its duration minus the time
    its direct children cover.  ``lo`` must be the index of a root span."""
    covered = [0.0] * (len(spans) - lo)
    for s in spans[lo:]:
        if s[4] >= 0:
            covered[s[4] - lo] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans[lo:], covered)]


def op_layers(spans: list[list], lo: int) -> dict:
    """Reduce the spans of one op, ``spans[lo:]``, to per-function self
    time, call counts and exact counts."""
    own = self_times(spans, lo)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    eigh_inputs = set()
    longest = 0
    for s, t in zip(spans[lo:], own):
        home, attrs = s[1], s[6] or {}
        self_s[home] += t
        calls[home] += 1
        if home == "eigen.eigh":
            eigh_inputs.add(attrs["input"])
        elif home == "solver.integrate":
            counts["accepted"] += attrs["accepted"]
            counts["rejected"] += attrs["rejected"]
            counts["forward_rhs"] += attrs["rhs"]
        elif home == "solver.dense_segment":
            counts["replay_steps"] += attrs["steps"]
        elif home == "sensitivity.adjoint_gradient":
            longest = max(longest, attrs["longest_segment"])
        elif home == "qfi.qfi_of_params" and s[4] >= 0:
            counts["grad_evals" if attrs["want_gradient"] else "value_evals"] += 1
        elif home == "qfi.qfi" and s[4] >= 0 and spans[s[4]][1] == "sensitivity.CostCofunction.verify":
            counts["cost_evals"] += 1
    counts["eigh_distinct"] = len(eigh_inputs)
    counts["longest_segment"] = longest
    return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts)}
