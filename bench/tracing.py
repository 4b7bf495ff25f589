"""Spans and counters around the public functions of ``gausspack``.

The tracer wraps functions from outside the package: it replaces each
target, in every ``gausspack`` module that holds it, by a wrapper that times
the call, records a span (name, start, end, parent span) and updates
counters.  High-frequency leaves (Gauss rules, integrand evaluations,
Hermite recurrences) are timed and counted but keep no span.  Everything
stays in memory until :meth:`Tracer.dump`.  A target that no longer exists
is listed in :attr:`Tracer.absent` and its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

_INTEGRAL = "quadrature.integrate_adaptive"
_PROPAGATORS = ("propagate.propagate_free", "propagate.propagate_oscillator", "propagate.propagate_magnetic")


def _rule_hook(tracer: "Tracer", args, kwargs, result, stack) -> None:
    for _, name in stack:
        tracer.count(f"rule_evals@{name}")


def _points_hook(tracer: "Tracer", args, kwargs, result, stack) -> None:
    if any(name == _INTEGRAL for _, name in stack):
        x = args[1] if len(args) > 1 else kwargs["x"]
        tracer.count("integrand_points", np.size(x))


def _integral_hook(tracer: "Tracer", args, kwargs, result, stack) -> None:
    tracer.op_integrals += 1


def _targets_hook(tracer: "Tracer", args, kwargs, result, stack) -> None:
    targets = args[2] if len(args) > 2 else kwargs["targets"]
    tracer.count("propagate_targets", len(targets))


def _evaluations_hook(tracer: "Tracer", args, kwargs, result, stack) -> None:
    tracer.count("minimize_evaluations", result.n_evaluations)


def _terms_hook(tracer: "Tracer", args, kwargs, result, stack) -> None:
    tracer.count("fock_terms", len(result.coeffs))


#: (metric prefix, module, function, leaf, hook)
TARGETS = (
    ("quadrature", "gausspack.oracle.quadrature", "integrate_adaptive", False, _integral_hook),
    ("quadrature", "gausspack.oracle.quadrature", "gauss_legendre_2d", True, _rule_hook),
    ("packet", "gausspack.packet", "density", True, _points_hook),
    ("packet", "gausspack.packet", "wavefunction", True, _points_hook),
    ("moments", "gausspack.oracle.moments", "expectation", False, None),
    ("moments", "gausspack.oracle.moments", "norm_integral", False, None),
    ("propagate", "gausspack.oracle.propagate", "propagate_free", False, _targets_hook),
    ("propagate", "gausspack.oracle.propagate", "propagate_oscillator", False, _targets_hook),
    ("propagate", "gausspack.oracle.propagate", "propagate_magnetic", False, _targets_hook),
    ("minimize", "gausspack.oracle.minimize", "minimize_free", False, _evaluations_hook),
    ("packet", "gausspack.packet", "covariances", False, None),
    ("minimal", "gausspack.minimal", "build_min_packet", False, None),
    ("fluctuations", "gausspack.fluctuations", "sigma_l", False, None),
    ("fluctuations", "gausspack.fluctuations", "sigma_e", False, None),
    ("fock", "gausspack.fock", "fock_coefficients", False, _terms_hook),
    ("evolution", "gausspack.evolution", "evolve_free", False, None),
    ("evolution", "gausspack.evolution", "evolve_oscillator", False, None),
    ("evolution", "gausspack.evolution", "evolve_magnetic", False, None),
    ("special", "gausspack.special", "hermite_scaled", True, None),
    ("cli", "gausspack.cli", "main", False, None),
)


class Tracer:
    """Wraps the :data:`TARGETS` and aggregates per phase.

    ``phase`` labels what is being recorded; while it is ``None`` the
    wrappers pass straight through, so the benchmark's own checks, which
    also call closed forms, are not counted.
    """

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.spans: list[tuple] = []
        self.calls: dict[tuple, int] = defaultdict(int)
        self.seconds: dict[tuple, float] = defaultdict(float)
        self.counters: dict[tuple, float] = defaultdict(float)
        self.absent: list[str] = []
        self.op_integrals = 0
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._ids = 0

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.phase, name)] += amount

    def begin_op(self) -> None:
        self.op_integrals = 0

    def end_op(self) -> None:
        if self.op_integrals:
            self.count("ops_with_integrals")
            self.count("integrals", self.op_integrals)

    def _wrap(self, name: str, fn: Callable, leaf: bool, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else None
            if not leaf:
                tracer._ids += 1
                span_id = tracer._ids
                stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if not leaf:
                    stack.pop()
                    tracer.spans.append((span_id, parent, name, phase, start, end))
                tracer.calls[(phase, name)] += 1
                tracer.seconds[(phase, name)] += end - start
            if hook is not None:
                hook(tracer, args, kwargs, result, stack)
            return result

        return wrapper

    def install(self) -> None:
        for prefix, module_name, attr, leaf, hook in TARGETS:
            name = f"{prefix}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, leaf, hook)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "gausspack" or mod_name.startswith("gausspack.")) or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def dump(self, path: Path, extra: dict) -> None:
        """Write spans and aggregates as JSON."""
        def keyed(table: dict) -> dict:
            return {f"{phase}:{name}": value for (phase, name), value in table.items()}

        document = {
            **extra,
            "absent": self.absent,
            "calls": keyed(self.calls),
            "seconds": keyed(self.seconds),
            "counters": keyed(self.counters),
            "span_fields": ["id", "parent", "name", "phase", "start", "end"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(document))

    # -- per-layer metrics ------------------------------------------------

    def _phase_for(self, names: tuple[str, ...], preferred: str, fallback: str) -> Optional[str]:
        for phase in (preferred, fallback):
            if any(self.calls.get((phase, n), 0) for n in names):
                return phase
        return None

    def metrics(self, preferred: str, fallback: str) -> dict[str, Optional[float]]:
        """Per-layer metrics; each from ``preferred`` if that phase used the layer.

        ``None`` marks a metric whose function is absent or was never called.
        """
        out: dict[str, Optional[float]] = {}

        def mean(name: str, scale: float) -> Optional[float]:
            phase = self._phase_for((name,), preferred, fallback)
            if phase is None:
                return None
            return scale * self.seconds[(phase, name)] / self.calls[(phase, name)]

        phase = self._phase_for((_INTEGRAL,), preferred, fallback)
        if phase is not None:
            n = self.calls[(phase, _INTEGRAL)]
            ops = self.counters[(phase, "ops_with_integrals")]
            out["quadrature.integrals"] = self.counters[(phase, "integrals")] / ops if ops else None
            out["quadrature.rule_evals"] = self.counters[(phase, f"rule_evals@{_INTEGRAL}")] / n
            out["quadrature.integrand_points"] = self.counters[(phase, "integrand_points")] / n
            out["quadrature.integral_ms"] = 1e3 * self.seconds[(phase, _INTEGRAL)] / n
        else:
            for key in ("integrals", "rule_evals", "integrand_points", "integral_ms"):
                out[f"quadrature.{key}"] = None
        out["moments.expectation_ms"] = mean("moments.expectation", 1e3)

        phase = self._phase_for(_PROPAGATORS, preferred, fallback)
        if phase is not None:
            calls = sum(self.calls[(phase, n)] for n in _PROPAGATORS)
            seconds = sum(self.seconds[(phase, n)] for n in _PROPAGATORS)
            targets = self.counters[(phase, "propagate_targets")]
            rules = sum(self.counters[(phase, f"rule_evals@{n}")] for n in _PROPAGATORS)
            out["propagate.call_ms"] = 1e3 * seconds / calls
            out["propagate.target_ms"] = 1e3 * seconds / targets
            out["propagate.rule_evals_per_target"] = rules / targets
        else:
            for key in ("call_ms", "target_ms", "rule_evals_per_target"):
                out[f"propagate.{key}"] = None

        out["minimize.search_ms"] = mean("minimize.minimize_free", 1e3)
        phase = self._phase_for(("minimize.minimize_free",), preferred, fallback)
        out["minimize.evaluations"] = (
            self.counters[(phase, "minimize_evaluations")] / self.calls[(phase, "minimize.minimize_free")]
            if phase else None
        )
        out["packet.covariances_us"] = mean("packet.covariances", 1e6)
        out["minimal.build_min_packet_us"] = mean("minimal.build_min_packet", 1e6)
        out["fluctuations.sigma_l_us"] = mean("fluctuations.sigma_l", 1e6)
        out["fluctuations.sigma_e_us"] = mean("fluctuations.sigma_e", 1e6)
        out["fock.coefficients_ms"] = mean("fock.fock_coefficients", 1e3)
        phase = self._phase_for(("fock.fock_coefficients",), preferred, fallback)
        out["fock.terms"] = (
            self.counters[(phase, "fock_terms")] / self.calls[(phase, "fock.fock_coefficients")]
            if phase else None
        )
        for law in ("free", "oscillator", "magnetic"):
            out[f"evolution.evolve_{law}_us"] = mean(f"evolution.evolve_{law}", 1e6)
        out["special.hermite_scaled_us"] = mean("special.hermite_scaled", 1e6)
        out["cli.main_ms"] = mean("cli.main", 1e3)
        return out
