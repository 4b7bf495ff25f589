"""Command-line interface.

Subcommands: ``describe`` (moments and geometry of an explicit packet),
``minimize`` (build a minimal rotating packet, optionally confirming the
energy bound numerically), ``fluct`` (angular-momentum and energy
fluctuations), ``expand`` (oscillator-mode coefficients), ``evolve``
(closed-form trajectories) and ``verify`` (the full self-check battery).

All structured output goes to stdout as JSON (or CSV where offered) with
floats that parse back to the same doubles; progress and diagnostics go to
stderr.  Exit status is 0 on success, 1 on any runtime or verification
failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from typing import Any, Optional, Sequence

import numpy as np

from ._record import Record
from .constants import DEFAULT_SEED, HBAR, MASS
from .errors import GausspackError, InvalidParameterError
from .evolution import (
    EvolutionContext,
    evolve_free,
    evolve_magnetic,
    evolve_oscillator,
    free_asymptotics,
    magnetic_energy,
    shrink_analysis,
)
from .fluctuations import sigma_l, subpoisson_optimum, variance_report
from .fock import fock_coefficients
from .minimal import (
    MinPacketSpec,
    build_min_packet,
    mean_energy,
    min_packet_covariances,
    min_packet_squeezing,
    squeezing_factors,
    universal_invariants,
)
from .packet import (
    RealParams,
    angular_split,
    covariances,
    ellipse,
    first_moments,
    gaussian_state,
    normalization,
)
from .verify import CHECKS, run_checks, verify_minimum

SCHEMA_VERSION = "1"

__all__ = ["main", "SCHEMA_VERSION"]


# ---------------------------------------------------------------------------
# output helpers


def _json_default(value: Any) -> Any:
    """JSON form of the NumPy and complex values that ``json`` does not know."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise InvalidParameterError(f"cannot serialize {type(value).__name__} to JSON")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")


def _emit_json(document: dict, out: Optional[str]) -> None:
    """Write ``document`` as the text ``json.dumps(document, indent=2)`` gives.

    The chunks of the indented encoding go straight into one text buffer;
    ``json.dumps`` would first hold them all in a list, several times the
    size of the text.  Nothing is written unless the whole document encodes.
    """
    encoder = json.JSONEncoder(indent=2, allow_nan=False, default=_json_default)
    buffer = io.StringIO()
    try:
        buffer.writelines(encoder.iterencode(document))
    except ValueError as exc:  # a NaN or infinity somewhere in the document
        raise InvalidParameterError(f"cannot serialize to JSON: {exc}") from None
    _emit(buffer.getvalue(), out)


def _read_json(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_record(path: str, *records: type[Record]) -> Record:
    """Read one of ``records`` from a JSON file (or '-' for stdin).

    The object may be wrapped under its record's name, as in
    ``{"packet": {...}}`` or ``{"spec": {...}}``.  Of several records, the
    first whose leading key the object holds is read, else the last: a
    spec is told from a packet by its ``L_i_abs``.
    """
    data = _read_json(path)
    for record in records:
        if isinstance(data, dict) and isinstance(data.get(record.record_name), dict):
            data = data[record.record_name]
            break
    for record in records[:-1]:
        if isinstance(data, dict) and record.json_keys()[0] in data:
            return record.from_dict(data)
    return records[-1].from_dict(data)


def _load_packet(args: argparse.Namespace) -> Optional[RealParams]:
    """The packet of ``--params``, or of ``--spec`` holding a packet or a spec."""
    if args.params:
        return _load_record(args.params, RealParams)
    if args.spec:
        record = _load_record(args.spec, MinPacketSpec, RealParams)
        return build_min_packet(record) if isinstance(record, MinPacketSpec) else record
    return None


def _with_total(record: Any) -> dict[str, Any]:
    """A two-part record's fields followed by their ``total``."""
    return {**asdict(record), "total": record.total}


# ---------------------------------------------------------------------------
# shared argument groups


def _add_spec_options(parser: argparse.ArgumentParser, require_li: bool = False) -> None:
    group = parser.add_argument_group("packet specification")
    group.add_argument("--spec", metavar="FILE",
                       help="JSON spec file (or '-' for stdin); overrides the options below")
    group.add_argument("--Li", type=float, default=None, required=False,
                       help="internal angular momentum magnitude, units hbar"
                            + (" (required)" if require_li else ""))
    group.add_argument("--Lc", type=float, default=0.0,
                       help="center angular momentum magnitude, units hbar (default 0)")
    group.add_argument("--lambda", dest="sign_i", type=int, choices=(-1, 1), default=1,
                       help="internal rotation sense (default +1)")
    sense = group.add_mutually_exclusive_group()
    sense.add_argument("--lambda-c", dest="sign_c", type=int, choices=(-1, 1), default=None,
                       help="center rotation sense (default: same as --lambda)")
    sense.add_argument("--co", action="store_true",
                       help="center co-rotates with the internal motion")
    sense.add_argument("--anti", action="store_true",
                       help="center counter-rotates against the internal motion")
    group.add_argument("--u", type=float, default=0.0,
                       help="deformation orientation phase (default 0)")
    phase = group.add_mutually_exclusive_group()
    phase.add_argument("--v", type=float, default=None,
                       help="orbital phase of the center (default 0)")
    phase.add_argument("--w", type=float, default=None,
                       help="relative phase; sets v so that lambda*(v - u/2) = w")
    group.add_argument("--omega", type=float, default=1.0,
                       help="oscillator frequency (default 1); for --kind magnetic "
                            "this is the trap frequency and may be 0")
    group.add_argument("--mass", type=float, default=MASS,
                       help="particle mass (default 1)")


def _spec_from_args(args: argparse.Namespace, spec_omega: Optional[float] = None) -> MinPacketSpec:
    if getattr(args, "spec", None):
        return _load_record(args.spec, MinPacketSpec)
    if args.Li is None:
        raise InvalidParameterError("either --spec or --Li is required")
    sign_i = args.sign_i
    if args.co:
        sign_c = sign_i
    elif args.anti:
        sign_c = -sign_i
    elif args.sign_c is not None:
        sign_c = args.sign_c
    else:
        sign_c = sign_i
    if args.w is not None:
        v = sign_i * args.w + args.u / 2.0
    else:
        v = args.v if args.v is not None else 0.0
    return MinPacketSpec(
        l_i_abs=args.Li,
        l_c_abs=args.Lc,
        sign_i=sign_i,
        sign_c=sign_c,
        u=args.u,
        v=v,
        omega=args.omega if spec_omega is None else spec_omega,
        mass=args.mass,
    )


def _context_from_args(args: argparse.Namespace) -> EvolutionContext:
    kind = args.kind
    if kind == "magnetic":
        return EvolutionContext(kind="magnetic", omega=args.omega,
                                omega_larmor=args.omega_larmor, mass=args.mass)
    if args.omega_larmor:
        raise InvalidParameterError("--omega-L only applies to --kind magnetic")
    return EvolutionContext(kind="oscillator", omega=args.omega, mass=args.mass)


#: number of samples on the default trajectory grid
_DEFAULT_GRID_POINTS = 200


def _parse_times(args: argparse.Namespace) -> Optional[list[float]]:
    """Resolve the requested evolution times, or None for the per-kind default grid."""
    span = args.t0 is not None or args.t1 is not None or args.steps is not None
    if (args.t is not None) + (args.times is not None) + span > 1:
        raise InvalidParameterError(
            "give only one of --t, --times, or --t0/--t1/--steps")
    if args.t is not None:
        return [args.t]
    if args.times is not None:
        pieces = args.times.split(":")
        if len(pieces) != 3:
            raise InvalidParameterError("--times expects START:STOP:COUNT")
        try:
            start, stop = float(pieces[0]), float(pieces[1])
            count = int(pieces[2])
        except ValueError:
            raise InvalidParameterError("--times expects numeric START:STOP:COUNT") from None
        if count < 1:
            raise InvalidParameterError("--times count must be >= 1")
        return [float(t) for t in np.linspace(start, stop, count)]
    if span:
        if args.t0 is None or args.t1 is None:
            raise InvalidParameterError("--t0 and --t1 must be given together")
        steps = args.steps if args.steps is not None else _DEFAULT_GRID_POINTS
        if steps < 1:
            raise InvalidParameterError("--steps must be >= 1")
        return [float(t) for t in np.linspace(args.t0, args.t1, steps)]
    return None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_describe(args: argparse.Namespace) -> int:
    params = _load_packet(args)
    if params is None:
        if args.Li is None:
            raise InvalidParameterError("describe needs --params, --spec or --Li")
        params = build_min_packet(_spec_from_args(args))
    x0, y0, px0, py0 = first_moments(params)
    split = angular_split(params)
    geometry = ellipse(params, nu=args.nu)
    invariants = universal_invariants(covariances(params))
    document = {
        "schema_version": SCHEMA_VERSION,
        "packet": params.to_dict(),
        "norm_prefactor": normalization(params),
        "center": {"x0": x0, "y0": y0, "px0": px0, "py0": py0},
        "covariance": gaussian_state(params).cov,
        "angular_momentum": _with_total(split),
        "ellipse": asdict(geometry),
        "invariants": {
            "D0": invariants.d0,
            "D2": invariants.d2,
            "kappas": list(invariants.kappas),
        },
    }
    _emit_json(document, args.out)
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    params = build_min_packet(spec)
    energy = mean_energy(spec)
    split = angular_split(params)
    state = min_packet_covariances(spec)
    s_x, s_y = squeezing_factors(state, spec.omega, spec.mass)
    invariants = universal_invariants(state)
    document = {
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "packet": params.to_dict(),
        "eta": spec.eta,
        "energy": _with_total(energy),
        "angular_momentum": _with_total(split),
        "sigma_L": sigma_l(spec),
        "squeezing": {
            "predicted": min_packet_squeezing(spec),
            "S_x": s_x,
            "S_y": s_y,
        },
        "invariants": {"D0": invariants.d0, "D2": invariants.d2},
    }
    failed = False
    if args.check:
        print(f"confirming energy bound at |L_i| = {spec.l_i_abs:g} "
              f"({args.starts} starts per chart)...", file=sys.stderr)
        report = verify_minimum(spec.l_i_abs, omega=spec.omega, n_starts=args.starts,
                                seed=args.seed, tolerance=args.tol)
        document["verification"] = {
            "predicted": report.predicted,
            "best_value": report.best_value,
            "gap": report.gap,
            "attained": report.attained,
            "bounded_below": report.bounded_below,
            "n_evaluations": report.n_evaluations,
            "tolerance": report.tolerance,
            "passed": report.passed,
        }
        failed = not report.passed
        status = "confirmed" if report.passed else "FAILED"
        print(f"energy bound {status}: best {report.best_value:.12g} vs "
              f"predicted {report.predicted:.12g}", file=sys.stderr)
    _emit_json(document, args.out)
    return 1 if failed else 0


def _cmd_fluct(args: argparse.Namespace) -> int:
    if args.magnetic:
        args.kind = "magnetic"
    if args.optimum:
        if args.Li is None:
            raise InvalidParameterError("--optimum needs --Li")
        opt = subpoisson_optimum(args.Li)
        document = {
            "schema_version": SCHEMA_VERSION,
            "L_i_abs": args.Li,
            "L_c_abs": opt.l_total - args.Li,
            "L_total": opt.l_total,
            "sigma_L": opt.sigma_l,
            "eccentricity": opt.eccentricity,
        }
        _emit_json(document, args.out)
        return 0
    context = _context_from_args(args)
    spec = _spec_from_args(args, spec_omega=context.omega_effective)
    report = variance_report(spec, context)
    document = {
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "context": context.to_dict(),
        "mean_L": report.mean_l,
        "sigma_L": report.sigma_l,
        "mean_E": report.mean_e,
        "sigma_E": report.sigma_e,
        "subpoissonian": report.subpoissonian,
    }
    _emit_json(document, args.out)
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    expansion = fock_coefficients(spec, tail=args.tail, max_terms=args.max_terms)
    ranked = sorted(expansion.items(), key=lambda kv: (-abs(kv[1]) ** 2, kv[0]))
    if args.limit is not None:
        ranked = ranked[: args.limit]
    mean_l, var_l = expansion.angular_momentum_stats()
    rows = [
        {"n_r": n, "m": m, "re": c.real, "im": c.imag, "probability": abs(c) ** 2}
        for (n, m), c in ranked
    ]
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["n_r", "m", "re", "im", "probability"])
        for row in rows:
            writer.writerow(
                ["%d" % row["n_r"], "%d" % row["m"], "%.17g" % row["re"],
                 "%.17g" % row["im"], "%.17g" % row["probability"]]
            )
        _emit(buffer.getvalue(), args.out)
        return 0
    document = {
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "kind": expansion.kind,
        "n_coefficients": len(expansion.coeffs),
        "total_probability": expansion.total_probability,
        "residual": expansion.residual,
        "mean_L": mean_l,
        "sigma_L": var_l,
        "coefficients": rows,
    }
    _emit_json(document, args.out)
    return 0


def _observable_columns(params: RealParams) -> dict[str, float]:
    """Plot-ready observables of one packet: moments, covariances, geometry."""
    moments = first_moments(params)
    cov = covariances(params)
    inv = universal_invariants(cov)
    split = angular_split(params)
    geometry = ellipse(params)
    return {
        "x0": moments.x0,
        "y0": moments.y0,
        "px0": moments.px0,
        "py0": moments.py0,
        "cov_xx": float(cov[0, 0]),
        "cov_xy": float(cov[0, 1]),
        "cov_xpx": float(cov[0, 2]),
        "cov_xpy": float(cov[0, 3]),
        "cov_yy": float(cov[1, 1]),
        "cov_ypx": float(cov[1, 2]),
        "cov_ypy": float(cov[1, 3]),
        "cov_pxpx": float(cov[2, 2]),
        "cov_pxpy": float(cov[2, 3]),
        "cov_pypy": float(cov[3, 3]),
        "L_c": split.center,
        "L_i": split.intrinsic,
        "L_total": split.total,
        "D0": inv.d0,
        "D2": inv.d2,
        "area": geometry.area,
        "eccentricity": geometry.eccentricity,
        "theta": geometry.theta,
    }


def _evolve_mode_rows(args: argparse.Namespace,
                      times: Optional[list[float]]) -> tuple[dict, list[dict]]:
    if args.kind == "magnetic":
        context = _context_from_args(args)
        spec = _spec_from_args(args, spec_omega=context.omega_effective)
        stepper = lambda t: evolve_magnetic(spec, context, t)  # noqa: E731
        energy_of = lambda s: magnetic_energy(s, context)  # noqa: E731
        omega_eff = context.omega_effective
        head = {"context": context.to_dict()}
    else:
        spec = _spec_from_args(args)
        stepper = lambda t: evolve_oscillator(spec, t)  # noqa: E731
        energy_of = lambda s: mean_energy(s).total  # noqa: E731
        omega_eff = spec.omega
        head = {}
    if times is None:
        # one shape period: the covariances return to themselves after pi/omega
        times = [float(t) for t in
                 np.linspace(0.0, math.pi / omega_eff, _DEFAULT_GRID_POINTS)]
    rows = []
    for t in times:
        spec_t = stepper(t)
        rows.append({
            "t": t,
            "u": spec_t.u,
            "v": spec_t.v,
            **_observable_columns(build_min_packet(spec_t)),
            "energy": energy_of(spec_t),
            "sigma_L": sigma_l(spec_t),
        })
    return {"spec": spec.to_dict(), **head}, rows


def _evolve_free_rows(args: argparse.Namespace,
                      times: Optional[list[float]]) -> tuple[dict, list[dict]]:
    params = _load_packet(args)
    if params is None:
        raise InvalidParameterError("--kind free needs --params FILE (or --spec)")
    head: dict[str, Any] = {"packet": params.to_dict()}
    try:
        shrink = shrink_analysis(params)
    except GausspackError:
        shrink = None
    if shrink is not None:
        head["shrink"] = asdict(shrink)
        head["asymptotics"] = asdict(free_asymptotics(params))
    if times is None:
        # default span: past the width minimum when there is one, else a few
        # spreading times, in the dimensionless clock tau = 2*hbar*mu*t/mass
        span_tau = 4.0 * shrink.tau_min if shrink is not None and shrink.shrinks else 4.0
        t_stop = span_tau * args.mass / (2.0 * HBAR * params.mu)
        times = [float(t) for t in np.linspace(0.0, t_stop, _DEFAULT_GRID_POINTS)]
    rows = []
    for t in times:
        record = evolve_free(params, t, mass=args.mass)
        state = record.params
        rows.append({
            "t": t,
            "tau": record.tau,
            "f_tau": record.f_tau,
            **state.to_dict(),
            **_observable_columns(state),
        })
    return head, rows


_SYSTEM_KINDS = {"osc": "oscillator", "mag": "magnetic", "free": "free"}


def _cmd_evolve(args: argparse.Namespace) -> int:
    mapped = _SYSTEM_KINDS[args.system] if args.system else None
    if args.kind and mapped and args.kind != mapped:
        raise InvalidParameterError("--kind and --system disagree")
    args.kind = args.kind or mapped or "oscillator"
    times = _parse_times(args)
    if args.kind == "free":
        head, rows = _evolve_free_rows(args, times)
    else:
        head, rows = _evolve_mode_rows(args, times)
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        columns = list(rows[0].keys())
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["%.17g" % row[c] if isinstance(row[c], float) else str(row[c])
                             for c in columns])
        _emit(buffer.getvalue(), args.out)
        return 0
    document = {"schema_version": SCHEMA_VERSION, "kind": args.kind, **head, "rows": rows}
    _emit_json(document, args.out)
    return 0


_SUITES: dict[str, Optional[tuple[str, ...]]] = {
    "all": None,
    "moments": ("moments", "invariants"),
    "min": ("minimum", "subpoisson", "squeezing"),
    "fock": ("fock", "identities"),
    "evolve": ("drift", "magnetic", "free", "propagators"),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.checks and args.suite:
        raise InvalidParameterError("give either --checks or --suite, not both")
    names = None
    if args.checks:
        names = [piece.strip() for piece in args.checks.split(",") if piece.strip()]
    elif args.suite and _SUITES[args.suite] is not None:
        names = list(_SUITES[args.suite])
    results = run_checks(names, seed=args.seed,
                         report=lambda r: print(r.line, file=sys.stderr, flush=True))
    document = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "results": [asdict(r) for r in results],
    }
    _emit_json(document, args.out)
    return 0 if document["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausspack",
        description="Rotating two-dimensional Gaussian wave packets: moments, "
                    "minimal-energy families, fluctuations, mode expansions and "
                    "closed-form evolution.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    describe = subparsers.add_parser(
        "describe", help="moments, geometry and invariants of a packet")
    describe.add_argument("--params", metavar="FILE",
                          help="JSON packet parameters (or '-' for stdin); "
                               "alternatively give --spec or the options below")
    _add_spec_options(describe)
    describe.add_argument("--nu", type=float, default=1.0,
                          help="density contour level parameter (default 1)")
    describe.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    describe.set_defaults(func=_cmd_describe)

    minimize = subparsers.add_parser(
        "minimize", help="build the minimal-energy packet for given angular momenta")
    _add_spec_options(minimize, require_li=True)
    minimize.add_argument("--check", action="store_true",
                          help="confirm the energy bound by multi-start search (slow)")
    minimize.add_argument("--starts", type=int, default=24,
                          help="searches per constraint chart for --check (default 24)")
    minimize.add_argument("--seed", type=int, default=DEFAULT_SEED,
                          help=f"random seed for --check (default {DEFAULT_SEED})")
    minimize.add_argument("--tol", type=float, default=1e-6,
                          help="tolerance for --check (default 1e-6)")
    minimize.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    minimize.set_defaults(func=_cmd_minimize)

    fluct = subparsers.add_parser(
        "fluct", help="angular-momentum and energy fluctuations of a minimal packet")
    _add_spec_options(fluct)
    fluct.add_argument("--kind", choices=("oscillator", "magnetic"), default="oscillator",
                       help="Hamiltonian for the energy statistics (default oscillator)")
    fluct.add_argument("--magnetic", action="store_true",
                       help="shorthand for --kind magnetic")
    fluct.add_argument("--omega-L", "--omegaL", dest="omega_larmor", type=float, default=0.0,
                       help="Larmor frequency (half the cyclotron frequency, signed)")
    fluct.add_argument("--optimum", action="store_true",
                       help="report the most sub-Poissonian operating point for --Li")
    fluct.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    fluct.set_defaults(func=_cmd_fluct)

    expand = subparsers.add_parser(
        "expand", help="oscillator angular-momentum mode coefficients")
    _add_spec_options(expand)
    expand.add_argument("--tail", type=float, default=1e-12,
                        help="truncation: stop once the missing probability is below this; "
                             "exit 1 if --max-terms runs out first")
    expand.add_argument("--max-terms", type=int, default=10_000,
                        help="cap on stored coefficients of every ladder; exit 1 if it "
                             "needs more (default 10000)")
    expand.add_argument("--limit", type=int, default=None,
                        help="print only the N most probable coefficients")
    expand.add_argument("--format", choices=("json", "csv"), default="json")
    expand.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    expand.set_defaults(func=_cmd_expand)

    evolve = subparsers.add_parser("evolve", help="closed-form time evolution")
    evolve.add_argument("--kind", choices=("oscillator", "magnetic", "free"),
                        default=None, help="Hamiltonian (default oscillator)")
    evolve.add_argument("--system", choices=tuple(_SYSTEM_KINDS), default=None,
                        help="short form of --kind")
    _add_spec_options(evolve)
    evolve.add_argument("--params", metavar="FILE",
                        help="JSON packet parameters for --kind free")
    evolve.add_argument("--omega-L", "--omegaL", dest="omega_larmor", type=float, default=0.0,
                        help="Larmor frequency for --kind magnetic")
    evolve.add_argument("--t", type=float, default=None, help="single evolution time")
    evolve.add_argument("--times", metavar="START:STOP:COUNT",
                        help="evenly spaced evolution times")
    evolve.add_argument("--t0", type=float, default=None, help="trajectory start time")
    evolve.add_argument("--t1", type=float, default=None, help="trajectory stop time")
    evolve.add_argument("--steps", type=int, default=None,
                        help=f"points between --t0 and --t1 (default {_DEFAULT_GRID_POINTS})")
    evolve.add_argument("--format", choices=("json", "csv"), default="json")
    evolve.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    evolve.set_defaults(func=_cmd_evolve)

    verify = subparsers.add_parser(
        "verify", help="run the numerical self-check battery")
    verify.add_argument("--checks", metavar="NAMES",
                        help="comma-separated subset (available: " + ", ".join(CHECKS) + ")")
    verify.add_argument("--suite", choices=tuple(_SUITES), default=None,
                        help="named group of checks (default: all)")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"random seed (default {DEFAULT_SEED})")
    verify.add_argument("--out", "--report", metavar="FILE",
                        help="write JSON summary here instead of stdout")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GausspackError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
