"""Command-line front end.

Subcommands:

* ``transducer``: map transducer operating parameters to the effective
  thermal-loss channel, printing (eta, N, nbar) and a physicality verdict
  as JSON.
* ``fidelity``: one state- or swap-fidelity evaluation, closed form and/or
  brute-force oracle.
* ``classify``: herald classification of a detection pattern.
* ``optimal-k``: best bin count and the infidelity it achieves.
* ``sweep``: grid sweeps driven by a JSON config or a named preset,
  written as CSV with the fixed header ``axis1,axis2,quantity,value,method``
  plus a ``<name>.meta.json`` sidecar (version, config hash, tolerances).

Every quantity that ``fidelity`` and ``sweep`` evaluate is one entry of
``QUANTITIES``: its closed-form call, its oracle call, and the parameters it
takes, which config validation reads.

Exit codes: 0 success, 1 usage or config-schema error, 2 unphysical channel
parameters (the physicality margin is reported, never clamped), 3 request
intractable: k > 6 bins or a Fock truncation the brute-force path cannot
certify, or a herald of zero probability on either path. Channel options
on the command line are held to the same domains as sweep configs.

Sweep configs are a single JSON object; unknown keys are errors and every
schema violation is listed before exiting. Grid points are evaluated in
row-major axis order on the calling thread, so output bytes are stable for
a fixed config and package version.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from .analytic import (
    optimal_k,
    pick_k,
    state_fidelity_analytic,
    swap_fidelity_k,
    swap_fidelity_n1,
    swap_fidelity_n2,
)
from .channel import (
    ChannelParams,
    ImpossibleEventError,
    TransducerParams,
    UnphysicalChannelError,
    bose_einstein,
    transducer_to_channel,
)
from .fock import TruncationConfig, TruncationError
from .states import QubitTimeBinSpec, state_fidelity_oracle
from .swap import (
    DetectionPattern,
    HeraldClass,
    classify_single_photon,
    classify_two_photon,
    heralded_state,
    parity_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNPHYSICAL = 2
EXIT_INTRACTABLE = 3

# Brute-force heralds beyond this many bins are refused at the interface;
# the library itself stays O(k) per evaluation but sweeps multiply.
ORACLE_MAX_BINS = 6

CSV_HEADER = ("axis1", "axis2", "quantity", "value", "method")
FLOAT_FORMAT = ".12g"

TOLERANCES = {"closed_form_vs_oracle": 1e-5, "physicality_margin": 1e-12}

METHODS = ("analytic", "oracle", "both")
AXIS_NAMES = ("eta", "nbar", "N", "C", "zeta", "k", "n")
FIXED_NAMES = AXIS_NAMES + ("nth", "k_max")
INTEGER_NAMES = ("k", "n", "k_max")

PRESET_NAMES = ("fig2a", "fig2b", "fig4a", "fig4b", "fig5a", "fig5b")


class CliError(Exception):
    """Carries a message and the process exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; the contract here is exit 1."""

    def error(self, message):
        raise CliError(f"{self.prog}: error: {message}\n{self.format_usage().rstrip()}")


def _fmt(value: float) -> str:
    return format(float(value), FLOAT_FORMAT)


def _emit(args: argparse.Namespace, payload: dict[str, Any], text: str | None = None) -> None:
    """Write text, or payload as JSON under --json or when there is no text
    form, to the --out path or stdout."""
    if args.json or text is None:
        text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out is None:
        print(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# sweep configuration


@dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class SweepSection:
    """One homogeneous block of output rows: a quantity over a grid."""

    quantity: str
    axis1: SweepAxis
    axis2: SweepAxis | None
    fixed: dict[str, float]
    method: str

    def as_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "quantity": self.quantity,
            "axis1": {"name": self.axis1.name, "values": list(self.axis1.values)},
            "fixed": dict(sorted(self.fixed.items())),
            "method": self.method,
        }
        if self.axis2 is not None:
            d["axis2"] = {"name": self.axis2.name, "values": list(self.axis2.values)}
        return d


def _linspace(lo: float, hi: float, steps: int) -> tuple[float, ...]:
    if steps == 1:
        return (lo,)
    return tuple(lo + (hi - lo) * i / (steps - 1) for i in range(steps))


# parameter -> (domain test, domain as text)
_DOMAIN: dict[str, tuple[Callable[[float], bool], str]] = {
    "eta": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "nbar": (lambda v: v >= 0.0, ">= 0"),
    "N": (lambda v: v >= 0.0, ">= 0"),
    "C": (lambda v: v > 0.0, "> 0"),
    "zeta": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "nth": (lambda v: v >= 0.0, ">= 0"),
    "k": (lambda v: v >= 1, "an integer >= 1"),
    "n": (lambda v: v in (1, 2), "1 or 2"),
    "k_max": (lambda v: v >= 1, "an integer >= 1"),
}


def _check_value(name: str, value: Any, where: str, violations: list[str]) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        violations.append(f"{where}: {name} must be a number, got {value!r}")
        return None
    if not math.isfinite(value):
        violations.append(f"{where}: {name} must be finite, got {value!r}")
        return None
    if name in INTEGER_NAMES:
        if float(value) != int(value):
            violations.append(f"{where}: {name} must be an integer, got {value!r}")
            return None
        value = int(value)
    else:
        value = float(value)
    in_domain, domain = _DOMAIN[name]
    if not in_domain(value):
        violations.append(f"{where}: {name} must be {domain}, got {value!r}")
        return None
    return value


def _parse_axis(obj: Any, where: str, violations: list[str]) -> SweepAxis | None:
    if not isinstance(obj, dict):
        violations.append(f"{where}: must be an object, got {type(obj).__name__}")
        return None
    unknown = set(obj) - {"name", "values", "min", "max", "steps"}
    if unknown:
        violations.append(f"{where}: unknown keys {sorted(unknown)}")
    name = obj.get("name")
    if name not in AXIS_NAMES:
        violations.append(f"{where}: name must be one of {list(AXIS_NAMES)}, got {name!r}")
        return None
    if "values" in obj:
        if any(key in obj for key in ("min", "max", "steps")):
            violations.append(f"{where}: give either values or min/max/steps, not both")
        raw = obj["values"]
        if not isinstance(raw, list) or not raw:
            violations.append(f"{where}: values must be a non-empty list")
            return None
        vals = [_check_value(name, v, where, violations) for v in raw]
        if any(v is None for v in vals):
            return None
        return SweepAxis(name=name, values=tuple(vals))
    missing = [key for key in ("min", "max", "steps") if key not in obj]
    if missing:
        violations.append(f"{where}: range form needs min, max, steps (missing {missing})")
        return None
    steps = obj["steps"]
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        violations.append(f"{where}: steps must be a positive integer, got {steps!r}")
        return None
    lo = _check_value(name, obj["min"], where, violations)
    hi = _check_value(name, obj["max"], where, violations)
    if lo is None or hi is None:
        return None
    if hi < lo:
        violations.append(f"{where}: min must not exceed max ({lo!r} > {hi!r})")
        return None
    if name in INTEGER_NAMES:
        if steps != hi - lo + 1:
            violations.append(
                f"{where}: integer axis {name} must step by 1 "
                f"(steps = max - min + 1) or use explicit values"
            )
            return None
        return SweepAxis(name=name, values=tuple(range(lo, hi + 1)))
    return SweepAxis(name=name, values=_linspace(lo, hi, steps))


def parse_sweep_config(doc: Any) -> tuple[SweepSection | None, str | None, list[str]]:
    """Validate a user config document. Returns (section, out path, violations)."""
    violations: list[str] = []
    if not isinstance(doc, dict):
        return None, None, ["config: top level must be a JSON object"]
    unknown = set(doc) - {"quantity", "axis1", "axis2", "fixed", "method", "out"}
    if unknown:
        violations.append(f"config: unknown keys {sorted(unknown)}")

    quantity = doc.get("quantity")
    if quantity not in QUANTITIES:
        violations.append(
            f"config: quantity must be one of {list(QUANTITIES)}, got {quantity!r}"
        )
    method = doc.get("method", "analytic")
    if method not in METHODS:
        violations.append(f"config: method must be one of {list(METHODS)}, got {method!r}")

    axis1 = axis2 = None
    if "axis1" not in doc:
        violations.append("config: axis1 is required")
    else:
        axis1 = _parse_axis(doc["axis1"], "axis1", violations)
    if "axis2" in doc:
        axis2 = _parse_axis(doc["axis2"], "axis2", violations)

    fixed: dict[str, float] = {}
    raw_fixed = doc.get("fixed", {})
    if not isinstance(raw_fixed, dict):
        violations.append("config: fixed must be an object")
    else:
        for key, value in raw_fixed.items():
            if key not in FIXED_NAMES:
                violations.append(
                    f"fixed: unknown parameter {key!r} (allowed: {list(FIXED_NAMES)})"
                )
                continue
            checked = _check_value(key, value, "fixed", violations)
            if checked is not None:
                fixed[key] = checked

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        violations.append(f"config: out must be a string path, got {out!r}")
        out = None

    if axis1 is None or quantity not in QUANTITIES or method not in METHODS:
        return None, out, violations

    axis_names = [axis1.name] + ([axis2.name] if axis2 is not None else [])
    if axis2 is not None and axis2.name == axis1.name:
        violations.append(f"config: axis1 and axis2 both sweep {axis1.name!r}")
    for name in axis_names:
        if name in fixed:
            violations.append(f"config: {name!r} is both an axis and fixed")

    section = SweepSection(
        quantity=quantity, axis1=axis1, axis2=axis2, fixed=fixed, method=method
    )
    violations.extend(_check_parameter_closure(section))
    return section, out, violations


def _values_of(section: SweepSection, name: str) -> list[float]:
    """The values a section gives a parameter, on an axis or fixed."""
    for axis in (section.axis1, section.axis2):
        if axis is not None and axis.name == name:
            return list(axis.values)
    return [section.fixed[name]] if name in section.fixed else []


def _check_parameter_closure(section: SweepSection) -> list[str]:
    """The axes plus fixed parameters must pin down exactly one channel and
    the bin/photon numbers the quantity needs."""
    violations: list[str] = []
    quantity, fixed = section.quantity, section.fixed
    present = {name for name in FIXED_NAMES if _values_of(section, name)}

    transducer_mode = "zeta" in present or "C" in present or "nth" in present
    direct_mode = "eta" in present or "nbar" in present or "N" in present
    if transducer_mode and direct_mode:
        violations.append(
            "config: mixes transducer parameters (zeta, C, nth) with direct "
            "channel parameters (eta, nbar, N); use one parametrization"
        )
    elif transducer_mode:
        for req in ("zeta", "C", "nth"):
            if req not in present:
                violations.append(f"config: transducer parametrization needs {req}")
    elif direct_mode:
        if "eta" not in present:
            violations.append("config: eta is required with nbar or N")
        if "nbar" in present and "N" in present:
            violations.append("config: give nbar or N, not both")
        if "nbar" not in present and "N" not in present:
            violations.append("config: eta needs nbar or N")
    else:
        violations.append("config: no channel parameters (eta+nbar/N or zeta+C+nth)")

    entry = QUANTITIES[quantity]
    if entry.takes_k and "k" not in present:
        violations.append(f"config: {quantity} needs k (axis or fixed)")
    if not entry.takes_k and "n" in present:
        violations.append(f"config: {quantity} does not take n")
    if not entry.takes_k and "k" in present:
        reason = "scans k itself" if entry.scans_k else "fixes its own bin count"
        violations.append(f"config: {quantity} {reason}; k must not be set")
    if "k_max" in fixed and not entry.scans_k:
        violations.append(f"config: {quantity} does not scan k; k_max must not be set")

    if 2 in _values_of(section, "n"):
        if any(kv != 2 for kv in _values_of(section, "k")):
            violations.append("config: n = 2 encodings are two-bin; every k must be 2")
        if not entry.analytic_n2 and section.method != "oracle":
            violations.append(
                f"config: {quantity} has no closed form for n = 2; use method oracle"
            )
    return violations


def _max_k_request(section: SweepSection) -> int:
    values = _values_of(section, "k")
    if QUANTITIES[section.quantity].scans_k:
        values.append(_k_max(section.fixed))
    return int(max(values, default=1))


def _guard_tractable(quantity: str, method: str, k: int) -> None:
    if method != "analytic" and k > ORACLE_MAX_BINS:
        raise CliError(
            f"oracle evaluation of {quantity} would need k = {k} "
            f"bins; the brute-force path is limited to k <= {ORACLE_MAX_BINS}. "
            f"Use method analytic for larger k.",
            EXIT_INTRACTABLE,
        )


# ---------------------------------------------------------------------------
# quantities and point evaluation
#
# The table entries below call library functions by their names in this
# module when they run, so code that replaces one of those names (a test
# double, a tracer) sees every call.


def _channel_for(params: dict[str, Any]) -> ChannelParams:
    if "zeta" in params:
        tp = TransducerParams(
            zeta_m=params["zeta"],
            zeta_o=params["zeta"],
            C=params["C"],
            nth=params["nth"],
        )
        return transducer_to_channel(tp)
    if "N" in params:
        return ChannelParams(eta=params["eta"], N=params["N"])
    return ChannelParams.from_eta_nbar(params["eta"], params["nbar"])


def _spec(q: dict[str, Any]) -> QubitTimeBinSpec:
    return QubitTimeBinSpec(k=int(q["k"]), n=int(q.get("n", 1)))


def _truncation(q: dict[str, Any]) -> TruncationConfig:
    return TruncationConfig.for_encoding(int(q.get("n", 1)))


def _k_max(q: dict[str, Any]) -> int:
    return int(q.get("k_max", 32))


def _swap_analytic(p: ChannelParams, q: dict[str, Any]) -> tuple[float, float]:
    result = swap_fidelity_n2(p) if q.get("n", 1) == 2 else swap_fidelity_k(p, int(q["k"]))
    return result.fidelity, result.K0


def _swap_oracle(p: ChannelParams, q: dict[str, Any]) -> tuple[float, float]:
    spec = _spec(q)
    if spec.n == 1:
        pattern = DetectionPattern.canonical(spec.k)
    else:
        pattern = DetectionPattern(k=2, counts=((2, 0), (2, 0)))
    h = heralded_state(p, p, spec, pattern, _truncation(q))
    return h.fidelity_phi_plus, h.success_probability


def _oracle_optimal_k(p: ChannelParams, q: dict[str, Any]) -> tuple[int, float]:
    """Brute-force counterpart of analytic.optimal_k: scans heralded states,
    then breaks ties by the same rule."""
    return pick_k([1.0 - _swap_oracle(p, {"k": k})[0] for k in range(1, _k_max(q) + 1)])


Evaluation = Callable[[ChannelParams, dict[str, Any]], tuple[float, float | None]]


@dataclass(frozen=True)
class Quantity:
    """One evaluable quantity: two independent evaluations and its parameters.

    analytic and oracle map (channel, point parameters) to (value, K0), where
    K0 is the herald success weight of the swap fidelity and None elsewhere.
    """

    analytic: Evaluation
    oracle: Evaluation
    takes_k: bool = False  # a per-bin quantity: needs k, accepts n
    scans_k: bool = False  # scans k = 1..k_max itself
    analytic_n2: bool = True  # the closed form covers n = 2 encodings


QUANTITIES: dict[str, Quantity] = {
    "state_fidelity": Quantity(
        lambda p, q: (state_fidelity_analytic(_spec(q), p), None),
        lambda p, q: (state_fidelity_oracle(_spec(q), p, _truncation(q)), None),
        takes_k=True,
        analytic_n2=False,
    ),
    "swap_fidelity": Quantity(_swap_analytic, _swap_oracle, takes_k=True),
    "swap_infidelity": Quantity(
        lambda p, q: (1.0 - _swap_analytic(p, q)[0], None),
        lambda p, q: (1.0 - _swap_oracle(p, q)[0], None),
        takes_k=True,
    ),
    "fidelity_ratio_n1_n2": Quantity(
        lambda p, q: (swap_fidelity_n1(p).fidelity / swap_fidelity_n2(p).fidelity, None),
        lambda p, q: (_swap_oracle(p, {"k": 2})[0] / _swap_oracle(p, {"k": 2, "n": 2})[0], None),
    ),
    "optimal_k": Quantity(
        lambda p, q: (float(optimal_k(p, _k_max(q))[0]), None),
        lambda p, q: (float(_oracle_optimal_k(p, q)[0]), None),
        scans_k=True,
    ),
    "swap_infidelity_at_optimal_k": Quantity(
        lambda p, q: (optimal_k(p, _k_max(q))[1], None),
        lambda p, q: (_oracle_optimal_k(p, q)[1], None),
        scans_k=True,
    ),
}


def _evaluator(method: str) -> Callable[[str, dict[str, Any]], float]:
    def evaluate(quantity: str, params: dict[str, Any]) -> float:
        return getattr(QUANTITIES[quantity], method)(_channel_for(params), params)[0]

    return evaluate


_EVALUATORS = {method: _evaluator(method) for method in ("analytic", "oracle")}


def _methods(method: str) -> tuple[str, ...]:
    return ("analytic", "oracle") if method == "both" else (method,)


def run_sections(sections: Sequence[SweepSection]) -> list[tuple[str, str, str, str, str]]:
    """Evaluate every section and return CSV rows in deterministic order."""
    rows: list[tuple[str, str, str, str, str]] = []
    for section in sections:
        points: list[tuple[str, str, dict[str, float]]] = []
        if section.axis2 is None:
            for v1 in section.axis1.values:
                params = dict(section.fixed)
                params[section.axis1.name] = v1
                points.append((_fmt(v1), "", params))
        else:
            for v1 in section.axis1.values:
                for v2 in section.axis2.values:
                    params = dict(section.fixed)
                    params[section.axis1.name] = v1
                    params[section.axis2.name] = v2
                    points.append((_fmt(v1), _fmt(v2), params))
        for method in _methods(section.method):
            evaluate = _EVALUATORS[method]
            rows.extend(
                (a1, a2, section.quantity, _fmt(evaluate(section.quantity, params)), method)
                for a1, a2, params in points
            )
    return rows


# ---------------------------------------------------------------------------
# presets


def _zeta_c_grid() -> tuple[SweepAxis, SweepAxis]:
    return (
        SweepAxis("zeta", _linspace(0.5, 1.0, 60)),
        SweepAxis("C", _linspace(0.05, 2.0, 60)),
    )


def preset_sections(name: str) -> list[SweepSection]:
    if name in ("fig2a", "fig2b"):
        zeta, c = _zeta_c_grid()
        k = 2 if name == "fig2a" else 4
        return [
            SweepSection("state_fidelity", zeta, c, {"nth": 0.1, "k": k}, "analytic")
        ]
    if name == "fig4a":
        eta = SweepAxis("eta", _linspace(0.3, 1.0, 71))
        nbar = SweepAxis("nbar", _linspace(0.0, 0.3, 61))
        return [
            SweepSection("fidelity_ratio_n1_n2", eta, nbar, {}, "analytic"),
            SweepSection("swap_fidelity", eta, nbar, {"k": 2, "n": 2}, "analytic"),
        ]
    if name == "fig4b":
        k = SweepAxis("k", tuple(range(1, 11)))
        eta = SweepAxis("eta", (0.6, 0.8))
        return [SweepSection("swap_infidelity", k, eta, {"nbar": 0.1}, "analytic")]
    if name == "fig5a":
        zeta, c = _zeta_c_grid()
        return [
            SweepSection("swap_infidelity", zeta, c, {"nth": 0.1, "k": 1}, "analytic")
        ]
    if name == "fig5b":
        zeta, c = _zeta_c_grid()
        fixed = {"nth": 0.1, "k_max": 16}
        return [
            SweepSection("optimal_k", zeta, c, fixed, "analytic"),
            SweepSection("swap_infidelity_at_optimal_k", zeta, c, fixed, "analytic"),
        ]
    raise CliError(f"unknown preset {name!r} (known: {', '.join(PRESET_NAMES)})")


def config_hash(sections: Sequence[SweepSection]) -> str:
    doc = {"sections": [section.as_dict() for section in sections]}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_sweep(sections: Sequence[SweepSection], out: Path) -> int:
    rows = run_sections(sections)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    meta = {
        "version": __version__,
        "config_hash": config_hash(sections),
        "tolerances": TOLERANCES,
    }
    meta_path = out.with_suffix(".meta.json")
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return len(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_transducer(args: argparse.Namespace) -> int:
    have_nth = args.nth is not None
    have_temp = args.temp is not None or args.freq is not None
    if have_nth and have_temp:
        raise CliError("give either --nth or --temp/--freq, not both")
    if not have_nth and (args.temp is None or args.freq is None):
        raise CliError("thermal occupation missing: give --nth, or both --temp and --freq")
    nth = args.nth if have_nth else bose_einstein(args.freq, args.temp)
    tp = TransducerParams(zeta_m=args.zeta_m, zeta_o=args.zeta_o, C=args.C, nth=nth)
    try:
        p = transducer_to_channel(tp)
    except UnphysicalChannelError as exc:
        report = {
            "nth": nth,
            "physical": False,
            "physicality_margin": exc.margin,
            "error": str(exc),
        }
        _emit(args, report)
        return EXIT_UNPHYSICAL
    report = {
        "eta": p.eta,
        "N": p.N,
        "nbar": p.nbar,
        "nth": nth,
        "t": p.t,
        "physical": True,
        "physicality_margin": p.physicality_margin,
    }
    _emit(args, report)
    return EXIT_OK


def _given(args: argparse.Namespace) -> dict[str, Any]:
    """The options given on the command line, as point parameters, with the
    channel options held to the sweep config's domains."""
    params = {name: value for name, value in vars(args).items() if value is not None}
    violations: list[str] = []
    for name in ("eta", "nbar", "N"):
        if name in params:
            _check_value(name, params[name], "option", violations)
    if violations:
        raise CliError("; ".join(violations))
    return params


def cmd_fidelity(args: argparse.Namespace) -> int:
    name = f"{args.kind}_fidelity"
    quantity = QUANTITIES[name]
    if args.n == 2 and args.k != 2:
        raise CliError("n = 2 encodings are two-bin; --k must be 2")
    if args.n == 2 and not quantity.analytic_n2 and args.method != "oracle":
        raise CliError(f"{args.kind} fidelity has no closed form for n = 2; use --method oracle")
    _guard_tractable(name, args.method, args.k)
    params = _given(args)
    p = _channel_for(params)
    blocks: dict[str, dict[str, float]] = {}
    for method in _methods(args.method):
        fid, k0 = getattr(quantity, method)(p, params)
        blocks[method] = {"fidelity": fid, "infidelity": 1.0 - fid}
        if k0 is not None:
            blocks[method]["K0"] = k0

    base = {"kind": args.kind, "eta": p.eta, "N": p.N, "k": args.k, "n": args.n}
    where = f"eta = {_fmt(p.eta)}, N = {_fmt(p.N)}, k = {args.k}, n = {args.n}"
    if args.method == "both":
        delta = abs(blocks["analytic"]["fidelity"] - blocks["oracle"]["fidelity"])
        payload = {**base, "method": "both", **blocks, "delta": delta}
        lines = [f"{args.kind} fidelity at {where}:"]
        lines += [f"  {method}: {_fidelity_text(block)}" for method, block in blocks.items()]
        lines.append(f"  disagreement |delta F| = {_fmt(delta)}")
        text = "\n".join(lines)
    else:
        block = blocks[args.method]
        payload = {**base, "method": args.method, **block}
        text = f"{args.kind} fidelity ({args.method}) at {where}: {_fidelity_text(block)}"
    _emit(args, payload, text)
    return EXIT_OK


def _fidelity_text(block: dict[str, float]) -> str:
    extra = f", K0 = {_fmt(block['K0'])}" if "K0" in block else ""
    return f"fidelity = {_fmt(block['fidelity'])}, infidelity = {_fmt(block['infidelity'])}{extra}"


def cmd_classify(args: argparse.Namespace) -> int:
    parts = args.pattern.split(",")
    if len(parts) != 2 * args.k:
        raise CliError(
            f"pattern needs 2k = {2 * args.k} comma-separated counts, got {len(parts)}"
        )
    try:
        counts = [int(part) for part in parts]
    except ValueError as exc:
        raise CliError(f"pattern entries must be integers: {exc}") from exc
    if any(count < 0 for count in counts):
        raise CliError("pattern entries must be non-negative")
    pattern = DetectionPattern(
        k=args.k,
        counts=tuple((counts[2 * i], counts[2 * i + 1]) for i in range(args.k)),
    )
    if args.n == 1:
        label = classify_single_photon(pattern)
    else:
        if args.k != 2:
            raise CliError("two-photon classification is defined for k = 2")
        label = classify_two_photon(pattern)
    payload: dict[str, Any] = {"class": label.value, "k": args.k, "n": args.n,
                               "pattern": counts}
    single = all(a + b == 1 for a, b in pattern.counts)
    if label in (HeraldClass.PhiPlus, HeraldClass.PhiMinus) and single:
        p1, p2 = parity_trace(pattern)
        payload["parity"] = [p1, p2]
    text = label.value
    if "parity" in payload:
        text += f" (parity trace P1 = {payload['parity'][0]:+d}, P2 = {payload['parity'][1]:+d})"
    _emit(args, payload, text)
    return EXIT_OK


def cmd_optimal_k(args: argparse.Namespace) -> int:
    p = _channel_for(_given(args))
    best_k, infidelity = optimal_k(p, args.k_max)
    payload = {
        "eta": p.eta,
        "N": p.N,
        "k_max": args.k_max,
        "k_star": best_k,
        "infidelity": infidelity,
        "fidelity": 1.0 - infidelity,
    }
    _emit(args, payload, f"k* = {best_k} (infidelity = {_fmt(infidelity)}) at eta = "
                         f"{_fmt(p.eta)}, N = {_fmt(p.N)}, scanned k = 1..{args.k_max}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if (args.config is None) == (args.preset is None):
        raise CliError("give exactly one of --config or --preset")
    if args.preset is not None:
        sections = preset_sections(args.preset)
        out = Path(args.out) if args.out else Path(f"{args.preset}.csv")
    else:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise CliError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"config is not valid JSON: {exc}") from exc
        section, config_out, violations = parse_sweep_config(doc)
        if violations:
            raise CliError(
                "config schema violations:\n"
                + "\n".join(f"  - {violation}" for violation in violations)
            )
        assert section is not None
        sections = [section]
        if args.out:
            out = Path(args.out)
        elif config_out:
            out = Path(config_out)
        else:
            raise CliError("no output path: set 'out' in the config or pass --out")
    for section in sections:
        _guard_tractable(section.quantity, section.method, _max_k_request(section))
    count = write_sweep(sections, out)
    summary = {
        "rows": count,
        "out": str(out),
        "meta": str(out.with_suffix(".meta.json")),
        "config_hash": config_hash(sections),
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(f"wrote {count} rows to {out} (sidecar {summary['meta']})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    channel = _Parser(add_help=False)
    channel.add_argument("--eta", type=float, required=True, help="channel transmissivity")
    group = channel.add_mutually_exclusive_group(required=True)
    group.add_argument("--nbar", type=float, help="channel thermal occupation")
    group.add_argument("--N", dest="N", type=float, help="channel noise parameter")

    parser = _Parser(prog="tbswap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tbswap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_tr = sub.add_parser(
        "transducer", parents=[common],
        help="map transducer parameters to the effective channel",
    )
    p_tr.add_argument("--zeta-m", dest="zeta_m", type=float, required=True,
                      help="microwave extraction efficiency")
    p_tr.add_argument("--zeta-o", dest="zeta_o", type=float, required=True,
                      help="optical extraction efficiency")
    p_tr.add_argument("--C", dest="C", type=float, required=True, help="cooperativity")
    p_tr.add_argument("--nth", type=float, help="thermal occupation of the microwave bath")
    p_tr.add_argument("--temp", type=float, help="bath temperature in kelvin")
    p_tr.add_argument("--freq", type=float, help="mode frequency in hertz")
    p_tr.set_defaults(func=cmd_transducer)

    p_fi = sub.add_parser(
        "fidelity", parents=[common, channel], help="single fidelity evaluation",
    )
    p_fi.add_argument("kind", choices=("state", "swap"))
    p_fi.add_argument("--k", type=int, required=True, help="number of time bins")
    p_fi.add_argument("--n", type=int, default=1, choices=(1, 2),
                      help="photons per occupied branch")
    p_fi.add_argument("--method", choices=METHODS, default="analytic")
    p_fi.set_defaults(func=cmd_fidelity)

    p_cl = sub.add_parser(
        "classify", parents=[common], help="herald classification of a detection pattern",
    )
    p_cl.add_argument("--k", type=int, required=True, help="number of time bins")
    p_cl.add_argument("--n", type=int, default=1, choices=(1, 2),
                      help="photons per occupied branch")
    p_cl.add_argument("--pattern", required=True,
                      help="2k comma-separated counts, detector pairs per bin")
    p_cl.set_defaults(func=cmd_classify)

    p_ok = sub.add_parser(
        "optimal-k", parents=[common, channel], help="best bin count for a channel",
    )
    p_ok.add_argument("--k-max", dest="k_max", type=int, default=32,
                      help="largest bin count scanned")
    p_ok.set_defaults(func=cmd_optimal_k)

    p_sw = sub.add_parser(
        "sweep", parents=[common], help="grid sweep to CSV (config file or preset)",
    )
    p_sw.add_argument("--config", help="sweep config JSON path")
    p_sw.add_argument("--preset", choices=PRESET_NAMES, help="built-in figure preset")
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except UnphysicalChannelError as exc:
        print(f"unphysical channel: {exc} (margin {exc.margin:.6g})", file=sys.stderr)
        return EXIT_UNPHYSICAL
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TruncationError as exc:
        print(f"intractable for the brute-force path: {exc}", file=sys.stderr)
        return EXIT_INTRACTABLE
    except ImpossibleEventError as exc:
        print(f"impossible herald: {exc}", file=sys.stderr)
        return EXIT_INTRACTABLE


if __name__ == "__main__":
    sys.exit(main())
