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
takes, which config validation reads. Every quantity that takes a photon
number runs at n = 1 and at n = 2 (two bins, k = 2) by every method, state
fidelity included. The closed form evaluates a whole section in one array
call. The oracle evaluates a section in a few batched calls: per photon
number, one (distinct channels x distinct k) array, whose channel images
come from one Kraus kernel call per environment size, and whose optimal_k
scan is one (channels x k) array; a ``fidelity`` query runs the same steps
through the one-point API (heralded_state, state_fidelity_oracle). The
oracle sizes its own Fock space, so every call takes the one ``TRUNCATION``.

Exit codes: 0 success, 1 usage or config-schema error, 2 unphysical channel
parameters (the physicality margin is reported, never clamped), 3 request
intractable for the oracle: an environment beyond 16 levels (nbar above
about 0.57, or one that overflows to inf), or a herald (swap quantities;
state fidelity has none) of k > 1,023 bins, where no herald weight is a
normal double (K0 < 2^(1 - k)); or an impossible herald: on the closed-form
path only eta = 0 at pure loss (a K0 that underflows is not impossible), on
the oracle path a weight 0 to rounding. Where only the oracle refuses,
``fidelity --method both`` prints the closed-form block and the oracle's
one-line reason, and exits 3.
Channel options on the command line are held to the same domains as sweep
configs. A file the CLI cannot read or write (a directory, a missing
parent) is a usage error: exit 1 with one stderr line naming the path.

The argparse tree is built on the first ``main`` call and shared by every
later call in the process; parsing does not change it.

Sweep configs are a single JSON object; unknown keys are errors and every
schema violation is listed before exiting. A section is evaluated on the
calling thread and its rows are written in row-major axis order, so output
bytes are stable for a fixed config and package version.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .analytic import (
    DEFAULT_K_MAX,
    LOG_MIN,
    Channels,
    SwapFidelityResult,
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
from .states import QubitTimeBinSpec, state_fidelities, state_fidelity_oracle
from .swap import (
    MAX_BINS,
    DetectionPattern,
    HeraldClass,
    canonical_heralds,
    check_bins,
    classify_single_photon,
    classify_two_photon,
    heralded_state,
    parity_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNPHYSICAL = 2
EXIT_INTRACTABLE = 3

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
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past the float range
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

    if 2 in _values_of(section, "n") and any(kv != 2 for kv in _values_of(section, "k")):
        violations.append("config: n = 2 encodings are two-bin; every k must be 2")
    return violations


# ---------------------------------------------------------------------------
# quantities and point evaluation
#
# The table entries below call library functions by their names in this
# module when they run, so code that replaces one of those names (a test
# double, a tracer) sees every call.


def _channel_for(params: dict[str, Any]) -> ChannelParams:
    if "zeta" in params:
        zeta = params["zeta"]
        return transducer_to_channel(
            TransducerParams(zeta_m=zeta, zeta_o=zeta, C=params["C"], nth=params["nth"]))
    if "N" in params:
        return ChannelParams(eta=params["eta"], N=params["N"])
    return ChannelParams.from_eta_nbar(params["eta"], params["nbar"])


class _Points(NamedTuple):
    """A section's points for the array engines: their channels, as arrays
    (channels) and one by one (params), and their bin and photon numbers as
    columns. Read as a spec, it gives k and n."""

    channels: Channels
    params: list[ChannelParams]
    k: np.ndarray
    n: np.ndarray
    k_max: int


def _points(points: list[dict[str, Any]]) -> _Points:
    """A ChannelParams per point, which validates it, then the columns."""
    params = [_channel_for(q) for q in points]
    return _Points(
        Channels.of(params),
        params,
        np.array([int(q.get("k", 1)) for q in points]),
        np.array([int(q.get("n", 1)) for q in points]),
        int(points[0].get("k_max", DEFAULT_K_MAX)),
    )


def _swap_analytic(s: _Points, column: str) -> tuple[np.ndarray, SwapFidelityResult]:
    """A column of the swap result, from the n = 2 closed form where n is 2
    and the k-bin form elsewhere, and the result."""
    two = s.n == 2
    if two.all():
        result = swap_fidelity_n2(s.channels)
    else:
        result = swap_fidelity_k(s.channels, s.k)
        if two.any():
            other = swap_fidelity_n2(s.channels)
            result = SwapFidelityResult(**{
                name: np.where(two, getattr(other, name), getattr(result, name))
                for name in ("k", "n", "K0", "log_K0", "fidelity", "infidelity")
            })
    return getattr(result, column), result


TRUNCATION = TruncationConfig()  # for every n: the oracle sizes its system modes

# The oracle evaluates at most this many (channel, k) heralds at once. One
# costs about 1.5 KB there: its 16 complex log weights (256 B), their
# exponent, the state and its temporaries (about 5 x 256 B more), so a
# block stays near 6 MB.
ORACLE_BLOCK = 1 << 12

Table = Callable[[int, list[ChannelParams], np.ndarray], np.ndarray]


def _oracle_grid(table: Table) -> Callable[[_Points], np.ndarray]:
    """An oracle engine from table(n, channels, ks): a (channels x k) array
    over the distinct channels and distinct bin counts of the points with n
    photons. Each point reads its entry; channels keep the order of their
    first point, so a refused channel raises as it would point by point."""

    def engine(s: _Points) -> np.ndarray:
        values = np.empty(len(s.k))
        for n in np.unique(s.n):
            at = np.flatnonzero(s.n == n)
            index: dict[ChannelParams, int] = {}
            rows = [index.setdefault(s.params[i], len(index)) for i in at]
            ks, cols = np.unique(s.k[at], return_inverse=True)
            values[at] = table(int(n), list(index), ks)[rows, cols]
        return values

    return engine


def _row_blocks(channels: list[ChannelParams], width: int) -> Iterable[slice]:
    """Slices of channels whose rows of width k each hold at most ORACLE_BLOCK."""
    step = max(1, ORACLE_BLOCK // width)
    return (slice(start, start + step) for start in range(0, len(channels), step))


def _herald_fidelities(n: int, channels: list[ChannelParams], ks: np.ndarray) -> np.ndarray:
    """Oracle swap fidelity of the canonical n-photon herald over (channels x ks)."""
    blocks = _row_blocks(channels, ks.size)
    return np.concatenate([canonical_heralds(n, channels[b], ks, TRUNCATION)[0] for b in blocks])


def _oracle_optimal_k(channels: list[ChannelParams], k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force counterpart of analytic.optimal_k: the canonical heralds
    of k = 1..k_max (at most swap.MAX_BINS) as one (channels x k) array,
    ORACLE_BLOCK elements at a time. A scan ends at the first k > 1 whose
    weight is below the smallest normal double; ties by the same rule."""
    ks = np.arange(1, min(k_max, MAX_BINS) + 1)
    k_star, best = np.empty(len(channels), dtype=int), np.empty(len(channels))
    for block in _row_blocks(channels, ks.size):
        fid, log_k0 = canonical_heralds(1, channels[block], ks, TRUNCATION)
        inside = log_k0 >= LOG_MIN
        inside[:, 0] = True
        inside = np.logical_and.accumulate(inside, axis=1)
        if k_max > MAX_BINS and inside[:, -1].any():
            check_bins(MAX_BINS + 1)  # a scan that has not ended by MAX_BINS is refused
        k_star[block], best[block] = pick_k(np.where(inside, 1.0 - fid, np.inf))
    return k_star, best


def _oracle_point(kind: str, p: ChannelParams,
                  spec: QubitTimeBinSpec) -> tuple[float, float | None]:
    """One oracle fidelity, state or swap, and the swap's log K0: the
    one-point API, as fidelity queries use it."""
    if kind == "state":
        return state_fidelity_oracle(spec, p, TRUNCATION), None
    if spec.n == 1:
        pattern = DetectionPattern.canonical(spec.k)
    else:
        pattern = DetectionPattern(k=2, counts=((2, 0), (2, 0)))
    h = heralded_state(p, p, spec, pattern, TRUNCATION)
    return h.fidelity_phi_plus, h.log_success_probability


Engine = Callable[[_Points], tuple[np.ndarray, SwapFidelityResult | None]]
TWO_BINS = np.array([2])


@dataclass(frozen=True)
class Quantity:
    """One evaluable quantity: two independent evaluations and its parameters.

    analytic maps a section's points to (values, the swap result behind them
    or None), in one call into the closed-form array engine; oracle maps
    them to values through the brute-force engine, a few batched calls per
    section.
    """

    analytic: Engine
    oracle: Callable[[_Points], np.ndarray]
    takes_k: bool = False  # a per-bin quantity: needs k, accepts n
    scans_k: bool = False  # scans k = 1..k_max itself


QUANTITIES: dict[str, Quantity] = {
    "state_fidelity": Quantity(
        lambda s: (state_fidelity_analytic(s, s.channels), None),
        _oracle_grid(lambda n, channels, ks: state_fidelities(n, channels, ks, TRUNCATION)),
        takes_k=True,
    ),
    "swap_fidelity": Quantity(
        lambda s: _swap_analytic(s, "fidelity"),
        _oracle_grid(_herald_fidelities),
        takes_k=True,
    ),
    "swap_infidelity": Quantity(
        lambda s: _swap_analytic(s, "infidelity"),
        _oracle_grid(lambda n, channels, ks: 1.0 - _herald_fidelities(n, channels, ks)),
        takes_k=True,
    ),
    "fidelity_ratio_n1_n2": Quantity(
        lambda s: (
            swap_fidelity_n1(s.channels).fidelity / swap_fidelity_n2(s.channels).fidelity,
            None,
        ),
        lambda s: (_herald_fidelities(1, s.params, TWO_BINS)
                   / _herald_fidelities(2, s.params, TWO_BINS))[:, 0],
    ),
    "optimal_k": Quantity(
        lambda s: (optimal_k(s.channels, s.k_max)[0], None),
        lambda s: _oracle_optimal_k(s.params, s.k_max)[0],
        scans_k=True,
    ),
    "swap_infidelity_at_optimal_k": Quantity(
        lambda s: (optimal_k(s.channels, s.k_max)[1], None),
        lambda s: _oracle_optimal_k(s.params, s.k_max)[1],
        scans_k=True,
    ),
}


def _analytic_section(quantity: str, points: list[dict[str, Any]]) -> list[float]:
    """Values of a section's points, in one array call into the closed-form engine."""
    return QUANTITIES[quantity].analytic(_points(points))[0].tolist()


def _oracle_section(quantity: str, points: list[dict[str, Any]]) -> list[float]:
    """Values of a section's points, in a few batched calls into the oracle."""
    return QUANTITIES[quantity].oracle(_points(points)).tolist()


_EVALUATORS = {"analytic": _analytic_section, "oracle": _oracle_section}


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
        params = [q for _, _, q in points]
        for method in _methods(section.method):
            values = _EVALUATORS[method](section.quantity, params)
            rows.extend(
                (a1, a2, section.quantity, _fmt(value), method)
                for (a1, a2, _), value in zip(points, values)
            )
    return rows


# ---------------------------------------------------------------------------
# presets


def _zeta_c_grid() -> tuple[SweepAxis, SweepAxis]:
    return SweepAxis("zeta", _linspace(0.5, 1.0, 60)), SweepAxis("C", _linspace(0.05, 2.0, 60))


def preset_sections(name: str) -> list[SweepSection]:
    if name in ("fig2a", "fig2b"):
        zeta, c = _zeta_c_grid()
        k = 2 if name == "fig2a" else 4
        return [SweepSection("state_fidelity", zeta, c, {"nth": 0.1, "k": k}, "analytic")]
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
        return [SweepSection("swap_infidelity", zeta, c, {"nth": 0.1, "k": 1}, "analytic")]
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
    """Evaluate the sections into the CSV out and its sidecar; returns the row
    count. out is opened (to append) before the work, so a path that cannot be
    written fails first, and a sweep that raises leaves out as it was, or absent."""
    out.parent.mkdir(parents=True, exist_ok=True)
    created = not out.exists()
    try:
        with open(out, "a", newline="", encoding="utf-8") as handle:
            rows = run_sections(sections)
            if not created:
                handle.truncate(0)
            csv.writer(handle, lineterminator="\n").writerows([CSV_HEADER, *rows])
    except BaseException:
        if created:
            out.unlink(missing_ok=True)
        raise
    meta = {"version": __version__, "config_hash": config_hash(sections), "tolerances": TOLERANCES}
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
    """The options given on the command line, as point parameters; the
    channel options are checked by ChannelParams, as sweep points are."""
    return {name: value for name, value in vars(args).items() if value is not None}


def cmd_fidelity(args: argparse.Namespace) -> int:
    quantity = QUANTITIES[f"{args.kind}_fidelity"]
    spec = QubitTimeBinSpec(k=args.k, n=args.n)  # refuses n = 2 at k != 2 (exit 1)
    params = _given(args)
    point = _points([params])
    p = point.params[0]
    blocks: dict[str, dict[str, Any]] = {}
    refusal = None
    for method in _methods(args.method):
        if method == "analytic":
            values, result = quantity.analytic(point)
            fid = float(values[0])
            block = {"fidelity": fid, "infidelity": 1.0 - fid}
            if result is not None:
                block.update(infidelity=float(result.infidelity[0]), K0=float(result.K0[0]),
                             log_K0=float(result.log_K0[0]))
        else:
            try:
                fid, log_k0 = _oracle_point(args.kind, p, spec)
            except (TruncationError, ImpossibleEventError) as exc:
                if args.method != "both":
                    raise
                refusal, blocks[method] = exc, {"refused": _refusal_text(exc)}  # exits 3 below
                continue
            block = {"fidelity": fid, "infidelity": 1.0 - fid}
            if log_k0 is not None:
                block.update(K0=math.exp(log_k0), log_K0=log_k0)
        blocks[method] = block

    base = {"kind": args.kind, "eta": p.eta, "N": p.N, "k": args.k, "n": args.n}
    where = f"eta = {_fmt(p.eta)}, N = {_fmt(p.N)}, k = {args.k}, n = {args.n}"
    if args.method == "both":
        payload = {**base, "method": "both", **blocks}
        lines = [f"{args.kind} fidelity at {where}:"]
        lines += [f"  {method}: {_fidelity_text(block)}" for method, block in blocks.items()]
        if refusal is None:
            payload["delta"] = abs(blocks["analytic"]["fidelity"] - blocks["oracle"]["fidelity"])
            lines.append(f"  disagreement |delta F| = {_fmt(payload['delta'])}")
        text = "\n".join(lines)
    else:
        block = blocks[args.method]
        payload = {**base, "method": args.method, **block}
        text = f"{args.kind} fidelity ({args.method}) at {where}: {_fidelity_text(block)}"
    _emit(args, payload, text)
    if refusal is not None:
        raise refusal
    return EXIT_OK


def _fidelity_text(block: dict[str, Any]) -> str:
    if "refused" in block:
        return block["refused"]
    extra = ""
    if "K0" in block:
        extra = f", K0 = {_fmt(block['K0'])} (log K0 = {_fmt(block['log_K0'])})"
    return f"fidelity = {_fmt(block['fidelity'])}, infidelity = {_fmt(block['infidelity'])}{extra}"


def cmd_classify(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise CliError(f"--k must be at least 1, got {args.k}")
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
    pattern = DetectionPattern(k=args.k, counts=tuple(zip(counts[::2], counts[1::2])))
    label = (classify_single_photon if args.n == 1 else classify_two_photon)(pattern)
    payload: dict[str, Any] = {"class": label.value, "k": args.k, "n": args.n,
                               "pattern": counts}
    text = label.value
    single = all(a + b == 1 for a, b in pattern.counts)
    if label in (HeraldClass.PhiPlus, HeraldClass.PhiMinus) and single:
        p1, p2 = parity_trace(pattern)
        payload["parity"] = [p1, p2]
        text += f" (parity trace P1 = {p1:+d}, P2 = {p2:+d})"
    _emit(args, payload, text)
    return EXIT_OK


def cmd_optimal_k(args: argparse.Namespace) -> int:
    p = _channel_for(_given(args))
    best_k, infidelity = optimal_k(p, args.k_max)
    payload = {"eta": p.eta, "N": p.N, "k_max": args.k_max, "k_star": best_k,
               "infidelity": infidelity, "fidelity": 1.0 - infidelity}
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
        if not (args.out or config_out):
            raise CliError("no output path: set 'out' in the config or pass --out")
        out = Path(args.out or config_out)
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


# Sharing is safe because parse_args leaves the parser as it was: each call
# fills a fresh Namespace, the subparser action copies into it from a fresh
# sub-namespace, and no default is mutable, so no call sees another's options.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The tbswap argument parser, built on the first call and shared by
    every later one; callers must not mutate it."""
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
    p_ok.add_argument("--k-max", dest="k_max", type=int, default=DEFAULT_K_MAX,
                      help="largest bin count scanned")
    p_ok.set_defaults(func=cmd_optimal_k)

    p_sw = sub.add_parser(
        "sweep", parents=[common], help="grid sweep to CSV (config file or preset)",
    )
    p_sw.add_argument("--config", help="sweep config JSON path")
    p_sw.add_argument("--preset", choices=PRESET_NAMES, help="built-in figure preset")
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def _refusal_text(exc: TruncationError | ImpossibleEventError) -> str:
    """The one line that reports an exit-3 refusal."""
    impossible = isinstance(exc, ImpossibleEventError)
    return f"{'impossible herald' if impossible else 'intractable for the brute-force path'}: {exc}"


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
    except (TruncationError, ImpossibleEventError) as exc:
        print(_refusal_text(exc), file=sys.stderr)
        return EXIT_INTRACTABLE
    except OSError as exc:  # a --config or --out path that cannot be read or written
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
