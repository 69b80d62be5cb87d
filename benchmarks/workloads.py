"""The three workloads: seeded inputs, one chunk of closed-loop requests, checks.

One client issues requests one after another and waits for each. A request
is one call into the program (a write_sweep, a run_sections, a cli.main);
it delivers one or more ops. Latency is measured per request, since no
result is visible before the call returns.

Importing this module imports tbswap and tbswap.cli, which the set-up
probe counts as set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from stats import OpCount

import tbswap
import tbswap.cli as cli
from tbswap import (
    ChannelParams,
    DetectionPattern,
    QubitTimeBinSpec,
    TransducerParams,
    TruncationConfig,
    heralded_state,
    state_fidelity_oracle,
    transducer_to_channel,
)

TOLERANCE = 1e-5  # closed form vs oracle, as the test suite enforces
RANGE_SLACK = 1e-12
# Top of the nbar draw for oracle work: d_env = 8 with tail_tol = 1e-7
# reaches nbar = 0.154. Every other oracle round or query sits exactly at
# this corner, where the two paths disagree most, so max_abs_delta is a
# steady estimate of the worst case instead of a maximum of a few draws.
CORNER_NBAR = 0.15
ORACLE_K = 6
# K0 underflows to 0 and swap_fidelity_k divides by it from k = 393 at
# eta = 0.3 (later at larger eta), so the main mix scans below that and the
# edge slice keeps the crashing k_max range.
OPTIMAL_K_MAX = 384
LANDMARK_FIDELITY = 0.8877371396120662  # swap_fidelity_k(eta 0.6, nbar 0.1, k 4)
LANDMARK_K_STAR = 4  # optimal_k(eta 0.6, nbar 0.1, k_max 16)

Result = tuple[float, int, int]  # (request seconds, ops delivered, ops failed)


def timed(fn: Callable, *args) -> tuple[float, Any, BaseException | None]:
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a traceback is a failed op, not a crashed benchmark
        return perf_counter() - start, None, exc
    return perf_counter() - start, result, None


def in_unit_range(value: float) -> bool:
    return math.isfinite(value) and -RANGE_SLACK <= value <= 1.0 + RANGE_SLACK


def value_ok(quantity: str, value: float, fixed: dict) -> bool:
    """Documented range of each sweep quantity."""
    if quantity == "optimal_k":
        return value == int(value) and 1 <= value <= fixed.get("k_max", 32)
    if quantity == "fidelity_ratio_n1_n2":
        return math.isfinite(value) and value > 0.0
    return in_unit_range(value)


def point_params(section) -> list[dict]:
    """Grid points of a section in run_sections' row-major order."""
    points = []
    for v1 in section.axis1.values:
        for v2 in section.axis2.values if section.axis2 is not None else (None,):
            params = dict(section.fixed)
            params[section.axis1.name] = v1
            if v2 is not None:
                params[section.axis2.name] = v2
            points.append(params)
    return points


def section_from(doc: dict):
    section, _, violations = cli.parse_sweep_config(doc)
    if violations:
        raise ValueError(f"benchmark config rejected: {violations}")
    return section


def channel_of(params: dict) -> ChannelParams:
    if "zeta" in params:
        z = params["zeta"]
        return transducer_to_channel(TransducerParams(z, z, params["C"], params["nth"]))
    if "N" in params:
        return ChannelParams(params["eta"], params["N"])
    return ChannelParams.from_eta_nbar(params["eta"], params["nbar"])


def oracle_fidelity(p: ChannelParams, k: int, n: int = 1) -> float:
    """Heralded Phi+ fidelity by brute force, straight from the library."""
    pattern = DetectionPattern.canonical(k) if n == 1 else DetectionPattern(2, ((2, 0), (2, 0)))
    h = heralded_state(p, p, QubitTimeBinSpec(k, n), pattern, TruncationConfig.for_encoding(n))
    return h.fidelity_phi_plus


def oracle_value(quantity: str, params: dict) -> float:
    """Independent oracle for one sweep row (shares no dispatch code with cli)."""
    p = channel_of(params)
    n = int(params.get("n", 1))
    if quantity == "state_fidelity":
        spec = QubitTimeBinSpec(int(params["k"]), n)
        return state_fidelity_oracle(spec, p, TruncationConfig.for_encoding(n))
    if quantity == "swap_fidelity":
        return oracle_fidelity(p, int(params["k"]), n)
    if quantity in ("swap_infidelity", "swap_infidelity_at_optimal_k"):
        return 1.0 - oracle_fidelity(p, int(params["k"]), n)
    if quantity == "fidelity_ratio_n1_n2":
        return oracle_fidelity(p, 2, 1) / oracle_fidelity(p, 2, 2)
    raise ValueError(f"no oracle for {quantity}")


# ---------------------------------------------------------------------------


class Workload:
    """Shared state: seeded draws, check failures, notes, largest delta seen.

    Warm-up draws first from the seeded generator, so the timed part goes on
    to values the warm-up did not use.
    """

    name = ""
    min_chunks = 1
    # peak_rss_mb is read after this many chunks, a fixed amount of work, so
    # it shows memory per unit of work rather than growing with throughput.
    rss_chunks = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.errors: list[str] = []
        self.info: list[str] = []
        self.max_delta = 0.0

    def eta(self) -> float:
        return self.rng.uniform(0.3, 1.0)

    def checks(self) -> None:
        """Post-run correctness checks, outside the timed core."""

    def edge(self, count: OpCount) -> None:
        """Untimed ops counted only in failed_frac."""


class Presets(Workload):
    """op = one CSV row; a chunk is one pass over all six figure presets."""

    name = "presets"
    min_chunks = 2  # two passes, so the CSV bytes can be compared
    rss_chunks = 2
    sample_uniform = 12
    sample_corner = 24

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.sections = {name: cli.preset_sections(name) for name in cli.PRESET_NAMES}
        self.digests: dict[str, str] = {}
        self.bad_rows: dict[str, int] = {}
        self.rows: dict[str, list[list[str]]] = {}

    def first_op(self) -> None:
        cli.write_sweep(cli.preset_sections("fig4b"), self.scratch / "first.csv")

    def warm_up(self) -> None:
        rng = self.rng
        zeta = [rng.uniform(0.5, 1.0) for _ in range(2)]
        c = [rng.uniform(0.05, 2.0) for _ in range(2)]
        eta = [self.eta() for _ in range(2)]
        nbar = [rng.uniform(0.0, 0.3) for _ in range(2)]
        tr = {"axis1": {"name": "zeta", "values": zeta}, "axis2": {"name": "C", "values": c}}
        en = {"axis1": {"name": "eta", "values": eta}, "axis2": {"name": "nbar", "values": nbar}}
        docs = [
            {"quantity": "state_fidelity", **tr, "fixed": {"nth": 0.1, "k": 2}},
            {"quantity": "swap_infidelity", **tr, "fixed": {"nth": 0.1, "k": 1}},
            {"quantity": "optimal_k", **tr, "fixed": {"nth": 0.1, "k_max": 16}},
            {"quantity": "fidelity_ratio_n1_n2", **en},
            {"quantity": "swap_fidelity", **en, "fixed": {"k": 2, "n": 2}},
        ]
        cli.write_sweep([section_from(doc) for doc in docs], self.scratch / "warm.csv")

    def chunk(self) -> list[Result]:
        results = []
        for name, sections in self.sections.items():
            out = self.scratch / f"{name}.csv"
            seconds, rows, exc = timed(cli.write_sweep, sections, out)
            expected = sum(len(point_params(s)) * (2 if s.method == "both" else 1)
                           for s in sections)
            if exc is not None:
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                results.append((seconds, expected, expected))
                continue
            results.append((seconds, rows, self._check_pass(name, out, rows)))
        return results

    def _check_pass(self, name: str, out: Path, rows: int) -> int:
        data = out.read_bytes() + out.with_suffix(".meta.json").read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if name not in self.digests:
            self.digests[name] = digest
            parsed = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))[1:]
            self.rows[name] = parsed
            fixed = {s.quantity: s.fixed for s in self.sections[name]}
            self.bad_rows[name] = sum(
                not value_ok(q, float(v), fixed.get(q, {})) for _, _, q, v, _ in parsed
            )
            if len(parsed) != rows:
                self.errors.append(f"{name}: write_sweep reported {rows} rows, CSV has {len(parsed)}")
            if self.bad_rows[name]:
                self.errors.append(f"{name}: {self.bad_rows[name]} rows out of range")
        elif digest != self.digests[name]:
            self.errors.append(f"{name}: CSV bytes differ between passes")
        return self.bad_rows[name]

    def checks(self) -> None:
        p = ChannelParams.from_eta_nbar(0.6, 0.1)
        fid = tbswap.swap_fidelity_k(p, 4).fidelity
        if abs(fid - LANDMARK_FIDELITY) > 1e-12:
            self.errors.append(f"landmark: swap_fidelity_k(0.6, 0.1, 4) = {fid!r}")
        k_star = tbswap.optimal_k(p, 16)[0]
        if k_star != LANDMARK_K_STAR:
            self.errors.append(f"landmark: optimal_k(0.6, 0.1, 16) = {k_star}")
        if len(self.digests) < len(self.sections):
            return
        candidates, corner = self._oracle_candidates()
        rng = self.rng
        checked = refused = 0
        for pool, want in ((candidates, self.sample_uniform), (corner, self.sample_corner)):
            got = 0
            for name, quantity, params, value in rng.sample(pool, len(pool)):
                if got == want:
                    break
                try:
                    delta = abs(oracle_value(quantity, params) - value)
                except tbswap.TruncationError:
                    refused += 1
                    continue
                got += 1
                checked += 1
                self.max_delta = max(self.max_delta, delta)
                if not delta <= TOLERANCE:
                    self.errors.append(f"{name} {quantity} {params}: |delta| = {delta:.3e}")
        self.info.append(f"oracle spot check: {checked} rows, {refused} refused by the oracle")

    def _oracle_candidates(self):
        """Every checkable row, and the subset at nbar = CORNER_NBAR (fig4a's top in-reach row).

        fig5b's swap_infidelity_at_optimal_k rows are checked at the k* its
        optimal_k section reports for the same grid point.
        """
        rows = []
        for name, sections in self.sections.items():
            csv_rows = iter(self.rows[name])
            k_star: list[int] = []
            for section in sections:
                points = point_params(section)
                for _ in ("analytic", "oracle") if section.method == "both" else (section.method,):
                    for i, params in enumerate(points):
                        _, _, quantity, value, _ = next(csv_rows)
                        if quantity == "optimal_k":
                            k_star.append(int(float(value)))
                            continue
                        if quantity == "swap_infidelity_at_optimal_k":
                            params = {**params, "k": k_star[i]}
                        rows.append((name, quantity, params, float(value)))
        corner = [r for r in rows if abs(channel_of(r[2]).nbar - CORNER_NBAR) < 1e-9]
        return rows, corner


class OracleXcheck(Workload):
    """op = one grid point evaluated by both methods; a chunk is one round.

    A round draws three new eta values and one nbar, and sweeps
    swap_fidelity and state_fidelity over k = 1..6 plus fidelity_ratio_n1_n2,
    all with method both, so each eta is reused across k and quantities.
    """

    name = "oracle-xcheck"
    rss_chunks = 20  # 60 distinct eta, 780 points

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.round = 0

    def _sections(self, etas: list[float], nbar: float) -> list:
        ks = {"name": "k", "min": 1, "max": ORACLE_K, "steps": ORACLE_K}
        axis_eta = {"name": "eta", "values": etas}
        fixed = {"nbar": nbar}
        return [
            section_from({"quantity": q, "method": "both", "axis1": ks, "axis2": axis_eta,
                          "fixed": fixed})
            for q in ("swap_fidelity", "state_fidelity")
        ] + [section_from({"quantity": "fidelity_ratio_n1_n2", "method": "both",
                           "axis1": axis_eta, "fixed": fixed})]

    def first_op(self) -> None:
        doc = {"quantity": "swap_fidelity", "method": "both", "axis1": {"name": "k", "values": [1]},
               "fixed": {"eta": self.eta(), "nbar": 0.1}}
        cli.run_sections([section_from(doc)])

    def warm_up(self) -> None:
        etas = [self.eta() for _ in range(2)]
        for section in self._sections(etas, self.rng.uniform(0.0, CORNER_NBAR)):
            cli.run_sections([section])

    def chunk(self) -> list[Result]:
        nbar = CORNER_NBAR if self.round % 2 == 0 else self.rng.uniform(0.0, CORNER_NBAR)
        self.round += 1
        results = []
        for section in self._sections([self.eta() for _ in range(3)], nbar):
            seconds, rows, exc = timed(cli.run_sections, [section])
            points = len(point_params(section))
            if exc is not None:
                self.errors.append(f"{section.quantity}: {type(exc).__name__}: {exc}")
                results.append((seconds, points, points))
                continue
            results.append((seconds, points, self._check(section, rows, points)))
        return results

    def _check(self, section, rows, points: int) -> int:
        if len(rows) != 2 * points:
            self.errors.append(f"{section.quantity}: {len(rows)} rows for {points} points")
            return points
        failed = 0
        for a_row, o_row in zip(rows[:points], rows[points:]):
            a, o = float(a_row[3]), float(o_row[3])
            delta = abs(a - o)
            ok = value_ok(section.quantity, a, {}) and value_ok(section.quantity, o, {})
            if ok and delta <= TOLERANCE:
                self.max_delta = max(self.max_delta, delta)
                continue
            failed += 1
            self.errors.append(f"{section.quantity} {a_row[:2]}: analytic {a!r}, oracle {o!r}")
        return failed


class CliQueries(Workload):
    """op = one tbswap.cli.main(argv) call with stdout captured; a chunk is 100 queries.

    No usage data exists, so the mix is an unverified traffic assumption
    that assumes as little as it can: equal shares of the five analytic
    commands, about 5% oracle queries and a few sweeps, each exact per
    chunk and shuffled. Within a command every documented option is
    equally likely. All queries use --json so every output is checked.
    """

    name = "cli-queries"
    rss_chunks = 30  # 150 oracle queries at new eta
    MIX = (  # (kind, queries per chunk of 100)
        ("swap", 18), ("state", 18), ("optimal-k", 18), ("classify", 18),
        ("transducer", 18), ("sweep", 5), ("both", 5),
    )
    EDGE_EACH = 4

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.n_both = 0
        self.configs: dict[str, dict] = {}
        self.documented_exits = {
            value for name, value in vars(cli).items()
            if name.startswith("EXIT_") and isinstance(value, int)
        }

    # -- query generation ------------------------------------------------

    def _channel_args(self) -> list[str]:
        return ["--eta", repr(self.eta()), "--nbar", repr(self.rng.uniform(0.0, 0.3))]

    def _k_n(self, k_max: int) -> tuple[int, int]:
        """(k, n) uniform over the valid pairs: k in 1..k_max at n = 1, and k = 2 at n = 2."""
        k = self.rng.randint(1, k_max + 1)
        return (k, 1) if k <= k_max else (2, 2)

    def _query(self, kind: str) -> list[str]:
        rng = self.rng
        if kind == "swap":
            k, n = self._k_n(64)
            return ["fidelity", "swap", *self._channel_args(), "--k", str(k),
                    "--n", str(n), "--json"]
        if kind == "state":
            return ["fidelity", "state", *self._channel_args(),
                    "--k", str(rng.randint(1, 64)), "--json"]
        if kind == "optimal-k":
            return ["optimal-k", *self._channel_args(),
                    "--k-max", str(rng.randint(1, OPTIMAL_K_MAX)), "--json"]
        if kind == "classify":
            k, n = self._k_n(8)
            counts = [rng.randint(0, 2) for _ in range(2 * k)]
            return ["classify", "--k", str(k), "--n", str(n),
                    "--pattern", ",".join(map(str, counts)), "--json"]
        if kind == "transducer":
            head = ["transducer", "--zeta-m", repr(rng.uniform(0.5, 0.99)),
                    "--zeta-o", repr(rng.uniform(0.5, 0.99)),
                    "--C", repr(rng.uniform(0.05, 2.0))]
            if rng.random() < 0.5:  # the two documented ways to give the bath
                return head + ["--nth", repr(rng.uniform(0.0, 0.5)), "--json"]
            return head + ["--temp", repr(rng.uniform(0.01, 0.3)),
                           "--freq", repr(rng.uniform(4e9, 1e10)), "--json"]
        if kind == "sweep":
            return ["sweep", "--config", self._config(), "--json"]
        if kind == "both":
            corner = self.n_both % 2 == 0
            self.n_both += 1
            nbar = CORNER_NBAR if corner else rng.uniform(0.0, CORNER_NBAR)
            k = ORACLE_K if corner else rng.randint(1, ORACLE_K)
            return ["fidelity", "swap", "--method", "both", "--eta", repr(self.eta()),
                    "--nbar", repr(nbar), "--k", str(k), "--json"]
        raise ValueError(kind)

    def _config(self) -> str:
        """A small analytic sweep config written to scratch (input, not timed)."""
        rng = self.rng
        i = len(self.configs)
        out = self.scratch / f"sweep{i}.csv"
        shape = rng.choice(("eta-nbar", "zeta-C", "k-eta"))
        if shape == "eta-nbar":
            doc = {"quantity": rng.choice(("swap_fidelity", "state_fidelity", "swap_infidelity")),
                   "axis1": {"name": "eta", "min": rng.uniform(0.3, 0.6),
                             "max": rng.uniform(0.6, 1.0), "steps": rng.randint(2, 6)},
                   "axis2": {"name": "nbar", "min": 0.0, "max": rng.uniform(0.0, 0.3),
                             "steps": rng.randint(2, 6)},
                   "fixed": {"k": rng.randint(1, 16)}}
        elif shape == "zeta-C":
            doc = {"quantity": "optimal_k",
                   "axis1": {"name": "zeta", "min": rng.uniform(0.5, 0.8), "max": 1.0,
                             "steps": rng.randint(2, 6)},
                   "axis2": {"name": "C", "min": 0.05, "max": rng.uniform(0.5, 2.0),
                             "steps": rng.randint(2, 6)},
                   "fixed": {"nth": rng.uniform(0.0, 0.3), "k_max": rng.randint(2, 32)}}
        else:
            doc = {"quantity": "swap_infidelity",
                   "axis1": {"name": "k", "min": 1, "max": 10, "steps": 10},
                   "axis2": {"name": "eta", "values": [self.eta(), self.eta()]},
                   "fixed": {"nbar": rng.uniform(0.0, 0.3)}}
        doc["out"] = str(out)
        cfg = self.scratch / f"sweep{i}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        self.configs[str(cfg)] = doc
        return str(cfg)

    def _chunk_kinds(self) -> list[str]:
        """Exactly the MIX shares per chunk, in seeded order."""
        kinds = [kind for kind, share in self.MIX for _ in range(share)]
        self.rng.shuffle(kinds)
        return kinds

    # -- running and checking --------------------------------------------

    def _main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def _run(self, argv: list[str], typed_errors_ok: bool = False
             ) -> tuple[float, str | None]:
        """Issue one query; returns (seconds, problem or None).

        Main-mix inputs are valid, so any nonzero exit is a problem there;
        for edge inputs a documented exit code is a typed error, not a failure.
        """
        seconds, result, exc = timed(self._main, argv)
        if exc is not None:
            return seconds, f"traceback {type(exc).__name__}: {exc}"
        code, text = result
        if code != 0:
            if typed_errors_ok and code in self.documented_exits:
                return seconds, None
            return seconds, f"exit code {code}"
        try:
            return seconds, self._check_output(argv, json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            return seconds, f"unreadable output: {exc}"

    def _check_output(self, argv: list[str], payload: dict) -> str | None:
        command = argv[0]
        if command == "fidelity":
            blocks = [payload]
            if payload.get("method") == "both":
                blocks = [payload["analytic"], payload["oracle"]]
                delta = float(payload["delta"])
                if not delta <= TOLERANCE:
                    return f"|delta| = {delta!r} exceeds {TOLERANCE}"
                self.max_delta = max(self.max_delta, delta)
            for block in blocks:
                if not (in_unit_range(block["fidelity"]) and in_unit_range(block["infidelity"])):
                    return f"fidelity out of range: {block}"
                if "K0" in block and not (0.0 < block["K0"] <= 1.0):
                    return f"K0 out of range: {block['K0']!r}"
            return None
        if command == "optimal-k":
            k_max = int(argv[argv.index("--k-max") + 1])
            if not (1 <= payload["k_star"] <= k_max and in_unit_range(payload["infidelity"])):
                return f"optimal-k out of range: {payload}"
            return None
        if command == "classify":
            if payload["class"] not in ("PhiPlus", "PhiMinus", "PsiIndistinct", "Invalid"):
                return f"unknown class {payload['class']!r}"
            if any(p not in (-1, 1) for p in payload.get("parity", ())):
                return f"parity out of range: {payload['parity']}"
            return None
        if command == "transducer":
            ok = (payload["physical"] is True and in_unit_range(payload["eta"])
                  and payload["N"] >= 0.0 and payload["nbar"] >= 0.0)
            return None if ok else f"transducer output out of range: {payload}"
        if command == "sweep":
            doc = self.configs[argv[argv.index("--config") + 1]]
            section = section_from(doc)
            expected = len(point_params(section))
            rows = list(csv.reader(io.StringIO(Path(doc["out"]).read_text(encoding="utf-8"))))[1:]
            if payload["rows"] != expected or len(rows) != expected:
                return f"sweep wrote {payload['rows']} rows, expected {expected}"
            bad = [r for r in rows if not value_ok(r[2], float(r[3]), section.fixed)]
            return f"{len(bad)} sweep rows out of range" if bad else None
        return f"unchecked command {command}"

    def first_op(self) -> None:
        code, _ = self._main(self._query("swap"))
        if code != 0:
            raise RuntimeError(f"first query exited {code}")

    def warm_up(self) -> None:
        for kind, _ in self.MIX:
            _, problem = self._run(self._query(kind))
            if problem:
                raise RuntimeError(f"warm-up {kind} query failed: {problem}")
        self.n_both = 0

    def chunk(self) -> list[Result]:
        results = []
        for kind in self._chunk_kinds():
            argv = self._query(kind)
            seconds, problem = self._run(argv)
            if problem:
                self.errors.append(f"{' '.join(argv)}: {problem}")
            results.append((seconds, 1, 1 if problem else 0))
        return results

    def edge(self, count: OpCount) -> None:
        """Documented-domain inputs that crash today; counted only in failed_frac."""
        rng = self.rng
        queries = [["fidelity", "swap", "--eta", "0", "--nbar", "0", "--k", "2", "--json"]]
        for _ in range(self.EDGE_EACH):
            queries.append(["fidelity", "swap", "--method", "both", "--eta", repr(self.eta()),
                            "--nbar", repr(rng.uniform(0.154, 0.3)),
                            "--k", str(rng.randint(1, ORACLE_K)), "--json"])
            queries.append(["optimal-k", *self._channel_args(),
                            "--k-max", str(rng.randint(1024, 10_000)), "--json"])
        # Deltas from edge inputs would move max_abs_delta once a fix lets them
        # succeed, so the edge slice leaves it as the timed core left it.
        max_delta = self.max_delta
        for argv in queries:
            _, problem = self._run(argv, typed_errors_ok=True)
            count.record(problem is None)
            if problem:
                self.info.append(f"edge: {' '.join(argv)}: {problem}")
        self.max_delta = max_delta


WORKLOADS = {cls.name: cls for cls in (Presets, OracleXcheck, CliQueries)}
