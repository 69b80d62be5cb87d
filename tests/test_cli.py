"""End-to-end tests of the command-line interface, run in process through
main() so exit codes and output formatting are both observable."""

import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbswap.cli as cli
from tbswap.analytic import swap_fidelity_k, swap_fidelity_n2
from tbswap.channel import ChannelParams
from tbswap.cli import (
    CSV_HEADER,
    EXIT_INTRACTABLE,
    EXIT_OK,
    EXIT_UNPHYSICAL,
    EXIT_USAGE,
    build_parser,
    config_hash,
    main,
    parse_sweep_config,
    preset_sections,
    run_sections,
)

NTH_9GHZ_180MK = 0.09981030749537732


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tbswap 0.1.0" in capsys.readouterr().out


def test_transducer_identity_point(capsys):
    code, out, err = run_cli(
        capsys, "transducer", "--zeta-m", "1", "--zeta-o", "1", "--C", "1", "--nth", "0"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["eta"] == pytest.approx(1.0)
    assert doc["N"] == pytest.approx(0.0, abs=1e-15)
    assert doc["physical"] is True


def test_transducer_from_temperature(capsys):
    code, out, err = run_cli(
        capsys, "transducer", "--zeta-m", "0.9", "--zeta-o", "0.9",
        "--C", "0.65", "--temp", "0.18", "--freq", "9e9",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["nth"] == pytest.approx(NTH_9GHZ_180MK, rel=1e-10)
    assert doc["eta"] == pytest.approx(0.7735537190082646, rel=1e-10)
    assert doc["physicality_margin"] > 0.0


def test_transducer_requires_one_thermal_input(capsys):
    code, out, err = run_cli(
        capsys, "transducer", "--zeta-m", "0.9", "--zeta-o", "0.9", "--C", "0.65"
    )
    assert code == EXIT_USAGE
    assert "thermal occupation" in err
    code, out, err = run_cli(
        capsys, "transducer", "--zeta-m", "0.9", "--zeta-o", "0.9", "--C", "0.65",
        "--nth", "0.1", "--temp", "0.2", "--freq", "9e9",
    )
    assert code == EXIT_USAGE
    assert "not both" in err


def test_transducer_rejects_bad_domain(capsys):
    code, out, err = run_cli(
        capsys, "transducer", "--zeta-m", "1.4", "--zeta-o", "0.9", "--C", "1", "--nth", "0"
    )
    assert code == EXIT_USAGE
    assert "zeta_m" in err


TRANSDUCER_HEAD = ("transducer", "--zeta-m", "0.9", "--zeta-o", "0.9")


@pytest.mark.parametrize(
    "options, name",
    [
        (("--C", "1", "--nth", "nan"), "thermal occupation"),
        (("--C", "1", "--nth", "inf"), "thermal occupation"),
        (("--C", "nan", "--nth", "0.1"), "cooperativity"),
        (("--C", "inf", "--nth", "0.1"), "cooperativity"),
        (("--C", "1", "--temp", "inf", "--freq", "5e9"), "temperature"),
        (("--C", "1", "--temp", "0.1", "--freq", "inf"), "frequency"),
        (("--C", "1", "--temp", "0.1", "--freq", "1e-320"), "thermal occupation"),
    ],
)
def test_transducer_non_finite_input_is_usage_error(capsys, options, name):
    code, out, err = run_cli(capsys, *TRANSDUCER_HEAD, *options)
    assert code == EXIT_USAGE
    assert out == ""
    assert name in err and "finite" in err
    assert len(err.strip().splitlines()) == 1


def test_transducer_huge_cooperativity_reaches_its_limit(capsys):
    # (1 + C)^2 overflows as a power; as a product it gives eta -> 0, N -> 1/2
    code, out, err = run_cli(capsys, *TRANSDUCER_HEAD, "--C", "1e200", "--nth", "0.1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["eta"], doc["N"], doc["physical"]) == (0.0, 0.5, True)


def test_transducer_huge_cooperativity_and_bath_reach_their_limit(capsys):
    # C (1 + C)^-2 nth is 1e-200 * 1e300 here; as a product of huge numbers it
    # was inf/inf, reported as a bad noise coefficient the user never gave
    code, out, err = run_cli(capsys, *TRANSDUCER_HEAD, "--C", "1e200", "--nth", "1e300")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["eta"] == 0.0 and doc["physical"] is True
    assert doc["N"] == pytest.approx(0.5 + 4 * 0.9 * 0.1 * 1e300 / 1e200, rel=1e-12)


def test_transducer_vanishing_temperature_is_empty_bath(capsys):
    code, out, err = run_cli(
        capsys, *TRANSDUCER_HEAD, "--C", "1", "--temp", "1e-320", "--freq", "5e9"
    )
    assert code == EXIT_OK
    assert json.loads(out)["nth"] == 0.0


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in JSON output")


finite_or_not = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-320, 0.0, 0.5, 1.0]
)


@settings(max_examples=200, deadline=None)
@given(
    zeta_m=finite_or_not, zeta_o=finite_or_not, C=finite_or_not,
    bath=st.one_of(
        st.tuples(st.just("--nth"), finite_or_not),
        st.tuples(st.just("--temp"), finite_or_not, st.just("--freq"), finite_or_not),
    ),
)
def test_transducer_property_typed_outcome(zeta_m, zeta_o, C, bath):
    """Any float for any option: exit 0 or 2 with strict JSON, or exit 1 with
    one stderr line; never an uncaught exception."""
    argv = ["transducer", f"--zeta-m={zeta_m!r}", f"--zeta-o={zeta_o!r}", f"--C={C!r}"]
    argv += [f"{option}={value!r}" for option, value in zip(bath[::2], bath[1::2])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_UNPHYSICAL)
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        assert len(err.getvalue().strip().splitlines()) == 1
    else:
        assert err.getvalue() == ""
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert doc["physical"] is (code == EXIT_OK)


bin_count = st.integers(min_value=-2, max_value=10_000) | st.sampled_from(
    [2**53, 2**53 + 1, 10**30]
)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["swap", "state", "optimal-k"]),
    eta=finite_or_not,
    noise=st.tuples(st.sampled_from(["--nbar", "--N"]), finite_or_not),
    k=bin_count,
    n=st.sampled_from([1, 2]),
    method=st.sampled_from(["analytic", "oracle", "both"]),
)
def test_fidelity_and_optimal_k_property_typed_outcome(command, eta, noise, k, n, method):
    """Any float for the channel, any bin count: exit 0 with strict JSON and
    fidelities in [0, 1], or a documented error code with one stderr line;
    never an uncaught exception. Where only the oracle of --method both
    refuses, stdout still holds the closed-form block, with that line in
    place of the oracle's block."""
    channel = [f"--eta={eta!r}", f"{noise[0]}={noise[1]!r}"]
    if command == "optimal-k":
        argv = ["optimal-k", *channel, f"--k-max={k}", "--json"]
    else:
        argv = ["fidelity", command, *channel, f"--k={k}", f"--n={n}", f"--method={method}",
                "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_UNPHYSICAL, EXIT_INTRACTABLE)
    if code != EXIT_OK:
        assert len(err.getvalue().strip().splitlines()) == 1
        if out.getvalue():
            assert code == EXIT_INTRACTABLE and command != "optimal-k" and method == "both"
            doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert doc["oracle"] == {"refused": err.getvalue().strip()}
            assert 0.0 <= doc["analytic"]["fidelity"] <= 1.0 + 1e-12
        return
    assert err.getvalue() == ""
    doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
    if command == "optimal-k":
        assert 1 <= doc["k_star"] <= k
    both = command != "optimal-k" and method == "both"
    for block in [doc["analytic"], doc["oracle"]] if both else [doc]:
        assert 0.0 <= block["fidelity"] <= 1.0 + 1e-12
        assert 0.0 <= block.get("K0", 0.0) <= 1.0


def test_fidelity_swap_analytic(capsys):
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "0.1", "--k", "4", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["fidelity"] == pytest.approx(0.8877371396120662, rel=1e-10)
    assert doc["K0"] == pytest.approx(0.002747721096619669, rel=1e-10)
    assert doc["method"] == "analytic"


def test_fidelity_reports_log_k0(capsys):
    argv = ("fidelity", "swap", "--eta", "0.6", "--nbar", "0.1", "--k", "4")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["log_K0"] == pytest.approx(math.log(0.002747721096619669), rel=1e-12)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert "K0 = 0.00274772109662 (log K0 = -5.896983403)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("fidelity", "swap", "--eta", "0.6", "--nbar", "1e300", "--k", "2"),
        ("fidelity", "swap", "--eta", "0.6", "--nbar", "1e300", "--k", "2", "--n", "2"),
        ("fidelity", "state", "--eta", "0.6", "--nbar", "1e300", "--k", "2"),
    ],
)
def test_fidelity_at_huge_noise_is_finite(capsys, argv):
    # t^3 and t^4 overflowed here; in u = 1/t the swap fidelity reaches 1/4
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == EXIT_OK
    doc = json.loads(out, parse_constant=_reject_constant)
    assert 0.0 <= doc["fidelity"] <= 1.0
    if argv[1] == "swap":
        assert doc["fidelity"] == pytest.approx(0.25, abs=1e-12)
        assert doc["K0"] == 0.0 and math.isfinite(doc["log_K0"])


def test_optimal_k_at_huge_noise_is_finite(capsys):
    code, out, err = run_cli(capsys, "optimal-k", "--eta", "0.6", "--nbar", "1e300", "--json")
    assert code == EXIT_OK
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["k_star"] == 1
    assert doc["infidelity"] == pytest.approx(0.75, abs=1e-12)


def test_fidelity_pure_loss_is_exact_where_k0_is_subnormal(capsys):
    # K0 = 4.2e-321 here; the ratio of two subnormals read 1.00116959064
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.95", "--nbar", "0", "--k", "990", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["fidelity"], doc["infidelity"]) == (1.0, 0.0)
    assert doc["log_K0"] < math.log(sys.float_info.min)


def test_fidelity_where_k0_underflows_is_not_impossible(capsys):
    # K0 underflows to 0 long before k = 1e8; the herald is possible all the same
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "0.1", "--k", "100000000", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["K0"] == 0.0
    assert doc["fidelity"] == pytest.approx(0.5, abs=1e-12)


def test_fidelity_swap_both_methods_agree(capsys):
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "0.1", "--k", "2",
        "--method", "both", "--json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["delta"] < 1e-5
    assert doc["analytic"]["fidelity"] == pytest.approx(doc["oracle"]["fidelity"], abs=1e-5)


def test_fidelity_state_text_output(capsys):
    code, out, err = run_cli(
        capsys, "fidelity", "state", "--eta", "0.6", "--nbar", "0.1", "--k", "2"
    )
    assert code == EXIT_OK
    assert "state fidelity (analytic)" in out
    assert "0.520404791499" in out


def test_fidelity_oracle_bin_guard(capsys):
    # the oracle has no bin cap below k = 1,023: k = 9 runs and agrees
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "0.1",
        "--k", "9", "--method", "both", "--json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["delta"] < 1e-5


def test_fidelity_oracle_refuses_more_bins_than_a_normal_weight_allows(capsys):
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "0.1",
        "--k", "1024", "--method", "oracle",
    )
    assert code == EXIT_INTRACTABLE
    assert out == ""
    assert "1023" in err
    assert len(err.strip().splitlines()) == 1


def test_fidelity_truncation_refusal_exits_intractable(capsys):
    # nbar = 1.0 needs more environment levels than the oracle's ceiling of 16
    # to bring the thermal tail under tail_tol; the closed form still prints
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "1.0", "--k", "2",
        "--method", "both",
    )
    assert code == EXIT_INTRACTABLE
    assert "  analytic: fidelity = 0.349440188568" in out
    assert f"  oracle: {err.strip()}" in out
    assert "delta" not in out
    assert "tail mass" in err
    assert len(err.strip().splitlines()) == 1


def test_overflowed_environment_occupation_is_refused(capsys, tmp_path):
    # N = 1e308 at eta 0.6 gives nbar = inf, whose thermal tail is 1: the
    # oracle refuses it (exit 3) instead of printing a NaN fidelity
    channel = ("--eta", "0.6", "--N", "1e308", "--k", "2")
    code, out, err = run_cli(capsys, "fidelity", "swap", *channel, "--method", "both", "--json")
    assert code == EXIT_INTRACTABLE
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["analytic"]["fidelity"] == pytest.approx(0.25)
    assert doc["oracle"] == {"refused": err.strip()}
    assert "delta" not in doc and "nbar = inf" in err
    code, out, err = run_cli(capsys, "fidelity", "state", *channel, "--method", "oracle")
    assert code == EXIT_INTRACTABLE
    assert out == "" and len(err.strip().splitlines()) == 1
    # a huge finite occupation is printed short
    code, out, err = run_cli(capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "1e307",
                             "--k", "2", "--method", "oracle")
    assert code == EXIT_INTRACTABLE
    assert "nbar = 1e+307 " in err
    config = {
        "quantity": "swap_fidelity",
        "axis1": {"name": "eta", "values": [0.6]},
        "fixed": {"N": 1e308, "k": 2},
        "method": "oracle",
        "out": str(tmp_path / "overflow.csv"),
    }
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == EXIT_INTRACTABLE
    assert "nbar = inf" in err and len(err.strip().splitlines()) == 1


def test_overflowed_occupation_refusal_reports_its_tail(capsys):
    code, out, err = run_cli(capsys, "fidelity", "swap", "--eta", "0.6", "--N", "1e308",
                             "--k", "2", "--method", "oracle")
    assert (code, out) == (EXIT_INTRACTABLE, "")
    assert "tail mass 1.000e+00" in err and "nan" not in err.lower()
    assert len(err.strip().splitlines()) == 1


def test_fidelity_both_keeps_closed_form_when_only_the_oracle_refuses(capsys):
    # eta 1e-20 at pure loss: K0 is 1.25e-41, not 0, so the closed form gives
    # F = 1; the oracle's herald weight is 0 to rounding
    argv = ("fidelity", "swap", "--eta", "1e-20", "--nbar", "0", "--k", "2", "--method", "both")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INTRACTABLE
    reason = err.strip()
    assert reason.startswith("impossible herald:") and len(err.strip().splitlines()) == 1
    assert out.splitlines()[1:] == [
        "  analytic: fidelity = 1, infidelity = 0, K0 = 1.25e-41 (log K0 = -94.1828452614)",
        f"  oracle: {reason}",
    ]
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == EXIT_INTRACTABLE
    doc = json.loads(out)
    assert doc["analytic"]["fidelity"] == 1.0
    assert doc["analytic"]["K0"] == pytest.approx(1.25e-41, rel=1e-12)
    assert doc["oracle"] == {"refused": err.strip()}
    assert "delta" not in doc


def test_fidelity_impossible_herald_exits_intractable(capsys):
    # eta = 0 at pure loss: no photon reaches the detectors
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0", "--nbar", "0", "--k", "2",
        "--method", "oracle",
    )
    assert code == EXIT_INTRACTABLE
    assert "probability" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("fidelity", "swap", "--eta", "0.6", "--nbar", "nan", "--k", "2"),
        ("fidelity", "swap", "--eta", "0.6", "--nbar", "inf", "--k", "2"),
        ("fidelity", "swap", "--eta", "0.6", "--N", "inf", "--k", "2"),
        ("optimal-k", "--eta", "0.6", "--nbar", "nan"),
    ],
)
def test_non_finite_channel_option_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "must be finite" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("fidelity", "swap", "--eta", "0", "--nbar", "0", "--k", "2"),
        ("fidelity", "swap", "--eta", "0", "--nbar", "0", "--k", "2", "--n", "2"),
        ("optimal-k", "--eta", "0", "--nbar", "0"),
    ],
)
def test_zero_weight_herald_closed_form_exits_intractable(capsys, argv):
    # eta = 0 at pure loss: the closed form meets K0 = 0, as the oracle does
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INTRACTABLE
    assert out == ""
    assert "probability" in err
    assert len(err.strip().splitlines()) == 1


def test_fidelity_n2_needs_two_bins(capsys):
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.8", "--nbar", "0.05",
        "--k", "3", "--n", "2",
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("method", ["analytic", "oracle", "both"])
@pytest.mark.parametrize("kind", ["state", "swap"])
def test_n2_with_other_than_two_bins_is_usage_error(capsys, tmp_path, kind, method):
    # without the check, the closed form would print the k = 2 value
    code, out, err = run_cli(
        capsys, "fidelity", kind, "--eta", "0.8", "--nbar", "0.05", "--k", "3", "--n", "2",
        "--method", method,
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines() == [
        "invalid parameters: n = 2 > 1 is defined only for k = 2, got k = 3"]
    config = {
        "quantity": f"{kind}_fidelity",
        "axis1": {"name": "k", "values": [2, 3]},
        "fixed": {"eta": 0.8, "nbar": 0.05, "n": 2},
        "method": method,
        "out": str(tmp_path / "x.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert [line for line in err.splitlines() if line.startswith("  - ")] == [
        "  - config: n = 2 encodings are two-bin; every k must be 2"]
    assert not (tmp_path / "x.csv").exists()


def test_fidelity_state_n2_runs_by_every_method(capsys):
    channel = ("--eta", "0.6", "--nbar", "0.1", "--k", "2", "--n", "2")
    values = {}
    for method in ("analytic", "oracle"):
        code, out, err = run_cli(capsys, "fidelity", "state", *channel, "--method", method,
                                 "--json")
        assert (code, err) == (EXIT_OK, "")
        values[method] = json.loads(out)["fidelity"]
    code, out, err = run_cli(capsys, "fidelity", "state", *channel, "--method", "both", "--json")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert {method: doc[method]["fidelity"] for method in values} == values
    assert doc["delta"] <= 1e-5
    assert values["analytic"] == pytest.approx(0.3013270759600181, rel=1e-12)


def test_fidelity_unphysical_channel(capsys):
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.9", "--N", "0.01", "--k", "2"
    )
    assert code == EXIT_UNPHYSICAL
    assert "unphysical channel" in err
    assert "margin" in err


def test_classify_phi_plus_with_parity(capsys):
    code, out, err = run_cli(capsys, "classify", "--k", "2", "--pattern", "1,0,1,0")
    assert code == EXIT_OK
    assert "PhiPlus" in out
    assert "P1 = +1, P2 = +1" in out


def test_classify_phi_minus(capsys):
    code, out, err = run_cli(capsys, "classify", "--k", "2", "--pattern", "1,0,0,1")
    assert code == EXIT_OK
    assert "PhiMinus" in out


def test_classify_invalid_and_two_photon(capsys):
    code, out, err = run_cli(capsys, "classify", "--k", "2", "--pattern", "1,1,0,0")
    assert code == EXIT_OK
    assert "Invalid" in out
    code, out, err = run_cli(
        capsys, "classify", "--k", "2", "--n", "2", "--pattern", "2,0,2,0", "--json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["class"] == "PhiPlus"


@pytest.mark.parametrize("k", ["-1", "0"])
def test_classify_needs_at_least_one_bin(capsys, k):
    code, out, err = run_cli(capsys, "classify", "--k", k, "--pattern", "1")
    assert code == EXIT_USAGE
    assert "--k must be at least 1" in err
    assert "2k" not in err


def test_classify_malformed_pattern(capsys):
    code, out, err = run_cli(capsys, "classify", "--k", "2", "--pattern", "1,0,1")
    assert code == EXIT_USAGE
    assert "2k" in err
    code, out, err = run_cli(capsys, "classify", "--k", "2", "--pattern", "1,0,1,x")
    assert code == EXIT_USAGE


def test_optimal_k_landmark(capsys):
    code, out, err = run_cli(
        capsys, "optimal-k", "--eta", "0.6", "--nbar", "0.1", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["k_star"] == 4
    assert doc["infidelity"] == pytest.approx(0.11226286038793376, rel=1e-10)


@pytest.mark.parametrize(
    "eta, nbar, k_normal, k_star",
    [("0.3", "0.1", 380, 4), ("0.95", "0", 950, 2)],
)
def test_optimal_k_scan_stops_where_k0_underflows(capsys, eta, nbar, k_normal, k_star):
    # K0 leaves the normal floats after k_normal and reaches 0 below k = 1000;
    # a longer scan stops there and agrees with the scan up to k_normal
    docs = []
    for k_max in (k_normal, 10_000):
        code, out, err = run_cli(
            capsys, "optimal-k", "--eta", eta, "--nbar", nbar, "--k-max", str(k_max), "--json"
        )
        assert code == EXIT_OK
        docs.append(json.loads(out))
    assert docs[0]["k_star"] == docs[1]["k_star"] == k_star
    assert docs[0]["infidelity"] == docs[1]["infidelity"]
    assert 0.0 <= docs[1]["infidelity"] <= 1.0


def test_unknown_argument_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "fidelity", "swap", "--eta", "0.6", "--wat", "1")
    assert code == EXIT_USAGE


def test_sweep_preset_writes_csv_and_meta(tmp_path, capsys):
    out = tmp_path / "fig4b.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--preset", "fig4b", "--out", str(out), "--json"
    )
    assert code == EXIT_OK
    summary = json.loads(stdout)
    assert summary["rows"] == 20

    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 21
    # minimum of the k-scan at eta = 0.6 sits at four bins
    values = {}
    for line in lines[1:]:
        axis1, axis2, quantity, value, method = line.split(",")
        assert quantity == "swap_infidelity"
        assert method == "analytic"
        values[(axis1, axis2)] = float(value)
    at_06 = {int(k): v for (k, eta), v in values.items() if eta == "0.6"}
    assert min(at_06, key=at_06.get) == 4
    at_08 = {int(k): v for (k, eta), v in values.items() if eta == "0.8"}
    assert min(at_08, key=at_08.get) == 3

    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["version"] == "0.1.0"
    assert meta["config_hash"] == summary["config_hash"]
    assert "closed_form_vs_oracle" in meta["tolerances"]


def test_sweep_preset_deterministic_bytes(tmp_path, capsys):
    """Two runs of the same sweep write the same CSV and sidecar bytes, for an
    analytic preset and for a method-both config. Points are evaluated in grid
    order on the calling thread, oracle points included."""
    config = {
        "quantity": "swap_fidelity",
        "axis1": {"name": "k", "min": 1, "max": 3, "steps": 3},
        "axis2": {"name": "eta", "values": [0.6, 0.8]},
        "fixed": {"nbar": 0.05},
        "method": "both",
    }
    cfg_path = tmp_path / "both.json"
    cfg_path.write_text(json.dumps(config))
    for source in (["--preset", "fig4b"], ["--config", str(cfg_path)]):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", *source, "--out", str(out_a))[0] == EXIT_OK
        assert run_cli(capsys, "sweep", *source, "--out", str(out_b))[0] == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (
            out_a.with_suffix(".meta.json").read_bytes()
            == out_b.with_suffix(".meta.json").read_bytes()
        )


def test_sweep_custom_config_both_methods(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    config = {
        "quantity": "swap_infidelity",
        "axis1": {"name": "k", "min": 1, "max": 4, "steps": 4},
        "fixed": {"eta": 0.6, "nbar": 0.1},
        "method": "both",
        "out": str(out),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    methods = [line.split(",")[4] for line in lines[1:]]
    assert methods == ["analytic"] * 4 + ["oracle"] * 4
    analytic_vals = [float(line.split(",")[3]) for line in lines[1:5]]
    oracle_vals = [float(line.split(",")[3]) for line in lines[5:9]]
    for a, o in zip(analytic_vals, oracle_vals):
        assert o == pytest.approx(a, abs=1e-5)


def test_sweep_state_fidelity_over_photon_numbers_both_methods(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    config = {
        "quantity": "state_fidelity",
        "axis1": {"name": "n", "values": [1, 2]},
        "axis2": {"name": "eta", "values": [0.6, 0.9]},
        "fixed": {"k": 2, "nbar": 0.1},
        "method": "both",
        "out": str(out),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(capsys, "sweep", "--config", str(cfg_path))[0] == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[4]) for row in rows] == [
        (n, method) for method in ("analytic", "oracle") for n in "1122"]
    values = [float(row[3]) for row in rows]
    assert values[:4] == pytest.approx(values[4:], abs=1e-5)


def test_sweep_config_optimal_k_pair_both_methods(tmp_path, capsys):
    """optimal_k and swap_infidelity_at_optimal_k take k_max, refuse k, and
    their closed-form and oracle scans agree."""
    rows = {}
    for quantity in ("optimal_k", "swap_infidelity_at_optimal_k"):
        out = tmp_path / f"{quantity}.csv"
        config = {
            "quantity": quantity,
            "axis1": {"name": "eta", "values": [0.6, 0.9]},
            "fixed": {"nbar": 0.05, "k_max": 4},
            "method": "both",
            "out": str(out),
        }
        cfg_path = tmp_path / f"{quantity}.json"
        cfg_path.write_text(json.dumps(config))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == EXIT_OK, err
        rows[quantity] = [line.split(",") for line in out.read_text().splitlines()[1:]]

        config["fixed"]["k"] = 2
        cfg_path.write_text(json.dumps(config))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == EXIT_USAGE
        assert "k must not be set" in err

    k_star = [float(row[3]) for row in rows["optimal_k"]]
    assert k_star[:2] == k_star[2:]  # analytic rows, then oracle rows
    best = [float(row[3]) for row in rows["swap_infidelity_at_optimal_k"]]
    for a, o in zip(best[:2], best[2:]):
        assert o == pytest.approx(a, abs=1e-5)


@pytest.mark.parametrize(
    "eta, nbar, k, n",
    [
        (0.3, 0.3, 2, 1), (0.3, 0.3, 2, 2), (0.65, 0.3, 2, 1), (0.65, 0.3, 2, 2),  # fig4a
        (0.6, 0.1, 10, 1), (0.8, 0.1, 10, 1),  # fig4b
    ],
)
def test_fidelity_both_reaches_fig4_presets(capsys, eta, nbar, k, n):
    """fig4a's top nbar row at n = 1 and 2, and fig4b's largest k: the oracle
    sizes its environment and keeps its weight, and agrees within 1e-5."""
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", repr(eta), "--nbar", repr(nbar),
        "--k", str(k), "--n", str(n), "--method", "both", "--json",
    )
    assert code == EXIT_OK, err
    assert json.loads(out)["delta"] <= 1e-5


def test_sweep_both_reaches_fig5b(tmp_path, capsys):
    """fig5b's pair at k_max 16 on (zeta, C) points that include its corner
    (0.5, 0.05), whose oracle scan passes k = 10, where K0 falls below
    1e-15: equal k* on both paths and infidelities within 1e-5."""
    values = {}
    for quantity in ("optimal_k", "swap_infidelity_at_optimal_k"):
        out = tmp_path / f"{quantity}.csv"
        config = {
            "quantity": quantity,
            "axis1": {"name": "zeta", "values": [0.5, 0.75, 1.0]},
            "axis2": {"name": "C", "values": [0.05, 0.5, 2.0]},
            "fixed": {"nth": 0.1, "k_max": 16},
            "method": "both",
            "out": str(out),
        }
        cfg_path = tmp_path / f"{quantity}.json"
        cfg_path.write_text(json.dumps(config))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == EXIT_OK, err
        values[quantity] = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]

    k_star = values["optimal_k"]
    assert k_star[:9] == k_star[9:]  # analytic rows, then oracle rows
    best = values["swap_infidelity_at_optimal_k"]
    assert best[9:] == pytest.approx(best[:9], abs=1e-5)


def test_sweep_optimal_k_pure_loss_ties_agree(tmp_path, capsys):
    """At pure loss every k >= 2 has fidelity 1 up to rounding; both scans
    take the smallest k within the tie tolerance, so their rows are equal."""
    out = tmp_path / "ties.csv"
    config = {
        "quantity": "optimal_k",
        "axis1": {"name": "eta", "values": [0.4, 0.5, 0.7, 0.8, 0.9]},
        "fixed": {"nbar": 0.0, "k_max": 6},
        "method": "both",
        "out": str(out),
    }
    cfg_path = tmp_path / "ties.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == EXIT_OK, err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    analytic = [row[:4] for row in rows if row[4] == "analytic"]
    oracle = [row[:4] for row in rows if row[4] == "oracle"]
    assert analytic == oracle
    assert {row[3] for row in analytic} == {"2"}


def test_sweep_config_axis_values_form(tmp_path, capsys):
    out = tmp_path / "zeta.csv"
    config = {
        "quantity": "state_fidelity",
        "axis1": {"name": "zeta", "values": [0.6, 0.8, 1.0]},
        "fixed": {"C": 1.0, "nth": 0.1, "k": 2},
        "method": "analytic",
        "out": str(out),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    fids = [float(r.split(",")[3]) for r in rows]
    assert fids == sorted(fids)  # rising extraction, rising fidelity


def test_sweep_photon_number_axis_takes_each_closed_form():
    # one array call per section: n = 1 points take the k-bin form, n = 2
    # points the two-photon form
    section, _, violations = parse_sweep_config({
        "quantity": "swap_fidelity",
        "axis1": {"name": "n", "values": [1, 2, 1]},
        "axis2": {"name": "eta", "values": [0.6, 0.8]},
        "fixed": {"k": 2, "nbar": 0.1},
    })
    assert not violations
    values = [float(row[3]) for row in run_sections([section])]
    p6, p8 = (ChannelParams.from_eta_nbar(eta, 0.1) for eta in (0.6, 0.8))
    n1 = [swap_fidelity_k(p6, 2).fidelity, swap_fidelity_k(p8, 2).fidelity]
    n2 = [swap_fidelity_n2(p6).fidelity, swap_fidelity_n2(p8).fidelity]
    assert values == pytest.approx(n1 + n2 + n1, rel=1e-11)


def test_sweep_config_violations_are_exhaustive(tmp_path, capsys):
    config = {
        "quantity": "swap_everything",
        "axis1": {"name": "k", "min": 1, "max": 4},
        "fixed": {"eta": 0.6},
        "method": "telepathy",
        "surprise": True,
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == EXIT_USAGE
    # every independent problem is reported, not only the first
    assert "swap_everything" in err
    assert "telepathy" in err
    assert "surprise" in err
    assert "steps" in err


def test_sweep_config_rejects_incomplete_parametrization(tmp_path, capsys):
    config = {
        "quantity": "swap_fidelity",
        "axis1": {"name": "eta", "min": 0.4, "max": 0.8, "steps": 5},
        "fixed": {"k": 2},
        "method": "analytic",
        "out": "x.csv",
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == EXIT_USAGE
    assert "nbar" in err or "N" in err


def test_sweep_oracle_guard(tmp_path, capsys):
    # an oracle sweep past k = 6 runs, and agrees with the closed form
    config = {
        "quantity": "swap_fidelity",
        "axis1": {"name": "k", "min": 1, "max": 8, "steps": 8},
        "fixed": {"eta": 0.6, "nbar": 0.1},
        "method": "both",
        "out": str(tmp_path / "x.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == EXIT_OK
    rows = (tmp_path / "x.csv").read_text().splitlines()[1:]
    values = [float(row.split(",")[3]) for row in rows]
    assert len(values) == 16
    assert values[:8] == pytest.approx(values[8:], abs=1e-5)


def test_sweep_unphysical_point_exits_two(tmp_path, capsys):
    config = {
        "quantity": "swap_fidelity",
        "axis1": {"name": "k", "min": 1, "max": 2, "steps": 2},
        "fixed": {"eta": 0.9, "N": 0.01},
        "method": "analytic",
        "out": str(tmp_path / "x.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == EXIT_UNPHYSICAL


def test_sweep_requires_config_xor_preset(capsys):
    code, stdout, err = run_cli(capsys, "sweep")
    assert code == EXIT_USAGE
    code, stdout, err = run_cli(
        capsys, "sweep", "--preset", "fig4b", "--config", "x.json"
    )
    assert code == EXIT_USAGE


def test_sweep_missing_config_file(capsys):
    code, stdout, err = run_cli(capsys, "sweep", "--config", "/nonexistent/cfg.json")
    assert code == EXIT_USAGE
    assert "not found" in err


def test_parse_sweep_config_unit():
    section, out, violations = parse_sweep_config(
        {
            "quantity": "swap_fidelity",
            "axis1": {"name": "eta", "values": [0.5, 0.6]},
            "fixed": {"nbar": 0.1, "k": 2},
            "method": "analytic",
            "out": "f.csv",
        }
    )
    assert violations == []
    assert out == "f.csv"
    assert section.quantity == "swap_fidelity"
    assert section.axis1.name == "eta"
    assert section.axis1.values == (0.5, 0.6)

    _, _, violations = parse_sweep_config([1, 2, 3])
    assert violations == ["config: top level must be a JSON object"]


def test_parse_sweep_config_rejects_non_finite_values():
    _, _, violations = parse_sweep_config(
        {
            "quantity": "swap_fidelity",
            "axis1": {"name": "eta", "values": [0.5, float("nan")]},
            "axis2": {"name": "k", "values": [10**400]},
            "fixed": {"nbar": float("inf"), "k": float("inf")},
        }
    )
    assert len(violations) == 4
    assert all("must be finite" in violation for violation in violations)


def test_preset_row_counts():
    expected = {"fig2a": 3600, "fig2b": 3600, "fig4a": 8662, "fig4b": 20,
                "fig5a": 3600, "fig5b": 7200}
    for name, want in expected.items():
        sections = preset_sections(name)
        if name in ("fig4b",):
            rows = run_sections(sections)
            assert len(rows) == want
        else:
            total = 0
            for s in sections:
                n2 = len(s.axis2.values) if s.axis2 is not None else 1
                per_method = 2 if s.method == "both" else 1
                total += len(s.axis1.values) * n2 * per_method
            assert total == want, name


def test_config_hash_stable_and_sensitive():
    sections = preset_sections("fig4b")
    assert config_hash(sections) == config_hash(preset_sections("fig4b"))
    assert config_hash(sections) != config_hash(preset_sections("fig5a"))


def test_output_file_redirect(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, stdout, err = run_cli(
        capsys, "optimal-k", "--eta", "0.8", "--nbar", "0.1", "--json",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert stdout == ""
    assert json.loads(out.read_text())["k_star"] == 3


@pytest.mark.parametrize(
    "argv, named",
    [
        (("sweep", "--config", "{dir}"), "{dir}"),
        (("sweep", "--preset", "fig4b", "--out", "{dir}"), "{dir}"),
        (("sweep", "--preset", "fig4b", "--out", "/dev/null/x.csv"), "/dev/null"),
        (("transducer", "--zeta-m", "0.9", "--zeta-o", "0.8", "--C", "1", "--nth", "0.1",
          "--out", "/nonexistent/x.json"), "/nonexistent/x.json"),
        (("fidelity", "swap", "--eta", "0.6", "--nbar", "0.1", "--k", "2", "--out", "{dir}"),
         "{dir}"),
    ],
)
def test_unreadable_or_unwritable_path_is_usage_error(tmp_path, capsys, argv, named):
    code, out, err = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert err.startswith("file error: ")
    assert named.format(dir=tmp_path) in err


def test_sweep_unwritable_out_fails_before_evaluating(tmp_path, capsys, monkeypatch):
    evaluated = []
    monkeypatch.setattr(cli, "run_sections", lambda sections: evaluated.append(sections))
    code, out, err = run_cli(capsys, "sweep", "--preset", "fig5b", "--out", str(tmp_path))
    assert (code, out, evaluated) == (EXIT_USAGE, "", [])
    assert err.startswith("file error: ") and len(err.splitlines()) == 1


def test_refused_sweep_leaves_out_as_it_was(tmp_path, capsys):
    config = {
        "quantity": "swap_fidelity",
        "axis1": {"name": "nbar", "values": [0.1, 1.0]},
        "fixed": {"eta": 0.6, "k": 2},
        "method": "both",
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out))
    assert code == EXIT_INTRACTABLE and "tail mass" in err
    assert list(tmp_path.iterdir()) == [cfg_path]
    out.write_bytes(b"kept\n")
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out))
    assert code == EXIT_INTRACTABLE
    assert out.read_bytes() == b"kept\n"
    assert not out.with_suffix(".meta.json").exists()


def test_sweep_over_a_longer_file_writes_the_same_bytes(tmp_path, capsys):
    fresh, stale = tmp_path / "fresh.csv", tmp_path / "stale.csv"
    stale.write_bytes(b"x" * 100_000)
    for out in (fresh, stale):
        assert run_cli(capsys, "sweep", "--preset", "fig4b", "--out", str(out))[0] == EXIT_OK
    assert stale.read_bytes() == fresh.read_bytes()


# The parser is built once per process; each query must see only its own options.


def test_build_parser_is_shared():
    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_options_between_queries(capsys):
    channel = ("--eta", "0.6", "--nbar", "0.1")
    code, out, err = run_cli(
        capsys, "fidelity", "swap", *channel, "--k", "2", "--n", "2", "--method", "oracle",
        "--json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["n"], doc["method"]) == (2, "oracle")
    code, out, err = run_cli(capsys, "fidelity", "swap", *channel, "--k", "3", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["n"], doc["method"]) == (1, "analytic")


def test_shared_parser_noise_option_does_not_persist(capsys):
    nbar_query = ("fidelity", "swap", "--eta", "0.6", "--nbar", "0.1", "--k", "2", "--json")
    code, first, err = run_cli(capsys, *nbar_query)
    assert code == EXIT_OK
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--N", "0.5", "--k", "2", "--json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["N"] == 0.5
    code, again, err = run_cli(capsys, *nbar_query)
    assert code == EXIT_OK
    assert again == first


def test_shared_parser_out_does_not_persist(tmp_path, capsys):
    argv = ("optimal-k", "--eta", "0.8", "--nbar", "0.1", "--json")
    out_file = tmp_path / "result.json"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == EXIT_OK
    assert stdout == ""
    code, stdout, err = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(stdout) == json.loads(out_file.read_text())


def test_shared_parser_repeats_usage_errors_identically(capsys):
    argv = ("fidelity", "swap", "--eta", "0.6", "--wat", "1")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == EXIT_USAGE
    assert first == second


def test_shared_parser_valid_classify_after_a_failing_one(capsys):
    code, out, err = run_cli(capsys, "classify", "--k", "2", "--pattern", "1,0,1")
    assert code == EXIT_USAGE
    code, out, err = run_cli(capsys, "classify", "--k", "2", "--pattern", "1,0,1,0", "--json")
    assert code == EXIT_OK
    assert err == ""
    assert json.loads(out)["class"] == "PhiPlus"
