"""End-to-end tests of the command-line interface, run in process through
main() so exit codes and output formatting are both observable."""

import json

import pytest

from tbswap.cli import (
    CSV_HEADER,
    EXIT_INTRACTABLE,
    EXIT_OK,
    EXIT_UNPHYSICAL,
    EXIT_USAGE,
    ORACLE_MAX_BINS,
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


def test_fidelity_swap_analytic(capsys):
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "0.1", "--k", "4", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["fidelity"] == pytest.approx(0.8877371396120662, rel=1e-10)
    assert doc["K0"] == pytest.approx(0.002747721096619669, rel=1e-10)
    assert doc["method"] == "analytic"


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
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "0.1",
        "--k", str(ORACLE_MAX_BINS + 3), "--method", "oracle",
    )
    assert code == EXIT_INTRACTABLE
    assert "analytic" in err  # points at the tractable alternative


def test_fidelity_truncation_refusal_exits_intractable(capsys):
    # nbar = 0.2 puts more thermal tail above the environment cutoff than the
    # oracle will certify
    code, out, err = run_cli(
        capsys, "fidelity", "swap", "--eta", "0.6", "--nbar", "0.2", "--k", "2",
        "--method", "both",
    )
    assert code == EXIT_INTRACTABLE
    assert out == ""
    assert "tail mass" in err
    assert len(err.strip().splitlines()) == 1


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


def test_fidelity_state_n2_needs_oracle(capsys):
    code, out, err = run_cli(
        capsys, "fidelity", "state", "--eta", "0.8", "--nbar", "0.05",
        "--k", "2", "--n", "2",
    )
    assert code == EXIT_USAGE
    assert "oracle" in err


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
    config = {
        "quantity": "swap_fidelity",
        "axis1": {"name": "k", "min": 1, "max": 8, "steps": 8},
        "fixed": {"eta": 0.6, "nbar": 0.1},
        "method": "oracle",
        "out": str(tmp_path / "x.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == EXIT_INTRACTABLE


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
            "fixed": {"nbar": float("inf"), "k": float("inf")},
        }
    )
    assert len(violations) == 3
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
