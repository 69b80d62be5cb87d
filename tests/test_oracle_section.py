"""The batched oracle section against the one-point oracle API.

cli._oracle_section evaluates a whole sweep section in a few batched calls;
heralded_state and state_fidelity_oracle evaluate one point. Every oracle
quantity must agree between the two within 1e-13 at every point, refuse the
same points with the same typed error, and keep its working set bounded.
"""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

import tbswap.cli as cli
import tbswap.states as states
import tbswap.swap as swap
from tbswap.analytic import LOG_MIN, pick_k
from tbswap.channel import ChannelParams, ImpossibleEventError, environment_levels
from tbswap.fock import TruncationConfig, TruncationError
from tbswap.states import QubitTimeBinSpec, state_fidelity_oracle
from tbswap.swap import ZERO_WEIGHT, DetectionPattern, heralded_state

SECTION_TOL = 1e-13


def herald(p, k, n):
    spec = QubitTimeBinSpec(k=k, n=n)
    pattern = DetectionPattern(k=k, counts=((n, 0),) * k)
    return heralded_state(p, p, spec, pattern, TruncationConfig.for_encoding(n))


def scan(p, k_max):
    """The oracle k scan point by point: heralds up to the first k > 1 whose
    weight is below the smallest normal double, ties by pick_k."""
    infidelities = []
    for k in range(1, k_max + 1):
        h = herald(p, k, 1)
        if k > 1 and h.log_success_probability < LOG_MIN:
            break
        infidelities.append(1.0 - h.fidelity_phi_plus)
    return pick_k(infidelities)


def one_point(quantity, q):
    p = cli._channel_for(q)
    k, n = int(q.get("k", 1)), int(q.get("n", 1))
    if quantity == "state_fidelity":
        return state_fidelity_oracle(QubitTimeBinSpec(k=k, n=n), p,
                                     TruncationConfig.for_encoding(n))
    if quantity == "swap_fidelity":
        return herald(p, k, n).fidelity_phi_plus
    if quantity == "swap_infidelity":
        return 1.0 - herald(p, k, n).fidelity_phi_plus
    if quantity == "fidelity_ratio_n1_n2":
        return herald(p, 2, 1).fidelity_phi_plus / herald(p, 2, 2).fidelity_phi_plus
    k_star, best = scan(p, int(q["k_max"]))
    return float(k_star) if quantity == "optimal_k" else best


def grid(fixed, **axes):
    names = list(axes)
    return [dict(fixed, **dict(zip(names, values)))
            for values in itertools.product(*axes.values())]


def assert_section_matches_points(quantity, points):
    batched = cli._oracle_section(quantity, points)
    assert len(batched) == len(points)
    for q, value in zip(points, batched):
        assert abs(value - one_point(quantity, q)) <= SECTION_TOL, (quantity, q)


ETAS = (1.0, 0.8, 0.45)  # eta 1 is the identity channel at every nbar


@pytest.mark.parametrize("quantity", ["state_fidelity", "swap_fidelity", "swap_infidelity"])
def test_section_over_k_matches_points(quantity):
    """k 1..8 at the identity channel, pure loss (nbar 0) and thermal loss."""
    assert_section_matches_points(quantity, grid({}, k=range(1, 9), eta=ETAS, nbar=(0.0, 0.1)))


def test_state_fidelity_section_at_two_thousand_bins():
    assert_section_matches_points("state_fidelity", grid({"k": 2000}, eta=(0.999, 0.9),
                                                         nbar=(0.0, 0.001)))


@pytest.mark.parametrize("quantity", ["optimal_k", "swap_infidelity_at_optimal_k"])
def test_scan_section_matches_points(quantity):
    assert_section_matches_points(quantity, grid({"k_max": 16}, eta=ETAS + (0.3,),
                                                 nbar=(0.0, 0.05, 0.2)))


def test_section_spans_two_environment_sizes():
    cfg = TruncationConfig.for_encoding(1)
    assert environment_levels(0.1, cfg) < environment_levels(0.3, cfg)
    for quantity in ("state_fidelity", "swap_fidelity", "optimal_k"):
        fixed = {"k_max": 16} if quantity == "optimal_k" else {"k": 3}
        assert_section_matches_points(quantity, grid(fixed, eta=(0.5, 0.9), nbar=(0.1, 0.3)))


@pytest.mark.parametrize("quantity, fixed", [
    ("swap_infidelity", {"k": 1}),
    ("state_fidelity", {"k": 4}),
    ("optimal_k", {"k_max": 16}),
    ("swap_infidelity_at_optimal_k", {"k_max": 16}),
])
def test_section_over_transducer_axes_matches_points(quantity, fixed):
    points = grid(dict(fixed, nth=0.1), zeta=(0.5, 0.75, 1.0), C=(0.05, 1.0, 2.0))
    assert_section_matches_points(quantity, points)


def test_two_photon_sections_match_points():
    assert_section_matches_points("swap_fidelity", grid({"k": 2}, n=(1, 2), eta=ETAS,
                                                        nbar=(0.0, 0.2)))
    assert_section_matches_points("state_fidelity", grid({"k": 2, "n": 2}, eta=ETAS,
                                                         nbar=(0.0, 0.2)))
    assert_section_matches_points("fidelity_ratio_n1_n2", grid({}, eta=ETAS, nbar=(0.0, 0.3)))


def test_bin_absent_from_the_pattern_zeroes_nothing():
    """At pure loss the odd bin has a weight 0 to rounding where the even bin
    has none; at k = 1 the odd bin occurs 0 times, so that weight must not
    zero the herald's entry."""
    p = cli._channel_for({"eta": 0.6, "nbar": 0.0})
    even = states._channel_images(1, p, TruncationConfig.for_encoding(1))
    odd = even[::-1, ::-1]
    t_even = swap._bin_trace_tensor(even, even, (1, 0))
    t_odd = swap._bin_trace_tensor(odd, odd, (1, 0))
    assert np.any((np.abs(t_odd) <= ZERO_WEIGHT) & (np.abs(t_even) > ZERO_WEIGHT))
    for quantity in ("swap_fidelity", "swap_infidelity"):
        assert_section_matches_points(quantity, grid({"k": 1}, eta=(0.6, 0.3), nbar=(0.0,)))


@pytest.mark.parametrize("quantity, fixed, point, error", [
    ("swap_fidelity", {"k": 2}, {"eta": 0.6, "nbar": 0.6}, TruncationError),
    ("state_fidelity", {"k": 2}, {"eta": 0.6, "nbar": 0.6}, TruncationError),
    ("optimal_k", {"k_max": 8}, {"eta": 0.6, "nbar": 0.6}, TruncationError),
    ("swap_fidelity", {"k": 2}, {"eta": 0.0, "nbar": 0.0}, ImpossibleEventError),
    ("optimal_k", {"k_max": 8}, {"eta": 0.0, "nbar": 0.0}, ImpossibleEventError),
])
def test_refused_point_raises_as_point_by_point(tmp_path, capsys, quantity, fixed, point, error):
    """nbar 0.6 needs more environment levels than the oracle allows, and
    eta 0 at pure loss heralds nothing: the section raises what the point
    raises, and an oracle sweep exits 3 with that line."""
    good = dict(fixed, eta=0.7, nbar=0.1)
    bad = dict(fixed, **point)
    with pytest.raises(error) as one:
        one_point(quantity, bad)
    with pytest.raises(error) as batched:
        cli._oracle_section(quantity, [good, bad])
    assert str(batched.value) == str(one.value)

    config = {"quantity": quantity, "method": "oracle", "fixed": fixed,
              "axis1": {"name": "eta", "values": [0.7, point["eta"]]},
              "axis2": {"name": "nbar", "values": [0.1, point["nbar"]]},
              "out": str(tmp_path / "refused.csv")}
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(config))
    assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_INTRACTABLE
    assert str(one.value) in capsys.readouterr().err


def test_section_past_the_bin_limit_raises_as_point_by_point():
    """A herald of more than 1,023 bins is refused naming the first such k."""
    points = grid({"eta": 0.9, "nbar": 0.1}, k=(2, 1024, 2000))
    with pytest.raises(TruncationError) as one:
        one_point("swap_fidelity", points[1])
    with pytest.raises(TruncationError) as batched:
        cli._oracle_section("swap_fidelity", points)
    assert str(batched.value) == str(one.value)


@pytest.mark.parametrize("k", [1, 2, 1000, 1023])
def test_identity_channel_swap_fidelity_stays_in_range(k):
    """At eta 1, nbar 0 the swap fidelity is 1. Rounding in the sum of k/2
    log weights once left it a few ulps above 1; both paths clip it."""
    section = cli._oracle_section("swap_fidelity", [{"eta": 1.0, "nbar": 0.0, "k": k}])[0]
    point = herald(ChannelParams.from_eta_nbar(1.0, 0.0), k, 1).fidelity_phi_plus
    for fidelity in (section, point):
        assert fidelity <= 1.0
        assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_normalized_clips_a_fidelity_past_one():
    """Phi+ whose coherence log sits 1e-13 above its population logs, as
    rounding in a sum of log weights can leave it: F is clipped to 1."""
    logs = np.full((4, 4), -np.inf)
    logs[1:3, 1:3] = [[0.0, 1e-13], [1e-13, 0.0]]
    _, fidelity, _ = swap._normalized(logs, swap._top(logs))
    assert fidelity == 1.0


def test_scan_to_a_million_bins_ends_by_the_weight():
    """k_max 10^6: the scan ends where the herald weight leaves the normal
    doubles, near k = 1,022 at the identity channel."""
    points = [{"eta": eta, "nbar": 0.0, "k_max": 10**6} for eta in (1.0, 0.6)]
    assert cli._oracle_section("optimal_k", points) == [1.0, 2.0]


def test_fig5b_scan_section_memory_is_bounded():
    """fig5b's 3,600-channel optimal_k oracle section works ORACLE_BLOCK
    heralds at a time, however many channels it holds."""
    section = cli.preset_sections("fig5b")[0]
    points = grid(section.fixed, zeta=section.axis1.values, C=section.axis2.values)
    tracemalloc.start()
    try:
        k_star = cli._oracle_section("optimal_k", points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert len(k_star) == 3600 and 1 <= min(k_star) <= max(k_star) <= 16
