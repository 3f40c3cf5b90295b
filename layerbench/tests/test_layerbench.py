"""Tests for the benchmark's own code: generators, statistics, checks.

Run:  python3 -m pytest layerbench/tests -q
"""

from __future__ import annotations

import copy
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from layerbench import checks, gen  # noqa: E402
from layerbench.common import CheckFailed, percentile  # noqa: E402
from layerbench.serial import sustained_rate  # noqa: E402
from layerbench.tracing import Probe  # noqa: E402


# -- generators -----------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        gen.flow_round,
        gen.cluster_round,
        lambda rng: gen.serve_round(rng, []),
    ],
)
def test_rounds_are_deterministic_per_seed(make):
    first = [make(random.Random(seed)) for seed in (1, 2)]
    again = [make(random.Random(seed)) for seed in (1, 2)]
    assert first == again
    assert first[0] != first[1]


def _chips(entry):
    return set(gen.box_chips(tuple(entry["shape"]), tuple(entry["offset"])))


@pytest.mark.parametrize("seed", range(20))
def test_flow_layouts_are_disjoint_and_inside_the_rack(seed):
    specs = gen.flow_round(random.Random(seed))
    assert len(specs) == 2 * len(gen.LAYOUT_SHAPES)
    for electrical, photonic in zip(specs[::2], specs[1::2]):
        assert electrical["fabric"] == "electrical"
        assert photonic["fabric"] == "photonic"
        assert electrical["slices"] == photonic["slices"]
        used: set = set()
        for entry in electrical["slices"]:
            for s, o, r in zip(entry["shape"], entry["offset"], gen.RACK):
                assert 0 <= o and o + s <= r
            chips = _chips(entry)
            assert not chips & used
            used |= chips
        assert 2 <= len(electrical["slices"]) <= 3
        assert 8 <= electrical["buffer_bytes"] >> 20 <= 64
        assert "telemetry" in electrical["outputs"]


def test_serve_repeats_follow_their_first_send():
    rng = random.Random(7)
    history: list[dict] = []
    sent: list[dict] = []
    repeats = 0
    for _ in range(5):
        for spec in gen.serve_round(rng, history):
            if any(spec is earlier for earlier in sent):
                repeats += 1
            sent.append(spec)
    fresh = sum(count for _, count in gen.SERVE_CLASSES) * 5
    assert len(sent) - fresh == repeats
    assert repeats / len(sent) == pytest.approx(gen.REPEAT_SHARE, abs=0.01)


def test_cluster_round_covers_every_cell_once():
    specs = gen.cluster_round(random.Random(3))
    cells = {
        (s["tenancy"]["policy"], s["tenancy"]["profile"], s["fleet"]["policy"])
        for s in specs
    }
    assert len(cells) == len(specs) == 18


# -- statistics -----------------------------------------------------------------


def _nearest_rank(values, fraction):
    ordered = sorted(values)
    rank = 1
    while rank < len(ordered) and rank / len(ordered) < fraction:
        rank += 1
    return ordered[rank - 1]


@pytest.mark.parametrize("seed", range(30))
def test_percentile_matches_nearest_rank_oracle(seed):
    rng = random.Random(seed)
    values = [rng.random() for _ in range(rng.randint(1, 250))]
    for fraction in (0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert percentile(values, fraction) == _nearest_rank(values, fraction)


def test_percentile_exact_ranks():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([3.0], 0.9) == 3.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_sustained_rate_solves_pollaczek_khinchine():
    # 10 ms per operation, 50 ms mean sojourn: M/D/1 gives 800/9 per s.
    assert sustained_rate([0.01] * 200, 0.05) == pytest.approx(800 / 9)
    rng = random.Random(4)
    service = [rng.expovariate(10.0) for _ in range(300)]
    rate = sustained_rate(service, 0.5)
    mean = sum(service) / len(service)
    second = sum(s * s for s in service) / len(service)
    sojourn = mean + rate * second / (2 * (1 - rate * mean))
    assert sojourn == pytest.approx(0.5)
    assert rate < 1 / mean
    with pytest.raises(ValueError):
        sustained_rate([1.0, 2.0], 1.0)


# -- tracing ----------------------------------------------------------------------


class _Layers:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_probe_self_time_and_restore():
    original = _Layers.__dict__["outer"]
    probe = Probe()
    probe.wrap(_Layers, "outer", "outer")
    probe.wrap(_Layers, "inner", "inner", success=lambda r: r == 1)
    assert _Layers().outer() == 2
    spans, _ = probe.take()
    probe.close()
    assert _Layers.__dict__["outer"] is original
    assert spans["outer"].calls == spans["inner"].calls == 1
    assert spans["inner"].hits == 1
    assert spans["outer"].self_s == pytest.approx(
        spans["outer"].total_s - spans["inner"].total_s
    )
    assert probe.take()[0] == {}


# -- output checks ------------------------------------------------------------------


@pytest.fixture(scope="module")
def flow_results():
    from repro.api import FabricSession, NullResultCache, ScenarioSpec

    session = FabricSession(result_cache=NullResultCache())
    slices = [
        {"name": "A", "shape": [4, 1, 1], "offset": [0, 0, 0]},
        {"name": "B", "shape": [2, 2, 1], "offset": [0, 2, 2]},
    ]
    base = {
        "slices": slices,
        "buffer_bytes": 8 << 20,
        "mode": "sim",
        "outputs": ["telemetry", "link_utilization"],
    }
    elec = session.run(ScenarioSpec.from_dict({**base, "fabric": "electrical"}))
    phot = session.run(ScenarioSpec.from_dict({**base, "fabric": "photonic"}))
    closed = session.run(
        ScenarioSpec.from_dict(
            {
                **base,
                "fabric": "electrical",
                "mode": "closed_form",
                "outputs": ["costs", "congestion"],
            }
        )
    )
    return elec.to_dict(), phot.to_dict(), closed.to_dict()


def test_flow_check_passes_on_real_results(flow_results):
    assert checks.check_flow_layout(*flow_results) is True


def test_flow_check_catches_slow_photonic(flow_results):
    elec, phot, closed = copy.deepcopy(flow_results)
    line = phot["telemetry"]["schedules"][0]
    line["duration_s"] = elec["telemetry"]["schedules"][0]["duration_s"] * 1.01
    with pytest.raises(CheckFailed, match="photonic"):
        checks.check_flow_layout(elec, phot, closed)


def test_flow_check_catches_closed_form_mismatch(flow_results):
    elec, phot, closed = copy.deepcopy(flow_results)
    elec["telemetry"]["schedules"][1]["duration_s"] *= 1 + 1e-6
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_flow_layout(elec, phot, closed)


def test_flow_check_catches_overfull_link(flow_results):
    elec, phot, closed = copy.deepcopy(flow_results)
    elec["link_utilization"]["links"][3]["peak_utilization"] = 1.01
    with pytest.raises(CheckFailed, match="peak utilization"):
        checks.check_flow_layout(elec, phot, closed)
    elec, phot, closed = copy.deepcopy(flow_results)
    link = phot["link_utilization"]["links"][5]
    link["mean_utilization"] = link["peak_utilization"] + 0.1
    with pytest.raises(CheckFailed, match="mean utilization"):
        checks.check_flow_layout(elec, phot, closed)


@pytest.fixture(scope="module")
def cluster_case():
    from repro.api import FabricSession, NullResultCache, ScenarioSpec

    spec = gen.cluster_round(random.Random(5))[0]
    spec["tenancy"]["profile"] = "poisson"
    spec["fleet"]["policy"] = "immediate"
    session = FabricSession(result_cache=NullResultCache())
    return spec, session.run(ScenarioSpec.from_dict(spec)).to_dict()


def test_cluster_check_passes_on_real_results(cluster_case):
    checks.check_cluster(*cluster_case)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda r: r["tenancy"]["photonic"].__setitem__(
            "arrivals", r["tenancy"]["photonic"]["arrivals"] + 1), "arrivals"),
        (lambda r: r["tenancy"]["electrical"].__setitem__(
            "placed", r["tenancy"]["electrical"]["placed"] - 1), "placed"),
        (lambda r: r["fleet"]["photonic"].__setitem__(
            "repairs", r["fleet"]["photonic"]["repairs"] + 1), "failures"),
        (lambda r: r["tenancy"]["photonic"].__setitem__(
            "stranded_fraction", 2.0), "stranded"),
        (lambda r: r["fleet"]["photonic"].__setitem__(
            "mean_availability", 0.5), "availability"),
        (lambda r: r["fleet"]["photonic"].__setitem__(
            "ttr_p50_s", 600.0), "TTR"),
    ],
)
def test_cluster_check_catches_corruption(cluster_case, corrupt, message):
    spec, result = copy.deepcopy(cluster_case)
    corrupt(result)
    with pytest.raises(CheckFailed, match=message):
        checks.check_cluster(spec, result)


def test_cluster_check_catches_dropped_arrival(cluster_case):
    spec, result = copy.deepcopy(cluster_case)
    for side in ("electrical", "photonic"):
        result["tenancy"][side]["arrivals"] -= 1
    with pytest.raises(CheckFailed, match="arrivals"):
        checks.check_cluster(spec, result)


def test_cluster_poisson_bound_is_five_sigma(cluster_case):
    spec, result = copy.deepcopy(cluster_case)
    expected = spec["tenancy"]["arrivals_per_day"] * spec["tenancy"]["days"]
    far = round(expected + 6 * math.sqrt(expected))
    for side in ("electrical", "photonic"):
        tenancy = result["tenancy"][side]
        tenancy["arrivals"] = far
        tenancy["rejected"] = far - tenancy["placed"] - tenancy["queued_at_horizon"]
    with pytest.raises(CheckFailed, match="poisson"):
        checks.check_cluster(spec, result)


@pytest.mark.parametrize("fabric", ["electrical", "photonic"])
@pytest.mark.parametrize("name", ["Slice-1", "Slice-3"])
def test_paper_closed_forms_match_the_program(fabric, name):
    from repro.api import FabricSession, ScenarioSpec

    shape, offset = {
        "Slice-1": ([4, 2, 1], [0, 0, 3]),
        "Slice-3": ([4, 4, 1], [0, 0, 0]),
    }[name]
    spec = {
        "fabric": fabric,
        "slices": [{"name": name, "shape": shape, "offset": offset}],
        "buffer_bytes": 64 << 20,
        "outputs": ["costs"],
    }
    served = FabricSession().run(ScenarioSpec.from_dict(spec)).to_dict()
    assert checks.check_paper_costs(spec, served) is True
    served["costs"]["slices"][0]["seconds"] *= 1.001
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_paper_costs(spec, served)


def test_paper_closed_forms_apply_only_to_paper_scenarios():
    spec = {
        "fabric": "photonic",
        "slices": [{"name": "Slice-1", "shape": [4, 2, 1], "offset": [0, 0, 0]}],
        "buffer_bytes": 1 << 20,
        "outputs": ["costs"],
    }
    assert checks.paper_closed_form_seconds(spec) is None


def test_served_bytes_check():
    checks.check_served_bytes(b"{}\n", b"{}\n", "answer")
    with pytest.raises(CheckFailed):
        checks.check_served_bytes(b"{}\n", b"{} \n", "answer")
