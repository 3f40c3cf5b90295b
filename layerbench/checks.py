"""Output checks: required properties and independent computations.

Each check takes results in their JSON form (``RunResult.to_dict()``)
and raises :class:`~layerbench.common.CheckFailed` naming the first
property that does not hold. Nothing here compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import math

from .common import check

#: Relative tolerance for "equal" durations computed two ways.
REL_TOL = 1e-9

# The paper's constants, typed in here rather than read from the program
# so the Table 1 / Table 2 check is independent of it.
PAPER_ALPHA_S = 1e-6  # per-step software overhead a
PAPER_RECONFIG_S = 3.7e-6  # MZI reconfiguration latency r (Figure 3a)
PAPER_CHIP_BYTES_PER_S = 16 * 28e9  # B: 16 wavelengths x 28 GB/s

#: Closed forms of the paper's Tables 1 and 2 for a buffer of N bytes:
#: (alpha steps, reconfigurations, beta factor k) with T = steps x a +
#: reconfigs x r + k x N / B, per (slice name, shape, fabric).
PAPER_CLOSED_FORMS = {
    ("Slice-1", (4, 2, 1), "electrical"): (7, 0, 2.625),
    ("Slice-1", (4, 2, 1), "photonic"): (7, 1, 0.875),
    ("Slice-3", (4, 4, 1), "electrical"): (6, 0, 2.25 + 0.5625),
    ("Slice-3", (4, 4, 1), "photonic"): (6, 2, 1.5 + 0.375),
}

#: Photonic time to repair under immediate dispatch (Figure 3a's 3.7 us).
PAPER_TTR_S = 3.7e-6


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- flow-sim ---------------------------------------------------------------------


def check_flow_layout(
    electrical: dict, photonic: dict, closed_form: dict
) -> bool:
    """Check one layout simulated on both fabrics.

    ``closed_form`` is the electrical closed-form ``costs`` +
    ``congestion`` result for the same layout and buffer. Returns whether
    that layout was congestion-free (the exact-match check applies only
    then).
    """
    tenants = closed_form["costs"]["slices"]
    elec = electrical["telemetry"]["schedules"]
    phot = photonic["telemetry"]["schedules"]
    check(
        len(elec) == len(phot) == len(tenants),
        f"{len(tenants)} tenants but {len(elec)} electrical and "
        f"{len(phot)} photonic schedules",
    )
    congestion_free = bool(closed_form["congestion"]["congestion_free"])
    for tenant, e, p in zip(tenants, elec, phot):
        name = tenant["slice_name"]
        if congestion_free:
            check(
                _close(e["duration_s"], tenant["seconds"]),
                f"{name}: simulated {e['duration_s']!r} s differs from the"
                f" closed form {tenant['seconds']!r} s on a congestion-free"
                " layout",
            )
        check(
            p["duration_s"] <= e["duration_s"] * (1 + REL_TOL),
            f"{name}: photonic {p['duration_s']!r} s slower than electrical"
            f" {e['duration_s']!r} s",
        )
    for result in (electrical, photonic):
        links = result.get("link_utilization")
        if links is not None:
            check_link_utilization(links)
        metrics = result.get("metrics")
        if metrics is not None:
            counters = {m["name"]: m["value"] for m in metrics["entries"]}
            check(
                counters.get("sim.schedules") == len(tenants),
                f"metrics count {counters.get('sim.schedules')} schedules"
                f" for {len(tenants)} tenants",
            )
        trace = result.get("trace")
        if trace is not None:
            check(bool(trace["events"]), "trace output has no events")
    return congestion_free


def check_link_utilization(report: dict) -> None:
    """Every link: 0 <= mean <= peak <= 1."""
    check(report["links"], "link_utilization reports no links")
    for link in report["links"]:
        peak = link["peak_utilization"]
        mean = link["mean_utilization"]
        where = f"link {link['src']}->{link['dst']}"
        check(peak <= 1.0 + REL_TOL, f"{where}: peak utilization {peak!r} > 1")
        check(
            0.0 <= mean <= peak + REL_TOL,
            f"{where}: mean utilization {mean!r} outside [0, peak {peak!r}]",
        )


# -- cluster-life -----------------------------------------------------------------


def _within_sigmas(observed: float, expected: float, sigmas: float = 5.0) -> bool:
    return abs(observed - expected) <= sigmas * math.sqrt(max(expected, 1.0))


def check_cluster(spec: dict, result: dict) -> None:
    """Check one tenancy + fleet result against its spec dict."""
    plan = spec["tenancy"]
    tenancy = result["tenancy"]
    elec, phot = tenancy["electrical"], tenancy["photonic"]
    check(
        elec["arrivals"] == phot["arrivals"],
        f"fabrics saw different arrivals: {elec['arrivals']} vs"
        f" {phot['arrivals']}",
    )
    for side in (elec, phot):
        fabric = side["fabric"]
        check(
            side["arrivals"]
            == side["placed"] + side["rejected"] + side["queued_at_horizon"],
            f"{fabric}: arrivals {side['arrivals']} != placed"
            f" {side['placed']} + rejected {side['rejected']} + queued"
            f" {side['queued_at_horizon']}",
        )
        check(
            side["placed"] == side["completed"] + side["running_at_horizon"],
            f"{fabric}: placed {side['placed']} != completed"
            f" {side['completed']} + running {side['running_at_horizon']}",
        )
    if plan["profile"] == "poisson":
        expected = plan["arrivals_per_day"] * plan["days"]
        check(
            _within_sigmas(elec["arrivals"], expected),
            f"{elec['arrivals']} poisson arrivals, expected {expected:.1f}",
        )
    check(
        phot["stranded_fraction"] <= elec["stranded_fraction"] + REL_TOL,
        f"photonic stranded fraction {phot['stranded_fraction']!r} above"
        f" electrical {elec['stranded_fraction']!r}",
    )

    fleet_plan = spec["fleet"]
    fleet = result["fleet"]
    chips = fleet["chips"]
    expected_failures = (
        chips * fleet_plan["days"] / (fleet_plan["mtbf_years"] * 365.0)
    )
    for fabric in ("electrical", "photonic"):
        side = fleet[fabric]
        check(
            side["failures"] == side["repairs"] + side["unrepaired"],
            f"fleet {fabric}: failures {side['failures']} != repairs"
            f" {side['repairs']} + unrepaired {side['unrepaired']}",
        )
        check(
            _within_sigmas(side["failures"], expected_failures),
            f"fleet {fabric}: {side['failures']} failures, expected"
            f" {expected_failures:.1f}",
        )
    check(
        fleet["photonic"]["collateral_chip_seconds"]
        <= fleet["electrical"]["collateral_chip_seconds"],
        "photonic repairs took more healthy chips out of service than"
        " electrical rack migrations",
    )
    # The fabrics' failure streams are not common random numbers (a chip
    # returned to service redraws its next failure), so under lazy
    # dispatch, where failed chips wait for a threshold on both fabrics,
    # one seed can give the photonic fleet more or longer outages. The
    # availability order is checked where repair speed decides it.
    if fleet_plan["policy"] != "lazy":
        check(
            fleet["photonic"]["mean_availability"]
            >= fleet["electrical"]["mean_availability"] - REL_TOL,
            "photonic availability"
            f" {fleet['photonic']['mean_availability']!r} below electrical"
            f" {fleet['electrical']['mean_availability']!r}",
        )
    if fleet_plan["policy"] == "immediate":
        ttr = fleet["photonic"]["ttr_p50_s"]
        # Repair times are differences of absolute sim times of up to a
        # month, so they carry ~1e-9 s of float rounding.
        check(
            abs(ttr - PAPER_TTR_S) <= 1e-8,
            f"photonic TTR p50 {ttr!r} s is not the paper's 3.7 us",
        )


# -- serve-mix --------------------------------------------------------------------


def paper_closed_form_seconds(spec: dict) -> float | None:
    """Expected ``costs`` seconds from the paper's closed forms, or
    ``None`` when the spec is not a Table 1 / Table 2 scenario."""
    slices = spec.get("slices", [])
    if spec.get("outputs") != ["costs"] or len(slices) != 1:
        return None
    entry = slices[0]
    key = (entry["name"], tuple(entry["shape"]), spec["fabric"])
    form = PAPER_CLOSED_FORMS.get(key)
    paper_offsets = {"Slice-1": [0, 0, 3], "Slice-3": [0, 0, 0]}
    if form is None or entry["offset"] != paper_offsets[entry["name"]]:
        return None
    steps, reconfigs, beta = form
    n_bytes = spec["buffer_bytes"]
    return (
        steps * PAPER_ALPHA_S
        + reconfigs * PAPER_RECONFIG_S
        + beta * n_bytes / PAPER_CHIP_BYTES_PER_S
    )


def check_paper_costs(spec: dict, served: dict) -> bool:
    """Served costs of a Table 1 / 2 spec match the paper's closed form.

    Returns whether ``spec`` was such a scenario.
    """
    expected = paper_closed_form_seconds(spec)
    if expected is None:
        return False
    got = served["costs"]["slices"][0]["seconds"]
    check(
        _close(got, expected, 1e-12),
        f"served {got!r} s for {spec['slices'][0]['name']} on"
        f" {spec['fabric']}, the paper's closed form gives {expected!r} s",
    )
    return True


def check_served_bytes(body: bytes, expected: bytes, what: str) -> None:
    check(
        body == expected,
        f"{what}: served {len(body)} bytes differ from the in-process"
        f" evaluation's {len(expected)} bytes",
    )
