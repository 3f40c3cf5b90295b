"""Seeded input generators for the three workloads.

Every generator takes the workload seed and returns plain data (spec
dicts, tuples); the program under test only ever sees the generated
inputs. The same seed always yields the same stream.

Streams are built from *rounds*: each round draws the same mix of
operation kinds (shapes, output requests, policies, request classes) in
a seed-dependent order with seed-dependent details. A run issues whole
rounds, so the cost mix of a run hardly depends on the seed or on how
many rounds fit in the run.
"""

from __future__ import annotations

import itertools
import random

RACK = (4, 4, 4)
MIB = 1 << 20

# -- flow-sim -------------------------------------------------------------------

#: Tenant-shape pairs and triples one flow-sim round lays out, one layout
#: each. Extents are 1, 2 or 4 per dimension (a full-rack extent closes
#: the torus ring); the sets span 8 to 24 chips per layout, so operation
#: cost spreads from a few milliseconds to about half a second. (Larger
#: layouts cost seconds each: a run would hold too few of them for a
#: steady median.)
LAYOUT_SHAPES = (
    ((2, 2, 1), (2, 2, 1)),
    ((4, 1, 1), (2, 2, 1)),
    ((4, 2, 1), (2, 2, 1)),
    ((4, 2, 1), (4, 1, 1)),
    ((2, 2, 2), (2, 2, 1)),
    ((4, 2, 1), (2, 2, 2)),
    ((4, 4, 1), (2, 2, 1)),
    ((2, 2, 1), (2, 2, 1), (2, 2, 1)),
    ((4, 1, 1), (4, 1, 1), (2, 2, 1)),
    ((4, 2, 1), (2, 2, 1), (4, 1, 1)),
    ((2, 2, 2), (2, 2, 1), (4, 1, 1)),
    ((4, 2, 1), (4, 2, 1), (2, 2, 1)),
    ((4, 4, 1), (4, 2, 1)),
    ((4, 4, 1), (2, 2, 2)),
    ((4, 2, 2), (4, 2, 1)),
)

#: Buffer sizes, cycled over :data:`LAYOUT_SHAPES` like the outputs.
BUFFERS_MIB = (8, 16, 32, 64)

#: Output requests by shape set, cycled over :data:`LAYOUT_SHAPES` (so a
#: round's cost mix does not depend on the seed): every spec asks for
#: telemetry, a third also for link utilization, a sixth also for trace
#: and metrics.
FLOW_OUTPUTS = (
    ("telemetry",),
    ("telemetry", "link_utilization"),
    ("telemetry",),
    ("telemetry", "trace", "metrics"),
    ("telemetry", "link_utilization"),
    ("telemetry",),
)


def _orientations(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(shape)))


def random_layout(
    rng: random.Random, shapes: tuple[tuple[int, ...], ...]
) -> tuple[dict, ...]:
    """Place ``shapes`` as non-overlapping boxes inside the rack.

    Boxes never wrap around the rack edge. Each tenant gets a random
    orientation and offset; a draw that overlaps an earlier tenant is
    redrawn (every shape set above fits with room to spare).
    """
    while True:
        used: set[tuple[int, ...]] = set()
        slices = []
        for index, base in enumerate(shapes):
            for _ in range(64):
                shape = rng.choice(_orientations(base))
                offset = tuple(
                    rng.randrange(0, r - s + 1) for r, s in zip(RACK, shape)
                )
                chips = set(box_chips(shape, offset))
                if not chips & used:
                    used |= chips
                    slices.append(
                        {
                            "name": f"T{index}",
                            "shape": list(shape),
                            "offset": list(offset),
                        }
                    )
                    break
            else:
                break
        if len(slices) == len(shapes):
            return tuple(slices)


def box_chips(
    shape: tuple[int, ...], offset: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Chip coordinates of an axis-aligned box."""
    return list(
        itertools.product(*(range(o, o + s) for s, o in zip(shape, offset)))
    )


def flow_round(rng: random.Random) -> list[dict]:
    """One flow-sim round: every shape set laid out once, on both fabrics.

    The seed picks the order of the shape sets and each tenant's
    orientation and offset; a shape set's buffer and outputs are fixed.
    Returns spec dicts in issue order (electrical then photonic for each
    layout, so the two fabrics of a layout run back to back).
    """
    order = list(range(len(LAYOUT_SHAPES)))
    rng.shuffle(order)
    specs = []
    for index in order:
        slices = random_layout(rng, LAYOUT_SHAPES[index])
        outputs = FLOW_OUTPUTS[index % len(FLOW_OUTPUTS)]
        buffer_mib = BUFFERS_MIB[index % len(BUFFERS_MIB)]
        for fabric in ("electrical", "photonic"):
            specs.append(
                {
                    "fabric": fabric,
                    "rack_shape": list(RACK),
                    "slices": [dict(s) for s in slices],
                    "buffer_bytes": buffer_mib * MIB,
                    "mode": "sim",
                    "outputs": list(outputs),
                }
            )
    return specs


# -- cluster-life ---------------------------------------------------------------

POLICIES = ("first-fit", "best-fit", "defrag")
PROFILES = ("poisson", "burst")
DISPATCHES = ("immediate", "lazy", "batched")

#: Tenancy and fleet plan sizes shared by every cluster-life operation.
TENANCY_DAYS = 0.025
TENANCY_RACKS = 1
TENANCY_ARRIVALS_PER_DAY = 1500.0
TENANCY_MEAN_DURATION_S = 600.0
FLEET_DAYS = 30.0
FLEET_RACKS = 16
FLEET_MTBF_YEARS = 5.0


def cluster_round(rng: random.Random) -> list[dict]:
    """One cluster-life round: all 18 policy x profile x dispatch cells.

    Each cell gets fresh tenancy and fleet seeds from ``rng``; the cell
    order is shuffled.
    """
    cells = list(itertools.product(POLICIES, PROFILES, DISPATCHES))
    rng.shuffle(cells)
    specs = []
    for policy, profile, dispatch in cells:
        specs.append(
            {
                "fabric": "photonic",
                "rack_shape": list(RACK),
                "outputs": ["tenancy", "fleet"],
                "tenancy": {
                    "days": TENANCY_DAYS,
                    "seed": rng.randrange(1 << 30),
                    "arrivals_per_day": TENANCY_ARRIVALS_PER_DAY,
                    "profile": profile,
                    "policy": policy,
                    "mean_duration_s": TENANCY_MEAN_DURATION_S,
                    "racks": TENANCY_RACKS,
                },
                "fleet": {
                    "days": FLEET_DAYS,
                    "seed": rng.randrange(1 << 30),
                    "policy": dispatch,
                    "racks": FLEET_RACKS,
                    "mtbf_years": FLEET_MTBF_YEARS,
                },
            }
        )
    return specs


# -- serve-mix ------------------------------------------------------------------

#: Request classes one serve-mix round draws, with their counts. The
#: closed-form classes use one random tenant; ``repair`` fails a random
#: chip of a random two-tenant layout; the ``sim`` classes simulate a
#: single small slice and also ask for link utilization or a trace.
SERVE_CLASSES = (
    ("costs", 6),
    ("utilization", 3),
    ("congestion", 3),
    ("repair_electrical", 2),
    ("repair_photonic", 2),
    ("sim_link", 1),
    ("sim_trace", 1),
)

#: Share of a round's requests that repeat a spec first sent earlier.
REPEAT_SHARE = 0.25

#: Shapes the paper gives closed forms for (Table 1 and Table 2), sent at
#: their paper offsets, plus other small shapes at random offsets.
PAPER_SLICES = (
    ("Slice-1", (4, 2, 1), (0, 0, 3)),
    ("Slice-3", (4, 4, 1), (0, 0, 0)),
)
SMALL_SHAPES = ((2, 2, 1), (4, 1, 1), (2, 2, 2), (4, 2, 1), (4, 4, 1))
SIM_SHAPES = ((2, 2, 1), (4, 1, 1), (2, 1, 1))


def _serve_spec(rng: random.Random, kind: str) -> dict:
    fabric = rng.choice(("electrical", "photonic"))
    if kind in ("costs", "utilization", "congestion"):
        if kind == "costs" and rng.random() < 0.5:
            name, shape, offset = rng.choice(PAPER_SLICES)
            slices = [
                {"name": name, "shape": list(shape), "offset": list(offset)}
            ]
        else:
            slices = list(
                random_layout(rng, (rng.choice(SMALL_SHAPES), (2, 2, 1)))
            )
        return {
            "fabric": fabric,
            "slices": slices,
            "buffer_bytes": rng.choice(BUFFERS_MIB) * MIB,
            "outputs": [kind],
        }
    if kind.startswith("repair"):
        slices = list(random_layout(rng, ((4, 2, 1), (2, 2, 1))))
        victim = rng.choice(slices)
        failed = rng.choice(
            box_chips(tuple(victim["shape"]), tuple(victim["offset"]))
        )
        return {
            "fabric": kind.split("_")[1],
            "slices": slices,
            "outputs": ["repair"],
            "failures": {"failed_chips": [list(failed)], "max_hops": 4},
        }
    slices = list(random_layout(rng, (rng.choice(SIM_SHAPES),)))
    return {
        "fabric": fabric,
        "slices": slices,
        "buffer_bytes": rng.choice(BUFFERS_MIB) * MIB,
        "mode": "sim",
        "outputs": (
            ["telemetry", "link_utilization"]
            if kind == "sim_link"
            else ["telemetry", "trace"]
        ),
    }


def serve_round(rng: random.Random, history: list[dict]) -> list[dict]:
    """One serve-mix round of request specs.

    The round sends one first-seen spec per entry of
    :data:`SERVE_CLASSES` (shuffled) and, mixed in after them, repeats
    making up :data:`REPEAT_SHARE` of the round. A repeat re-sends a spec
    from ``history`` (every earlier round's specs) or one sent earlier
    in this round, so its first answer is always already on its way.
    ``history`` is extended with this round's first-seen specs.
    """
    kinds = [kind for kind, count in SERVE_CLASSES for _ in range(count)]
    rng.shuffle(kinds)
    fresh = [_serve_spec(rng, kind) for kind in kinds]
    repeats = round(len(fresh) * REPEAT_SHARE / (1.0 - REPEAT_SHARE))
    after = sorted(rng.randint(1, len(fresh)) for _ in range(repeats))
    requests = []
    for position, spec in enumerate(fresh, start=1):
        requests.append(spec)
        while after and after[0] == position:
            after.pop(0)
            requests.append(rng.choice(history + fresh[:position]))
    history.extend(fresh)
    return requests
