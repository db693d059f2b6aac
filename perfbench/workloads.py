"""Workload definitions and their seeded input generators.

Every input the library sees is made here from the workload seed: the
feature maps a forward client scans, the stream of sides and check
choices each client draws, and the ring masks of the evaluation
workload together with their known topology. The same seed always
yields the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from toposcan import FeatureMap, GridShape, TopoErrors
from toposcan.mask_io import write_mask_pbm, write_mask_raw

# Channel-doubling stage model of a hierarchical encoder: stage s works at
# ceil(side / STRIDES[s]) per axis with CHANNELS[s] channels, batch 1.
STRIDES = (4, 8, 16, 32)
CHANNELS = (4, 8, 16, 32)

# Ring masks are laid out one shape per CELL x CELL tile.
CELL = 64
EMPTY, DISC, RING, BROKEN = range(4)
OTHER_CLASS = 2


@dataclass(frozen=True)
class ForwardWorkload:
    """Closed-loop clients running the two-branch, gated forward.

    Each client draws sides from ``sides`` and one of
    ``inputs_per_side`` pre-generated inputs for that side; about one
    item in ``check_every`` also gets the oracle checks.
    """

    name: str
    why: str
    sides: tuple[int, ...]
    inputs_per_side: int
    clients: int
    capacity: int = 64
    check_every: int = 8


@dataclass(frozen=True)
class EvalWorkload:
    """One client evaluating a manifest of ``pairs`` mask pairs, in passes.

    Predictions are raw 3-class label maps and ground truths are P4,
    except one ground truth per manifest, which is ASCII P1.
    """

    name: str
    why: str
    side: int
    pairs: int
    class_id: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        ForwardWorkload(
            name="fixed_warm",
            why="one client at 512x512 with primed caches, so the recurrence and the gate "
            "do all the timed work and no index is built",
            sides=(512,),
            inputs_per_side=4,
            clients=1,
        ),
        ForwardWorkload(
            name="dynres_2c",
            why="two clients share capacity-64 caches over 124 grid shapes per family, "
            "so index builds, evictions, lock contention and cache memory show",
            sides=tuple(range(256, 513, 4)),
            inputs_per_side=1,
            clients=2,
        ),
        EvalWorkload(
            name="topo_eval",
            why="one client evaluates 512x512 mask pairs, one ground truth in 25 ASCII P1, "
            "so mask parsing and topology labelling share the time",
            side=512,
            pairs=25,
        ),
    )
}


def stage_shapes(side: int) -> list[GridShape]:
    """Grid of every stage for a square image of ``side`` pixels."""
    return [GridShape(-(-side // s), -(-side // s)) for s in STRIDES]


def make_features(side: int, seed: int, index: int) -> list[FeatureMap]:
    """One forward input: a standard-normal (1, C, L) map per stage."""
    rng = np.random.default_rng([seed, side, index])
    return [
        FeatureMap(rng.standard_normal((1, c, shape.length)), shape)
        for c, shape in zip(CHANNELS, stage_shapes(side))
    ]


class ForwardStream:
    """The seeded item stream of one forward client.

    ``next()`` returns ``(side, input_index, deep_check)``. Sides come in
    seeded shuffles of the whole pool, so every run of a given length
    holds the same mix of sides whatever the seed; only their order,
    and with it the cache's hits and evictions, changes. Clients of one
    workload draw from independent streams.
    """

    def __init__(self, spec: ForwardWorkload, seed: int, client: int):
        self._spec = spec
        self._rng = np.random.default_rng([seed, 1 + client])
        self._order: list[int] = []

    def next(self) -> tuple[int, int, bool]:
        if not self._order:
            self._order = list(self._rng.permutation(self._spec.sides))
        input_idx, check = self._rng.integers(0, (self._spec.inputs_per_side, self._spec.check_every))
        return int(self._order.pop()), int(input_idx), bool(check == 0)


@dataclass(frozen=True)
class RingPair:
    """A prediction/ground-truth pair with the topology it was built to have."""

    pred: np.ndarray  # uint8 labels: 1 is the evaluated class, 2 another class
    gt: np.ndarray  # bool foreground
    pred_counts: tuple[int, int]  # (components, holes) of pred == 1
    gt_counts: tuple[int, int]

    @property
    def expected(self) -> TopoErrors:
        cce = abs(self.pred_counts[0] - self.gt_counts[0])
        hce = abs(self.pred_counts[1] - self.gt_counts[1])
        return TopoErrors(cce=cce, hce=hce, etm=int(cce == 0 and hce == 0))


def _draw_shape(
    out: np.ndarray, value: int, kind: int, y0: int, x0: int, cy: float, cx: float,
    r_out: float, r_in: float, gap_angle: float,
) -> None:
    """Paint one shape centred at (cy, cx) into the cell at (y0, x0).

    A ring of thickness >= 3 px is one 8-connected component whose
    interior is one 4-connected hole. A broken ring has a 50-degree wedge
    removed, at least 6 px wide at its inner edge, so its interior joins
    the outside and it has no hole.
    """
    yy, xx = np.mgrid[y0 : y0 + CELL, x0 : x0 + CELL]
    dist = np.hypot(yy - cy, xx - cx)
    if kind == DISC:
        shape = dist <= r_out
    else:
        shape = (dist >= r_in) & (dist <= r_out)
        if kind == BROKEN:
            angle = np.angle(np.exp(1j * (np.arctan2(yy - cy, xx - cx) - gap_angle)))
            shape &= np.abs(angle) > np.deg2rad(25)
    out[y0 : y0 + CELL, x0 : x0 + CELL][shape] = value


def ring_pair(side: int, seed: int, index: int) -> RingPair:
    """A seeded pair of disjoint-shape masks with known counts.

    The image is tiled in CELL x CELL cells; each holds at most one
    shape that stays 4 px inside its cell, so shapes never touch each
    other or the border. A shape is a disc (one component), a ring (one
    component, one hole) or a broken ring (one component). The
    prediction re-draws about a quarter of the ground-truth cells and
    puts class-2 discs in its empty cells, which binarization must drop.
    """
    if side % CELL:
        raise ValueError(f"side must be a multiple of {CELL}, got {side}")
    rng = np.random.default_rng([seed, side, index, 7])
    cells = side // CELL
    gt_kind = rng.choice(4, size=(cells, cells), p=[0.25, 0.25, 0.3, 0.2])
    redraw = rng.random((cells, cells)) < 0.25
    pred_kind = np.where(redraw, rng.choice(4, size=(cells, cells)), gt_kind)
    gt = np.zeros((side, side), dtype=np.uint8)
    pred = np.zeros((side, side), dtype=np.uint8)
    for i in range(cells):
        for j in range(cells):
            y0, x0 = i * CELL, j * CELL
            for out, kind in ((gt, gt_kind[i, j]), (pred, pred_kind[i, j])):
                cy, cx = y0 + CELL / 2 + rng.uniform(-2, 2), x0 + CELL / 2 + rng.uniform(-2, 2)
                r_out = rng.uniform(14, 26)
                r_in = r_out - rng.uniform(3, 6)
                gap = rng.uniform(-np.pi, np.pi)
                if kind != EMPTY:
                    _draw_shape(out, 1, kind, y0, x0, cy, cx, r_out, r_in, gap)
                elif out is pred:
                    _draw_shape(out, OTHER_CLASS, DISC, y0, x0, cy, cx, r_out / 2, 0, 0)

    def counts(kind: np.ndarray) -> tuple[int, int]:
        return int(np.count_nonzero(kind != EMPTY)), int(np.count_nonzero(kind == RING))

    return RingPair(
        pred=pred, gt=gt.astype(bool), pred_counts=counts(pred_kind), gt_counts=counts(gt_kind)
    )


@dataclass(frozen=True)
class Manifest:
    """Files written for the evaluation workload and their known results."""

    path: Path
    expected: list[TopoErrors]  # per manifest position
    formats: dict[Path, str]  # file -> "raw" | "p1" | "p4"
    sizes: dict[Path, int]  # file -> bytes


def p1_position(spec: EvalWorkload, seed: int) -> int:
    """Manifest position whose ground truth is written as ASCII P1."""
    return int(np.random.default_rng([seed, 25]).integers(spec.pairs))


def write_manifest(spec: EvalWorkload, seed: int, directory: Path) -> Manifest:
    """Write the workload's mask pairs and manifest into ``directory``."""
    p1 = p1_position(spec, seed)
    items, expected, formats, sizes = [], [], {}, {}
    for k in range(spec.pairs):
        pair = ring_pair(spec.side, seed, k)
        pred_path, gt_path = directory / f"pred_{k:03d}.raw", directory / f"gt_{k:03d}.pbm"
        write_mask_raw(pred_path, pair.pred)
        write_mask_pbm(gt_path, pair.gt, binary=k != p1)
        formats[pred_path], formats[gt_path] = "raw", "p1" if k == p1 else "p4"
        for path in (pred_path, gt_path):
            sizes[path] = path.stat().st_size
        items.append({"pred": pred_path.name, "gt": gt_path.name, "class_id": spec.class_id})
        expected.append(pair.expected)
    path = directory / "manifest.json"
    path.write_text(json.dumps({"items": items}))
    return Manifest(path=path, expected=expected, formats=formats, sizes=sizes)
