"""The three workloads: seeded inputs, one timed call per item, the checks.

An item is one closed-loop request: the next one starts when the
previous one returns. Set-up writes every input file of a pass before
timing starts (presentation JSON, derivation text), so the program sees
only generated inputs. Each workload cycles through a fixed schedule of
input shapes and draws everything else from the seed: exponent order
within blocks, anchors, relation constants, which derivation and which
kernel factors, and the visiting order of the toric grid. The schedule
keeps the mix of cheap and expensive items the same from seed to seed,
which is what makes ten seeds agree within the bounds; the drawn parts
make every input of a pass distinct, so no cross-call cache can hit.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

# Imported after the worker has put the checkout's src/ first on sys.path.
from trilnd import cli
from trilnd.classify import enumerate_lnds, is_rigid, kernel_generators
from trilnd.derivation import (
    derivation_from_text,
    derivation_to_text,
    is_well_defined,
    nilpotency_check,
    replica,
)
from trilnd.gaussian import gq
from trilnd.oracle import oracle_enumerate
from trilnd.poly import Poly
from trilnd.presentation import TrinomialPresentation
from trilnd.toric import toric_derivation

# Corpus bounds (trilnd/corpus.py): at most four blocks, at most three
# variables per block, exponents at most 4, at most two free variables.
# The block count is bounded by the shapes each workload lists.
MAX_VARS, MAX_EXP, MAX_FREE = 3, 4, 2
# The standard type 2 columns (trilnd.presentation.STANDARD_COLUMNS);
# for three blocks they give T0 + T1 + T2, whose coefficient ratios
# are 1, a square in Q(i).
TYPE2_COLUMNS = ((1, 0), (0, 1), (-1, -1), (1, -1))
# Fixed seed of the shape schedules: the schedule is part of the
# workload definition, the run seed draws the rest.
SCHEDULE_SEED = 2605


@dataclass
class Item:
    files: dict  # role -> path
    expect: dict = field(default_factory=dict)


def _gauss_text(a: int, b: int) -> str:
    if b == 0:
        return str(a)
    return f"{b}i" if a == 0 else f"{a}{'+' if b > 0 else '-'}{abs(b)}i"


def _presentation_data(rng, kind, blocks, d):
    """Input dict for a shape: exponents shuffled within each block,
    random anchors and random relation constants."""
    rows = [rng.sample(row, len(row)) for row in blocks]
    data = {"type": kind, "blocks": rows, "free_vars": d,
            "anchors": [rng.randint(1, len(row)) for row in rows]}
    if kind == 1:
        pool = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        data["constants"] = [_gauss_text(a, b) for a, b in rng.sample(pool, len(rows))]
    else:
        # Columns M * standard column for an invertible integer M: every
        # 2x2 minor scales by det M, so the coefficient ratios stay 1.
        while True:
            m = [rng.randint(-2, 2) for _ in range(4)]
            if m[0] * m[3] - m[1] * m[2]:
                break
        data["constants"] = [
            [m[0] * x + m[1] * y, m[2] * x + m[3] * y] for x, y in TYPE2_COLUMNS[: len(rows)]
        ]
    return data


def _fresh(seen: set, draw):
    """Draw until the input differs from every earlier one of the pass."""
    for _ in range(1000):
        value = draw()
        if value not in seen:
            seen.add(value)
            return value
    raise RuntimeError("the seed space of this schedule slot is exhausted")


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- oracle-sweep -------------------------------------------------------------


def _oracle_shapes():
    """Shapes for the oracle sweep: within the corpus bounds with
    n + d <= 5; no block is a lone exponent-1 variable (the standing
    hypothesis n_i * l_ij > 1); type 2 has three blocks, where the
    standard columns need no square root outside Q(i); type 1 has
    n + d <= 4, which keeps every item within a few seconds."""
    rows = [r for k in range(1, MAX_VARS + 1) for r in product(range(1, MAX_EXP + 1), repeat=k)]
    rows = [r for r in rows if r != (1,)]

    def blockings(count, budget):
        if count == 0:
            yield ()
            return
        for row in rows:
            if len(row) + count - 1 <= budget:
                for rest in blockings(count - 1, budget - len(row)):
                    yield (row,) + rest

    out = {1: [], 2: []}
    for kind, nblocks in ((1, 2), (1, 3), (1, 4), (2, 3)):
        limit = 4 if kind == 1 else 5
        for blocks in blockings(nblocks, limit):
            n = sum(map(len, blocks))
            out[kind].extend((kind, blocks, d) for d in range(min(MAX_FREE, limit - n) + 1))
    return out


def _oracle_schedule(length=24):
    """Two type 1 shapes, then one type 2 shape, drawn once with
    SCHEDULE_SEED. A timed pass runs the list twice, a traced pass once."""
    rng = random.Random(SCHEDULE_SEED)
    shapes = _oracle_shapes()
    return [rng.choice(shapes[2 if k % 3 == 2 else 1]) for k in range(length)]


class OracleSweep:
    """is_rigid, then oracle_enumerate(degree_bound=4, cap=16) with the
    default weights; the classifier's rigidity must disagree with the
    oracle finding a nilpotent sample."""

    name = "oracle-sweep"

    def __init__(self):
        self.schedule = _oracle_schedule()
        self._seen = set()

    def generate(self, rng, k, work: Path) -> Item:
        kind, blocks, d = self.schedule[k % len(self.schedule)]
        text = _fresh(self._seen, lambda: json.dumps(_presentation_data(rng, kind, blocks, d)))
        return Item({"presentation": _write(work / f"p{k}.json", text)})

    def run(self, item: Item):
        text = Path(item.files["presentation"]).read_text(encoding="utf-8")
        P = TrinomialPresentation.from_json(text)
        rigid = is_rigid(P).rigid
        found = oracle_enumerate(P, degree_bound=4, cap=16).nilpotent_found
        return rigid, found

    def check(self, item: Item, out) -> str | None:
        rigid, found = out
        if rigid == found:
            return f"rigid={rigid} but oracle nilpotent_found={found}"
        return None


# -- deep-nilpotency ---------------------------------------------------------


def _replica_shapes():
    """Small non-rigid presentations whose classifier outputs get
    multiplied by kernel elements: one or two blocks with an exponent-1
    entry make admissible tuples plentiful."""
    return [
        (1, ((2, 1), (3,)), 0), (1, ((1, 2), (2, 2)), 0), (1, ((2,), (3,)), 1),
        (1, ((1, 3), (1, 2), (2,)), 0), (1, ((1, 1), (2,)), 0), (1, ((3,), (1, 2)), 1),
        (2, ((2,), (2,), (2,)), 0), (2, ((1,), (2,), (3,)), 0), (2, ((2,), (2,), (3,)), 1),
        (2, ((1, 2), (2,), (3,)), 0), (2, ((2,), (2,), (2, 2)), 0), (2, ((1, 1), (2,), (2,)), 0),
    ]


# Consecutive replicas share a presentation, each with its own derivation
# and cofactor: classifying a presentation costs more than a replica.
# With two replicas per toric root, 126 items hold the 12 replica shapes
# 7 times each and the 42 grid cells once each: one whole pass.
REPLICAS_PER_PRESENTATION = 7
TORIC_GRID = [(g, p) for g in range(2, 9) for p in range(1, 7)]


def _scalar(rng):
    """A nonzero Gaussian integer with parts in [-3, 3]."""
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            return gq(a, b)


class DeepNilpotency:
    """trilnd verify on derivations that are locally nilpotent: two
    replicas c*h*delta of classifier outputs, then one toric root
    c*toric_derivation(g, 1, p) on x^2 + y^2 + z^g, repeated. The scalar
    c makes every input of a pass distinct without changing the index."""

    name = "deep-nilpotency"

    def __init__(self):
        self.shapes = _replica_shapes()
        self._order = []
        self._group = []  # [instance, index or None] of the current presentation
        self._toric = {}
        self._seen = set()

    def _toric_item(self, rng):
        if not self._order:
            self._order = rng.sample(TORIC_GRID, len(TORIC_GRID))
        g, p = self._order.pop()
        if (g, p) not in self._toric:
            self._toric[g, p] = toric_derivation(g, 1, p).xyz
        # <n, m> drops by one per application on chi^m; u has the largest
        # pairing, g, so u dies at step g + 1.
        return lambda: (self._toric[g, p].scaled(_scalar(rng)), g + 1)

    def _replica_item(self, rng, replica_no):
        if replica_no % REPLICAS_PER_PRESENTATION == 0:
            kind, blocks, d = self.shapes[replica_no // REPLICAS_PER_PRESENTATION % len(self.shapes)]
            P = TrinomialPresentation.from_input_dict(_presentation_data(rng, kind, blocks, d))
            self._group = [[inst, None] for inst in enumerate_lnds(P) if inst.derivation is not None]

        def make():
            entry = rng.choice(self._group)
            inst = entry[0]
            if entry[1] is None:
                base = nilpotency_check(inst.derivation)
                entry[1] = base.index if base.verified else -1  # never matches
            gens = kernel_generators(inst.derivation.presentation, inst.descriptor)
            h = Poly.constant(_scalar(rng))
            for _ in range(rng.randint(1, 3)):
                h = h * rng.choice(gens)
            # (h delta)^n = h^n delta^n because delta(h) = 0.
            return replica(inst.derivation, h), entry[1]

        return make

    def generate(self, rng, k, work: Path) -> Item:
        if k % 3 == 2:
            make = self._toric_item(rng)
        else:
            make = self._replica_item(rng, 2 * (k // 3) + k % 3)
        drawn = {}

        def draw():
            delta, drawn["index"] = make()
            return json.dumps(delta.presentation.to_input_dict()), derivation_to_text(delta)

        texts = _fresh(self._seen, draw)
        files = {
            "presentation": _write(work / f"p{k}.json", texts[0]),
            "derivation": _write(work / f"d{k}.txt", texts[1]),
        }
        return Item(files, {"index": drawn["index"]})

    def run(self, item: Item):
        return _capture(
            ["verify", "--presentation", item.files["presentation"],
             "--derivation", item.files["derivation"]]
        )

    def check(self, item: Item, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(text)
        if report.get("verified") is not True:
            return "not verified"
        index = report["nilpotency"]["index"]
        if index != item.expect["index"]:
            return f"index {index}, expected {item.expect['index']}"
        return None


# -- wide-classify ------------------------------------------------------------

# Block sizes, then the number of exponents above 1 in each block, then
# the free variable count. Type 1 rows have 3-4 blocks of 3-6 variables,
# type 2 rows 3-4 blocks of up to 4.
WIDE_SCHEDULE = (
    (1, (3, 4, 3), (0, 1, 1), 0),
    (2, (2, 3, 2), (1, 1, 0), 1),
    (1, (5, 4, 4), (1, 0, 1), 1),
    (2, (3, 2, 3, 2), (1, 0, 1, 1), 0),
    (1, (3, 3, 3, 3), (1, 1, 0, 1), 2),
    (2, (3, 3, 3), (1, 1, 1), 1),
    (2, (3, 4, 3), (1, 2, 1), 2),
    (1, (6, 5, 4), (2, 1, 1), 0),
    (1, (4, 4, 4), (1, 1, 0), 1),
    (2, (2, 2, 3, 3), (0, 1, 1, 1), 1),
    (1, (4, 4, 3, 4), (1, 1, 1, 0), 1),
    (2, (4, 4, 4), (1, 1, 2), 0),
)

class WideClassify:
    """trilnd analyze, then trilnd lnds, on a wide presentation with
    mostly exponent-1 variables; every materialized derivation is read
    back and checked for well-definedness."""

    name = "wide-classify"

    def __init__(self):
        self._seen = set()

    def generate(self, rng, k, work: Path) -> Item:
        kind, sizes, bigs, d = WIDE_SCHEDULE[k % len(WIDE_SCHEDULE)]

        def draw():
            blocks = []
            for size, big in zip(sizes, bigs):
                row = [1] * size
                for j in rng.sample(range(size), big):
                    row[j] = rng.randint(2, MAX_EXP)
                blocks.append(row)
            rng.shuffle(blocks)
            return json.dumps(_presentation_data(rng, kind, blocks, d))

        text = _fresh(self._seen, draw)
        return Item({"presentation": _write(work / f"p{k}.json", text)})

    def run(self, item: Item):
        path = item.files["presentation"]
        return _capture(["analyze", "--presentation", path]), _capture(
            ["lnds", "--presentation", path]
        )

    def check(self, item: Item, out) -> str | None:
        for rc, _text in out:
            if rc != 0:
                return f"exit code {rc}"
        analyze, lnds = (json.loads(text) for _rc, text in out)
        P = TrinomialPresentation.from_json(
            Path(item.files["presentation"]).read_text(encoding="utf-8")
        )
        if analyze["presentation"] != P.to_input_dict():
            return "analyze echoes a different presentation"
        if lnds["count"] != len(lnds["lnds"]):
            return "lnds count disagrees with its records"
        for record in lnds["lnds"]:
            if "images" not in record:
                if not record.get("error", "").startswith("NeedsNormalization"):
                    return f"record without images: {record}"
                continue
            text = "".join(f"{g} = {p}\n" for g, p in record["images"].items())
            if not is_well_defined(derivation_from_text(P, text)).ok:
                return f"{record['descriptor']} is not well defined"
        return None


WORKLOADS = {w.name: w for w in (OracleSweep, DeepNilpotency, WideClassify)}
