"""The three benchmark workloads: the polygons each pass runs and the one
public call each item makes.

The polygon classes are fixed; the seed picks a unimodular embedding of
each (a shear, swap or reflection of the lattice plus a shift).  The
table does not change under such a map, so every item has a frozen
reference for every seed, while the matrices, bidegrees and block
orderings the engine sees do change.  Drawing fresh polygons per seed
instead moved the work of a pass by a third between seeds, far more
than the bounds a regression is judged by.

Why each workload exists, and which layer numbers should move which
end-to-end numbers on it, is recorded in README.md beside this file.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

SWEEP_SEED = 11          # the sweep's polygon classes: build_corpus(11, ...)
CAMPAIGN_SEED = 2028     # the campaign's: kp1_corpus(2028, ...)
# The largest model tables that still fit several passes into one run.
# 3*Upsilon (20-28 s on two cores) fits one, and one pass per run left
# its run-to-run spread at the edge of the bound.
BIG_MODELS = ["5*Sigma", "Upsilon_4"]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def unimodular_image(vertices, rng: random.Random) -> list[tuple[int, int]]:
    """Vertices under a random lattice automorphism with small entries."""
    m = [[1, 0], [0, 1]]
    for _ in range(2):
        k = rng.choice((-1, 1))
        i = rng.randrange(2)
        # add k times row 1 - i to row i: an elementary shear
        m[i] = [m[i][0] + k * m[1 - i][0], m[i][1] + k * m[1 - i][1]]
    if rng.random() < 0.5:
        m = [m[1], m[0]]
    if rng.random() < 0.5:
        m = [[-m[0][0], -m[0][1]], m[1]]
    dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
    return [(m[0][0] * x + m[0][1] * y + dx, m[1][0] * x + m[1][1] * y + dy)
            for x, y in vertices]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "table": betti_table per polygon; "kp1": verify_kp1
    pooled: bool       # workers = nproc when pooled, else 1
    # How a run reduces the times of its passes: "best" or "median".
    # A sweep pass takes 8-11 s, so a run holds four or five; slow
    # episodes of the machine cover whole passes, and only the best pass
    # stays clear of them.  A big-table or campaign pass takes 2-4 s, so
    # a run holds ten or more; the best of them is a rare fast window,
    # while their median is steady.
    pass_stat: str

    def workers(self) -> int:
        return nproc() if self.pooled else 1

    def reference_key(self, smoke: bool) -> str:
        return f"{self.name}-smoke" if smoke and self.name == "big-table" \
            else self.name

    def base(self, corpus, polygon, smoke: bool) -> list:
        """The polygon classes, in reference order.  Smoke inputs are a
        prefix of the full list (or a smaller model)."""
        if self.name == "big-table":
            names = ["Upsilon_3"] if smoke else BIG_MODELS
            return [polygon.named_polygon(name) for name in names]
        if self.name == "sweep":
            return corpus.build_corpus(SWEEP_SEED, 4 if smoke else 40,
                                       n_min=8, n_max=12, box=5,
                                       max_vertices=7)
        return corpus.kp1_corpus(CAMPAIGN_SEED, 8 if smoke else 60,
                                 n_max=14)

    def inputs(self, corpus, polygon, seed: int, smoke: bool) -> list:
        """The polygons of one pass, deterministic in the seed.  The
        models of big-table are run as users name them."""
        polys = self.base(corpus, polygon, smoke)
        if self.name == "big-table":
            return polys
        rng = random.Random(seed)
        return [polygon.from_vertices(unimodular_image(p.vertices, rng))
                for p in polys]


WORKLOADS = {w.name: w for w in [
    Workload("big-table", "table", True, "median"),
    Workload("sweep", "table", True, "best"),
    Workload("campaign", "kp1", False, "median"),
]}
