"""Seeded random polygon corpora for sweeps and cross-validation.

Corpora are deterministic in the seed.  Duplicate vertex sets are
dropped, but unimodularly equivalent embeddings are kept: they produce
genuinely different matrices, which is the point of a sweep.
"""
from __future__ import annotations

import random

from .polygon import LatticePolygon, classify, from_vertices


def random_lattice_polygon(rng: random.Random, box: int = 4,
                           max_vertices: int = 6) -> LatticePolygon | None:
    """Hull of a few random points in a box; None when degenerate."""
    k = rng.randint(3, max_vertices)
    pts = {(rng.randint(0, box), rng.randint(0, box)) for _ in range(k)}
    try:
        return from_vertices(sorted(pts))
    except ValueError:
        return None


def build_corpus(seed: int, count: int, n_min: int = 3, n_max: int = 7,
                 box: int = 4, max_vertices: int = 6) -> list[LatticePolygon]:
    """Deterministic list of polygons with point counts in range."""
    rng = random.Random(seed)
    seen: set = set()
    out: list[LatticePolygon] = []
    attempts = 0
    limit = 4000 * count
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise ValueError(
                f"could not draw {count} polygons with {n_min} <= points "
                f"<= {n_max} in a {box} box after {limit} attempts")
        poly = random_lattice_polygon(rng, box, max_vertices)
        if poly is None or not (n_min <= poly.n_points <= n_max):
            continue
        key = poly.points
        if key in seen:
            continue
        seen.add(key)
        out.append(poly)
    return out


def oracle_corpus(seed: int = 2026, count: int = 120) -> list[LatticePolygon]:
    """Small polygons within the brute-force cap, for cross-validation."""
    return build_corpus(seed, count, n_min=3, n_max=7, box=4)


def removal_corpus(seed: int = 2027,
                   per_shape: int = 12) -> list[LatticePolygon]:
    """Polygons up to 9 points covering all three kinds of removal plan:
    five or more vertices (a single vertex), quadrangles (a diagonal
    pair) and triangles (three corners), per_shape of each, drawn in
    that order."""
    out: list[LatticePolygon] = []
    for i, shape in enumerate((5, 4, 3)):   # vertex count, 5 meaning >= 5
        picked: list[LatticePolygon] = []
        rng_seed = seed + 97 * i
        candidates = build_corpus(rng_seed, per_shape * 30, n_min=4, n_max=9,
                                  box=4, max_vertices=7)
        for poly in candidates:
            if min(len(poly.vertices), 5) == shape:
                picked.append(poly)
            if len(picked) == per_shape:
                break
        if len(picked) < per_shape:
            raise ValueError(f"not enough polygons of {shape} vertices drawn")
        out.extend(picked)
    return out


def _has_linear_strand(poly: LatticePolygon) -> bool:
    cls = classify(poly)
    return not (cls.tag in ("Sigma_multiple", "Upsilon_d")
                and cls.params[0] == 1)


def kp1_corpus(seed: int = 2028, count: int = 40,
               n_max: int = 14) -> list[LatticePolygon]:
    """Mid-size polygons for the vanishing campaign; the two basic
    triangles have no linear strand and are excluded."""
    drawn = build_corpus(seed, count * 3, n_min=5, n_max=n_max, box=5,
                         max_vertices=7)
    kept = [p for p in drawn if _has_linear_strand(p)]
    if len(kept) < count:
        raise ValueError(f"only {len(kept)} usable polygons of {count}")
    return kept[:count]
