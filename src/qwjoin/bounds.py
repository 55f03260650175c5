"""Entrywise comparison of a join walk against the bare part walk.

For a pair inside the left part, the join changes each walk entry by one
additive term that is bounded by 2/m in magnitude, where m is the left
order. These sweeps measure the resulting deviation of entry magnitudes,
find when the bound is tight, and check that the deviation vanishes
exactly on the shared time lattice. Both matrices are swept alike: the
lift e^{it phase_rate} and the lattice of the integer fresh offsets come
from the join's spectral.JoinParams record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import nu2
from .errors import InconsistencyError
from .graphs import WeightedGraph
from .spectral import join_params, spectrum
from .walk import alpha, in_T, transition_entries, transition_matrix


@dataclass
class BoundReport:
    matrix: str
    pair: tuple[int, int]
    bound: float
    times: np.ndarray
    join_magnitudes: np.ndarray
    part_magnitudes: np.ndarray
    deviation: np.ndarray
    max_abs_deviation: float
    argmax_time: float
    equality_possible: bool | None
    equality_times: list[float]
    structured_times: list[float]


@dataclass
class MimicrySummary:
    matrix: str
    times: np.ndarray
    max_deviation: np.ndarray
    min_deviation: np.ndarray
    lattice_times: list[float]
    details: dict = field(default_factory=dict)


def _sweep_times(
    offsets: tuple[int, int] | None, stride: int, t_max: float | None, samples: int
) -> tuple[np.ndarray, list[float]]:
    """A uniform grid on [0, t_max] joined with the lattice times j * stride * base.

    base is pi over the gcd of the integer fresh offsets; with no offsets
    there is no lattice. t_max defaults to 4 pi when there is a lattice and
    to 20 otherwise. samples must be at least 1, t_max finite and positive,
    and the lattice may hold at most samples points; all are checked before
    any time is built.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    base = math.pi / math.gcd(*offsets) if offsets else None
    if t_max is None:
        t_max = 4 * math.pi if base is not None else 20.0
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    lattice: list[float] = []
    if base is not None:
        step = stride * base
        if t_max / step >= samples + 1:
            raise ValueError(
                f"t_max = {t_max} holds more than {samples} lattice times of step "
                f"{step:.6g}; lower t_max or raise samples"
            )
        lattice = [j * step for j in range(1, int(t_max / step) + 1)]
    return np.union1d(np.linspace(0.0, t_max, samples), np.asarray(lattice)), lattice


def equality_condition(
    x: WeightedGraph, y: WeightedGraph, matrix: str = "laplacian"
) -> dict:
    """When the 2/m deviation bound is attained, and at which times.

    The bound is tight exactly when the two fresh-eigenvalue offsets share
    their dyadic valuation; the witnessing times are the odd multiples of
    pi over the offsets' gcd. A claimed witness is verified numerically.
    """
    params = join_params(x, y, matrix)
    bound = 2.0 / params.m
    offsets = params.offsets
    if offsets is None:
        return {
            "bound": bound,
            "achievable": None,
            "note": "the fresh-eigenvalue offsets are not integers; no time lattice exists",
        }
    achievable = nu2(offsets[0]) == nu2(offsets[1])
    result: dict = {"bound": bound, "achievable": achievable}
    g = math.gcd(*offsets)
    result["base_time"] = math.pi / g
    result["witness_times"] = "odd multiples of the base time"
    if achievable:
        witness = abs(alpha(params, math.pi / g))
        if abs(witness - bound) > 1e-9:
            raise InconsistencyError(
                f"the equality witness reaches {witness}, not the bound {bound}"
            )
        result["witness_value"] = float(witness)
    return result


def bound_sweep(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    matrix: str = "laplacian",
    t_max: float | None = None,
    samples: int = 4096,
) -> BoundReport:
    """Sweep the magnitude deviation of one left-block entry of the join.

    The deviation |join entry| - |part entry| is computed from the part
    decomposition and the closed-form correction, over a uniform grid
    joined with the structured lattice times. Exceeding 2/m beyond
    rounding is an InconsistencyError.
    """
    params = join_params(x, y, matrix)
    m = params.m
    if not (0 <= u < m and 0 <= v < m):
        raise ValueError("the pair must lie in the left part")
    times, structured = _sweep_times(params.offsets, 1, t_max, samples)
    decomp = spectrum(x, matrix)
    part = transition_entries(decomp, u, v, times)
    correction = alpha(params, times)
    join_magnitudes = np.abs(np.exp(1j * params.phase_rate * times) * (part + correction))
    part_magnitudes = np.abs(part)
    deviation = join_magnitudes - part_magnitudes
    bound = 2.0 / m
    idx = int(np.abs(deviation).argmax())
    max_abs = abs(float(deviation[idx]))
    if max_abs > bound + 1e-9:
        raise InconsistencyError(
            f"the deviation reaches {max_abs}, above the bound {bound}"
        )
    condition = equality_condition(x, y, matrix)
    equality_times = times[np.abs(np.abs(correction) - bound) <= 1e-9].tolist()
    return BoundReport(
        matrix=matrix,
        pair=(u, v),
        bound=bound,
        times=times,
        join_magnitudes=join_magnitudes,
        part_magnitudes=part_magnitudes,
        deviation=deviation,
        max_abs_deviation=max_abs,
        argmax_time=float(times[idx]),
        equality_possible=condition["achievable"],
        equality_times=equality_times,
        structured_times=structured,
    )


def mimicry_sweep(
    x: WeightedGraph,
    y: WeightedGraph,
    matrix: str = "laplacian",
    t_max: float | None = None,
    samples: int = 1024,
) -> MimicrySummary:
    """Deviation statistics for every left-block pair at once.

    Confirms that the deviation vanishes on the shared time lattice, and
    reports per-pair extremes so mimicking and anti-mimicking pairs stand
    out (zero part entries force positive deviation off the lattice,
    full-magnitude part entries force negative deviation).
    """
    params = join_params(x, y, matrix)
    times, lattice = _sweep_times(params.offsets, 2, t_max, samples)
    part_block = transition_matrix(x, times, matrix)
    correction = alpha(params, times)[:, None, None]
    join_block = part_block + correction
    join_block *= np.exp(1j * params.phase_rate * times)[:, None, None]
    deviation = np.abs(join_block) - np.abs(part_block)
    for t in lattice:
        if not in_T(params, t):
            raise InconsistencyError(f"a lattice time {t} fails the membership test")
        if np.abs(deviation[int(np.searchsorted(times, t))]).max() > 1e-8:
            raise InconsistencyError("the deviation does not vanish on the time lattice")
    return MimicrySummary(
        matrix=matrix,
        times=times,
        max_deviation=deviation.max(axis=0),
        min_deviation=deviation.min(axis=0),
        lattice_times=lattice,
        details={"bound": 2.0 / params.m},
    )
