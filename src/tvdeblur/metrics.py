"""Quality and convergence scoring of iterates."""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from . import halves
from .grid_ops import check_real, validate_image

SNR_CAP_DB = 300.0


def plane_sum(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """Sum a, or a * b, over an (n, n) plane: the one summation rule of every score.

    Per-row partials, ``a.sum(axis=1)`` or ``einsum("ij,ij->i", a, b)`` (not a threaded BLAS dot), are added by
    ``add_rows``.  A row's partial depends on that row alone, so a plane whose rows were formed whole, on
    ``halves.run``'s halves or on strips sums to the same bits, whatever the BLAS thread count.
    """
    return add_rows(a.sum(axis=1) if b is None else np.einsum("ij,ij->i", a, b))


def add_rows(rows: np.ndarray) -> float:
    """Add a plane's n per-row partials in the one order fixed by n: ``plane_sum``'s last step.

    A split pass whose row work forms its rows' partials (``partials[lo:hi]``, as ``plane_sum`` forms them) hands
    the vector here, so a sum formed on ``halves.run``'s halves has the bits of ``plane_sum`` of the whole plane.
    """
    return float(rows.sum())


def _diff_energy(a: np.ndarray, b: np.ndarray, b_energy: bool = False) -> tuple[float, float | None]:
    """(plane_sum(a - b, a - b), plane_sum(b, b) if ``b_energy`` else None), on row halves.

    ``a`` and ``b`` are float64 arrays of one 2-D shape.
    """
    diff = np.empty(a.shape)
    partials = np.empty(a.shape[0])
    b_partials = np.empty_like(partials) if b_energy else None

    def rows(lo, hi):  # the difference in diff's rows, then each row's partials
        d = np.subtract(a[lo:hi], b[lo:hi], out=diff[lo:hi])
        np.einsum("ij,ij->i", d, d, out=partials[lo:hi])
        if b_partials is not None:
            np.einsum("ij,ij->i", b[lo:hi], b[lo:hi], out=b_partials[lo:hi])

    halves.run(rows, a.shape[0], a.size)
    return add_rows(partials), None if b_partials is None else add_rows(b_partials)


def snr_scorer(reference: np.ndarray, name: str = "reference") -> Callable[[np.ndarray], float]:
    """Return ``u -> snr_db(u, reference)`` with the reference's energy computed once.

    A solve scores every record against the same ground truth, so the
    centred reference and its energy are formed here, not per record.
    The reference must pass ``validate_image`` and must not be constant;
    either ValueError names it ``name``.  A complex image to score, or one
    of another shape, raises ValueError as well.
    """
    reference = validate_image(reference, name)
    signal = reference - plane_sum(reference) / reference.size
    signal_energy = plane_sum(signal, signal)
    if signal_energy == 0.0:
        raise ValueError(f"{name} is constant")

    def score(u: np.ndarray) -> float:
        check_real(u, "scored image")
        if np.shape(u) != reference.shape:  # it would broadcast against the reference and score a mean
            raise ValueError(f"scored image has shape {np.shape(u)}, the {name} {reference.shape}")
        err_energy = _diff_energy(np.asarray(u, dtype=np.float64), reference)[0]
        if err_energy == 0.0:
            return SNR_CAP_DB
        return min(10.0 * np.log10(signal_energy / err_energy), SNR_CAP_DB)

    return score


def snr_db(u: np.ndarray, reference: np.ndarray) -> float:
    """Signal-to-noise ratio in dB against a ground-truth image.

    10*log10(||reference - mean(reference)||^2 / ||u - reference||^2),
    capped at 300 dB; exact equality returns the 300 dB sentinel.
    """
    return snr_scorer(reference)(u)


def rel_change(u_new: np.ndarray, u_old: np.ndarray) -> float:
    """||u_new - u_old||_2 / max(||u_old||_2, 1e-12).

    NaN when ||u_old|| overflows: the ratio would read 0 and mean nothing.
    A complex argument, or two of different shapes, raises ValueError
    naming them.
    """
    check_real(u_new, "u_new")
    check_real(u_old, "u_old")
    if np.shape(u_new) != np.shape(u_old):
        raise ValueError(f"u_new has shape {np.shape(u_new)}, u_old {np.shape(u_old)}")
    num_sq, den_sq = _diff_energy(np.asarray(u_new, dtype=np.float64), np.asarray(u_old, dtype=np.float64), True)
    num = math.sqrt(num_sq)
    den = max(math.sqrt(den_sq), 1e-12)
    if not math.isfinite(den):
        return math.nan
    return num / den


def best_index(scores) -> int:
    """Index of the highest score; ties break toward the earliest index.

    The one best-iterate rule, shared by ``best_iterate``, the solvers'
    choice of which record keeps its arrays, and ``tvdeblur report``.
    """
    return int(np.argmax(scores))


def best_iterate(trace) -> int:
    """Index of the record with the highest snr_db (``best_index``'s rule).

    Raises ValueError for a trace with no records or when some record
    carries no score.
    """
    records = trace.records
    if not records:
        raise ValueError("trace has no records")
    scores = [r.snr_db for r in records]
    if any(s is None for s in scores):
        raise ValueError("trace records carry no snr_db; run with ground truth")
    return best_index(scores)
