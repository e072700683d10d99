"""Quality and convergence scoring of iterates."""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .grid_ops import check_real, validate_image

SNR_CAP_DB = 300.0


def snr_scorer(reference: np.ndarray, name: str = "reference") -> Callable[[np.ndarray], float]:
    """Return ``u -> snr_db(u, reference)`` with the reference's energy computed once.

    A solve scores every record against the same ground truth, so the
    centred reference and its energy are formed here, not per record.
    The reference must pass ``validate_image``, which names it ``name`` in
    its ValueError, and must not be constant (ValueError otherwise); a
    complex image to score raises ValueError as well.
    """
    reference = validate_image(reference, name)
    signal = reference - reference.mean()
    signal_energy = float((signal * signal).sum())
    if signal_energy == 0.0:
        raise ValueError("reference image is constant")

    def score(u: np.ndarray) -> float:
        check_real(u, "scored image")
        err = np.asarray(u, dtype=np.float64) - reference
        err_energy = float(np.einsum("ij,ij->", err, err))  # summed in a fixed order, as in rel_change
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

    The squares are summed by ``einsum`` in a fixed order, not by BLAS,
    whose threaded dot product would make the value depend on the BLAS
    thread count.  NaN when ||u_old|| overflows: the ratio would read 0 and
    mean nothing.  A complex argument raises ValueError naming it.
    """
    check_real(u_new, "u_new")
    check_real(u_old, "u_old")
    diff = u_new - u_old
    num = math.sqrt(np.einsum("ij,ij->", diff, diff))
    den = max(math.sqrt(np.einsum("ij,ij->", u_old, u_old)), 1e-12)
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
