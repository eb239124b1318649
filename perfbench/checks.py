"""Correctness checks on the program's outputs.

Every check returns the number of operations it found wrong, so a failed
check marks exactly the affected operations as failed: result rows
(estimator, order, N, lambda) for the grid workloads, `estimate()` calls for
the loop workloads. References were recorded at the default seed by
`make_reference.py` and are compared within the tolerances of the tier-1
fast-path pin (`TestFastPathEquivalence`).
"""

import csv
import gzip
import hashlib
import json
import math
import os

import numpy as np

from ensgrad.estimators import ESTIMATOR_IDS

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# relative tolerances of the fast-path pin; the two covariance-inverting
# estimators get the looser one there as well
PIN_TOL = {"gen_stosag": 1e-10, "hybrid": 1e-10}
PIN_TOL_DEFAULT = 1e-12


def pin_tol(estimator):
    return PIN_TOL.get(estimator, PIN_TOL_DEFAULT)


def contract(estimator, m, n):
    """(evals, cached) per call, as in the README's evals-per-call table.
    The subsampled estimators see a pooled ensemble of 2M controls."""
    return {
        "plain_lls": (m * n, 0),
        "fragile": (n, 0),
        "paired": (n, 0),
        "stosag": (n, m),
        "average_lls": (2 * m, 0),
        "gen_stosag": (2 * m, 0),
        "hybrid": (2 * m, 0),
        "two_sided": (2 * m, 0),
        "mirrored2s": (2 * n, 0),
        "one_sided": (n, m),
        "decorr": (n, m),
        "avg_grad": (m * n, 0),
    }[estimator]


# ---------------------------------------------------------------------------
# grid rows


def stats_sha256(stats):
    """SHA-256 over the aggregated stats, bit for bit: equal hashes mean the
    accumulated moments did not change at all."""
    h = hashlib.sha256()
    for key in sorted(stats):
        st = stats[key]
        h.update(repr((key, st.n, st.evals, st.cached)).encode())
        h.update(np.ascontiguousarray(st.sum_err, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(st.sum_sq, dtype="<f8").tobytes())
    return h.hexdigest()


def expected_keys(orders, sizes, lambdas):
    return [(est, order, n, lam) for order in orders for n in sizes
            for est in ESTIMATOR_IDS for lam in lambdas]


def as_row(r):
    """(key, rmse, bias, evals, trials) from a harness ResultRow."""
    return (r.estimator, r.order, r.n, r.lam), r.rmse, r.bias, r.evals, r.trials


def read_rows(path_or_file):
    """(key, rmse, bias, evals, trials) tuples from a results.csv, parsed
    here rather than by the package under test."""
    opener = gzip.open if str(path_or_file).endswith(".gz") else open
    with opener(path_or_file, "rt", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["estimator", "order", "N", "lambda", "rmse", "bias", "evals", "trials"]:
            raise ValueError(f"unexpected results header {header}")
        return [((e, int(o), int(n), float(lam)), float(rm), float(b), int(ev), int(t))
                for e, o, n, lam, rm, b, ev, t in reader]


def check_rows(rows, keys, trials):
    """Failed-row count: every expected key present once, finite, rmse >=
    bias (up to roundoff), the README's evals, and `trials == T`."""
    expected = set(keys)
    seen = {}
    bad = 0
    for key, rmse, bias, evals, n_trials in rows:
        if key not in expected or key in seen:
            bad += 1
            continue
        est, _order, n, _lam = key
        ok = (math.isfinite(rmse) and math.isfinite(bias)
              and rmse >= bias * (1.0 - 1e-12)
              and evals == contract(est, n, n)[0] and n_trials == trials)
        seen[key] = ok
    return bad + sum(1 for k in expected if not seen.get(k, False))


def compare_rows(rows, ref_rows):
    """Failed-row count against a reference: rmse and bias within the pin
    tolerance, relative to the row's rmse (at least 1)."""
    ref = {key: (rmse, bias) for key, rmse, bias, _, _ in ref_rows}
    got = {key: (rmse, bias) for key, rmse, bias, _, _ in rows}
    bad = 0
    for key, (r_rmse, r_bias) in ref.items():
        if key not in got:
            bad += 1
            continue
        g_rmse, g_bias = got[key]
        tol = pin_tol(key[0]) * max(1.0, abs(r_rmse))
        if not (abs(g_rmse - r_rmse) <= tol and abs(g_bias - r_bias) <= tol):
            bad += 1
    return bad + sum(1 for key in got if key not in ref)


def differing_lines(path_a, path_b):
    """Lines that differ between two files, byte for byte (a missing file
    has no lines)."""
    lines = []
    for path in (path_a, path_b):
        try:
            with open(path, "rb") as f:
                lines.append(f.read().splitlines())
        except OSError:
            lines.append([])
    a, b = lines
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def load_reference_rows(name):
    return read_rows(os.path.join(REF_DIR, name))


# ---------------------------------------------------------------------------
# estimate() calls


def check_estimate(got, estimator, m, n, dims):
    """True when one GradientEstimate is sane: finite, shape (d,), and the
    README's (evals, cached) charges."""
    g = got.grad
    return (g.shape == (dims,) and bool(np.all(np.isfinite(g)))
            and (got.evals, got.cached) == contract(estimator, m, n))


class Checksums:
    """Per-(estimator, N) running sums of the returned gradients."""

    def __init__(self):
        self.sums = {}
        self.scale = {}
        self.calls = {}

    def add(self, estimator, n, grad):
        key = f"{estimator}/{n}"
        self.sums[key] = self.sums.get(key, 0.0) + grad
        self.scale[key] = self.scale.get(key, 0.0) + float(np.abs(grad).sum())
        self.calls[key] = self.calls.get(key, 0) + 1

    def to_json(self):
        return {k: [float(x) for x in v] for k, v in sorted(self.sums.items())}

    def compare(self, ref):
        """Failed-call count: every call behind a checksum that is missing
        or off by more than the pin tolerance, relative to the summed
        gradient magnitude."""
        bad = 0
        for key in sorted(set(ref) | set(self.sums)):
            if key not in ref or key not in self.sums:
                bad += self.calls.get(key, 1)
                continue
            tol = pin_tol(key.split("/")[0]) * max(1.0, self.scale[key])
            if np.max(np.abs(np.asarray(ref[key]) - self.sums[key])) > tol:
                bad += self.calls[key]
        return bad


def load_reference_json(name):
    with open(os.path.join(REF_DIR, name)) as f:
        return json.load(f)
