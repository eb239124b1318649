"""Self-test of the benchmark's checks: a tampered result must count as
failed, and an untampered one must not.

    python3 perfbench/selftest.py

Each case prints PASS or FAIL; the exit code is 0 only when all pass. The
tampering happens inside this process, by wrapping package functions the
same way the tracer does, so nothing under `src/` changes.
"""

import pin  # noqa: F401  (pins BLAS threads before numpy loads)

import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace

pin.require_src()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from ensgrad import estimators, harness  # noqa: E402

RESULTS = []


def case(name, ok):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}")


@contextmanager
def patched(owner, attr, value):
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


def tamper_rows(rows, i, **change):
    key, rmse, bias, evals, trials = rows[i]
    fields = dict(key=key, rmse=rmse, bias=bias, evals=evals, trials=trials)
    fields.update(change)
    out = list(rows)
    out[i] = (fields["key"], fields["rmse"], fields["bias"], fields["evals"], fields["trials"])
    return out


def row_checks():
    ref = checks.load_reference_rows(workloads.REF_GRID)
    keys = checks.expected_keys(workloads.ORDERS, harness.DEFAULT_SIZES, harness.DEFAULT_LAMBDAS)
    case("reference rows pass", checks.check_rows(ref, keys, 200) == 0
         and checks.compare_rows(ref, ref) == 0)
    i = 1234
    rmse = ref[i][1]
    case("rmse off by 1e-9 relative -> 1 failed",
         checks.compare_rows(tamper_rows(ref, i, rmse=rmse * (1 + 1e-9)), ref) == 1)
    case("bias above rmse -> 1 failed",
         checks.check_rows(tamper_rows(ref, i, bias=rmse * 2), keys, 200) == 1)
    case("nan rmse -> 1 failed",
         checks.check_rows(tamper_rows(ref, i, rmse=float("nan")), keys, 200) == 1)
    case("wrong trial count -> 1 failed",
         checks.check_rows(tamper_rows(ref, i, trials=199), keys, 200) == 1)
    case("wrong evals -> 1 failed",
         checks.check_rows(tamper_rows(ref, i, evals=ref[i][3] + 1), keys, 200) == 1)
    case("missing row -> 1 failed", checks.check_rows(ref[:i] + ref[i + 1:], keys, 200) == 1)
    case("duplicated row -> 1 failed", checks.check_rows(ref + [ref[i]], keys, 200) == 1)

    os.makedirs(pin.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=pin.OUT_DIR) as tmp:
        a, b = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        text = "".join(f"{k},{r!r},{s!r}\n" for k, r, s, _, _ in ref[:20])
        for path, body in ((a, text), (b, text.replace(repr(ref[3][1]), repr(ref[3][1] + 1e-15)))):
            with open(path, "w") as f:
                f.write(body)
        case("one byte-different csv line -> 1 failed", checks.differing_lines(a, b) == 1)
        case("identical csv -> 0 failed", checks.differing_lines(a, a) == 0)


def grid_end_to_end():
    grid = workloads.Grid()
    grid.setup()
    case("grid verify passes untampered", grid.verify().failed == 0)
    real = harness.aggregate

    def skewed(stats):
        rows = real(stats)
        rows[7] = replace(rows[7], rmse=rows[7].rmse * (1 + 1e-9))
        return rows

    with patched(harness, "aggregate", skewed):
        case("grid verify with one skewed row -> 1 failed", grid.verify().failed == 1)


def loop_end_to_end():
    real = estimators.estimate

    def biased(obj, X, U, spec):
        got = real(obj, X, U, spec)
        if spec.kind == "one_sided" and spec.pinv.lam == 0.0:
            got.grad = got.grad + 1e-9
        return got

    def broken(obj, X, U, spec):
        got = real(obj, X, U, spec)
        if spec.kind == "decorr":
            got.grad = np.full_like(got.grad, np.nan)
        return got

    def miscounted(obj, X, U, spec):
        got = real(obj, X, U, spec)
        if spec.kind == "fragile":
            got.evals += 1
        return got

    for loop in (workloads.Sweep(), workloads.Descent()):
        loop.setup()
        case(f"{loop.name} verify passes untampered", loop.verify().failed == 0)
        with patched(estimators, "estimate", biased):
            out = loop.verify()
            case(f"{loop.name}: one_sided off by 1e-9 at lambda=0 -> failed", out.failed > 0)
        with patched(estimators, "estimate", broken):
            out = loop.verify()
            case(f"{loop.name}: nan decorr gradients -> failed", out.failed > 0)
        with patched(estimators, "estimate", miscounted):
            out = loop.verify()
            case(f"{loop.name}: fragile evals miscounted -> failed", out.failed > 0)


if __name__ == "__main__":
    row_checks()
    loop_end_to_end()
    grid_end_to_end()
    print(f"{sum(RESULTS)} of {len(RESULTS)} self-test cases passed")
    sys.exit(0 if all(RESULTS) else 1)
