"""Machine-speed calibration: timings in reference seconds.

The machines this benchmark runs on are shared, and their speed drifts: on
the 2-vCPU VM it was built on, a fixed loop ran anywhere between 29k and 62k
iterations per second within four minutes, with CPU time slowing as much as
wall time. No raw wall-clock figure is steady under that. So every timed
stretch of a run is bracketed by two samples of a short fixed kernel that
uses neither the package nor anything it changes, only Python and numpy. A
stretch that took `w` seconds while the kernel took `c` seconds per
repetition counts as `w * REF_S[mix] / c` reference seconds: the time it
would have taken on a machine where the kernel takes exactly `REF_S[mix]`.
A change to the package moves the stretch and not the kernel, so it moves
the reference time; a machine that runs everything slower moves both, and
the reference time stays.

The kernel comes in two mixes, after what a workload spends its time on:

- "dispatch": small SVDs and Tikhonov products one at a time (interpreter
  dispatch), a batched SVD, and a polynomial-times-Gaussian over a
  cache-sized array, as in the `estimate()` loops;
- "arrays": the same plus a polynomial over a 4 MB array whose temporaries
  are fresh memory each time, as in the harness's batched blocks.
"""

from time import perf_counter

import numpy as np

# seconds per repetition that define a reference second; fixed, so that figures
# of different runs and commits compare
REF_S = {"dispatch": 2.4e-3, "arrays": 3.0e-3}
REPS = 8  # repetitions per sample: about 20 to 25 ms

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.standard_normal((16, 20, 5))
_BATCH = _RNG.standard_normal((200, 20, 5))
_VEC = _RNG.standard_normal(20000)
_BIG = _RNG.standard_normal(500_000)


def kernel(mix):
    acc = 0.0
    for m in _SMALL:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        acc += float(((vt.T * (s / (s * s + 0.1))) @ u.T).sum())
        acc += sum(i * 0.5 for i in range(40))
    acc += float(np.linalg.svd(_BATCH, compute_uv=False).sum())
    v = _VEC
    acc += float((((v * v - 3.0) * v + 1.0) * np.exp(-0.5 * v * v)).sum())
    if mix == "arrays":
        b = _BIG
        acc += float(((b * b - 3.0) * b).sum())
    return acc


def sample(mix, reps=REPS):
    """Seconds per kernel repetition, right now."""
    t0 = perf_counter()
    for _ in range(reps):
        kernel(mix)
    return (perf_counter() - t0) / reps


def factor(mix, before, after):
    """Reference seconds per measured second for a stretch between two
    samples."""
    return REF_S[mix] / (0.5 * (before + after))


class Bracketed:
    """Times consecutive stretches, each between two calibration samples:
    `mark()` closes the current stretch, samples the speed, and returns the
    stretch's measured seconds and its factor. The samples themselves are
    outside every stretch; `skip()` leaves out the time since the last
    mark, for work between stretches that is not measured."""

    def __init__(self, mix):
        self.mix = mix
        kernel(mix)  # the first repetition in a process runs slow
        self.last = sample(mix)
        self.samples = [self.last]
        self.t0 = perf_counter()

    def mark(self):
        wall = perf_counter() - self.t0
        now = sample(self.mix)
        self.samples.append(now)
        f = factor(self.mix, self.last, now)
        self.last = now
        self.t0 = perf_counter()
        return wall, f

    def skip(self):
        self.t0 = perf_counter()
