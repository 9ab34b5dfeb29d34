"""Machine-speed indicator for the traced pass.

The shared 2-core box this benchmark was built on changes speed by 20-60%
over minutes with other tenants' load, and numpy-heavy code drifts
differently from pure-Python code.  Before each untraced invocation of a
traced run, the harness times a fixed kernel that belongs to the benchmark,
never to the program.  The kernel is shaped like the stepping code:
complex arithmetic, node shifts and component stacking, once on rows of
16385 nodes and once on rows of 257 nodes, where per-call overhead
dominates.  Its median is reported as `calibration_s`, so two BENCH files
can be read with the machine's state in mind.

The kernel time is reported, but the wall times are not divided by it.
Divided wall times were tried.  Over six `blowup_ladder` runs their spread
was 4.0%, against 3.3% for the raw times, and on a dim-3 sweep the divided
median moved 14% within 15 minutes.  The kernel and the program do not slow
down together closely enough.
"""

import time

import numpy as np


def _kernel(u: np.ndarray, a: np.ndarray, reps: int) -> float:
    for _ in range(reps):
        den = 1.0 - 0.5e-4j * (a[0] + a[1])
        w = np.zeros_like(u)
        w[..., 1:] = u[..., :-1]
        rot = np.stack([-w[1], w[0]])
        u = (w + 1e-4j * a[2] * rot) / den
    return float((np.abs(u) ** 2).sum())


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = []
        for nodes, reps in ((16385, 25), (257, 500)):
            u = rng.random((2, nodes)) + 1j * rng.random((2, nodes))
            self.rows.append((u, rng.random((3, nodes)), reps))

    def measure(self) -> float:
        """Seconds for one pass of the kernel over both row sizes."""
        t0 = time.perf_counter()
        for u, a, reps in self.rows:
            _kernel(u, a, reps)
        return time.perf_counter() - t0
