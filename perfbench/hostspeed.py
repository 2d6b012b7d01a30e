"""A fixed reference computation, timed between a run's soundings or
commands, so the run can give its times at one fixed host speed.

The benchmark runs on a shared host whose speed drifts: a pass of the
``cli`` workload took 35 s at the start of ten consecutive runs and 55 s
at the end, with every command slowed alike. This block mixes the kinds of
work the program does (an FFT, a matrix product, float text formatting and
parsing, a pure-Python loop) and slows with them. Timed alternately with
masounder soundings and CFR file I/O for 8 minutes on 2 vCPUs, the soundings'
median per 50-s window spread 0.23 (IQR / median) and their ratio to the
block's median 0.07.
"""

from __future__ import annotations

import statistics
import time

# The block's median time on the 2-vCPU host the benchmark was tuned on.
NOMINAL_S = 0.15

_inputs = None


def _block(np, signal, matrix) -> None:
    for _ in range(4):
        np.fft.ifft(signal, n=6000, axis=1)
        matrix @ matrix
        text = "\n".join(",".join(f"{x:.9g}" for x in row) for row in matrix[:60])
        [float(x) for x in text.replace("\n", ",").split(",")]
        sum(i * i for i in range(100_000))


def reference() -> float:
    """Run the reference block once; return its seconds. The first call
    also builds the inputs and runs the block once untimed, to warm up."""
    global _inputs
    if _inputs is None:
        # numpy is imported here, not at module import, so that the
        # benchmark's own imports do not shorten masounder's measured import.
        import numpy as np
        rng = np.random.default_rng(0)
        _inputs = (np, rng.standard_normal((64, 1500)) + 1j * rng.standard_normal((64, 1500)),
                   rng.standard_normal((300, 300)))
        _block(*_inputs)
    start = time.perf_counter()
    _block(*_inputs)
    return time.perf_counter() - start


def at_nominal_speed(samples) -> float:
    """Median over ``[seconds, reference seconds]`` samples of the seconds
    rescaled to the host speed at which a reference block takes NOMINAL_S."""
    return statistics.median(seconds * NOMINAL_S / ref for seconds, ref in samples)
