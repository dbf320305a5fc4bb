"""A fixed unit of work that measures how fast the host runs right now.

On the 2-vCPU virtual machine this benchmark was built on, the host's speed
switches between levels about 1.7x apart for seconds to minutes at a time,
with no steal and CPU time equal to wall time. Job times switch with it,
while their ratio to this unit, timed next to them, stays within a few
percent. Times are therefore reported at a reference speed: wall time x
REFERENCE_S / (time of this unit measured next to the job). The unit mixes
what the program spends its time on: interpreted loops over dicts and
floats, and numpy calls on 3x3 arrays.
"""

import time

import numpy as np

REFERENCE_S = 1e-3      # the reference speed is the one at which unit() takes 1 ms

_A = np.array([[1.2, 0.3, -0.1], [0.2, 0.9, 0.4], [-0.3, 0.1, 1.1]])
_V = np.array([0.5, -0.2, 0.7])


def unit():
    """Run the unit once; return its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    table = {}
    for k in range(2000):
        table[k & 63] = s
        s += (k * 0.5) % 7
    for _ in range(100):
        s += float(np.linalg.det(_A)) + float((_A @ _V)[0])
    return time.perf_counter() - t0
