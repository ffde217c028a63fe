"""Make ``bench/cedarbench`` importable for the bench's own tests."""

import os
import sys

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "bench")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)
