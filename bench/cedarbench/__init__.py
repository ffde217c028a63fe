"""The front-door benchmark's library; ``bench/run.py`` is the command."""

import os

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
#: Everything a run writes — results, traces, server logs, temp sockets.
OUT_DIR = os.path.join(BENCH_DIR, "out")
