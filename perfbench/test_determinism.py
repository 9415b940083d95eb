#!/usr/bin/env python3
"""Determinism test of the benchmark: the seed alone fixes the op sequence.

    python3 perfbench/test_determinism.py      # about 4 minutes once built

For every workload, two runs at the same seed must report identical `auc`
(untraced run) and identical per-layer counts (traced run):
core.contrast_evals, core.levels, core.failed_shard_evals and the engine
cache counters. The two runs last different times, so they execute
different numbers of ops; a value that depended on timing would differ. A
run at another seed must change the values, which proves the seed reaches
the generated data.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED_VALUES = {
    0: ("auc",),
    1: ("core.contrast_evals", "core.levels", "core.failed_shard_evals",
        "engine.cache_hit_rate", "engine.evicted_per_op",
        "engine.invalidated_kb_per_op", "engine.cache_mb"),
}


# Long enough for each workload to run more ops than its 1-second run,
# which stops after the deterministic prefix.
LONG_SECONDS = {"fit_lof": 15, "serve_lof": 2, "stream_grid": 3}


def seeded_values(workload, seed, seconds=1):
    """The values a run at `seed` must reproduce exactly, by name."""
    values = {}
    for trace, names in SEED_VALUES.items():
        run = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert result["correct"], result
        for name in names:
            values[name] = result["metrics"][name]["value"]
    return values


class SeedDeterminism(unittest.TestCase):
    def check(self, workload):
        first = seeded_values(workload, 1)
        self.assertEqual(first,
                         seeded_values(workload, 1, LONG_SECONDS[workload]))
        other = seeded_values(workload, 2)
        self.assertNotEqual(first["auc"], other["auc"])
        self.assertNotEqual(first, other)

    def test_fit_lof(self):
        self.check("fit_lof")

    def test_serve_lof(self):
        self.check("serve_lof")

    def test_stream_grid(self):
        self.check("stream_grid")


if __name__ == "__main__":
    unittest.main()
