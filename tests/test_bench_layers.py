"""bench/layers.py loads each tree as its own gmchan and times every layer and perfbench op on
each, alternating which tree goes first."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_harness_loads_each_tree_apart_and_times_every_cell_on_each():
    # a fresh interpreter: the loader drops gmchan from sys.modules
    code = """if True:
        import os, sys, tempfile
        import numpy as np
        root = sys.argv[1]
        sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "perfbench")]
        import layers
        import workloads as W

        order = layers._alternate(["A", "B"], enumerate("xyz"), lambda label, cell: label + cell)
        assert order == ({"A": ["Ax", "Ay", "Az"], "B": ["Bx", "By", "Bz"]}, [True, False, True])
        seen = []
        layers._alternate(["A", "B"], enumerate("xy"), lambda label, cell: seen.append(label))
        assert seen == ["A", "B", "B", "A"]

        trees = {label: layers._load(root) for label in ("A", "B")}
        (a, _), (b, _) = trees.values()
        assert a is not b and a.channels is not b.channels and "gmchan" not in sys.modules
        for gm, sampling in trees.values():
            assert gm.__file__.startswith(os.path.join(root, "src", "gmchan") + os.sep)
            assert sampling.KrausChannel is gm.KrausChannel
        del b.fileio._write_trajectory_table  # B now lacks one layer's function, and only B does
        layers.SIZES = (2,)
        out = layers._time_layers(trees, 0, 1)
        times = out["times"]
        assert set(times["A"]) - set(times["B"]) == {"evolve_table"}
        assert len(times["A"]) == len(out["forward"]) == 47
        assert all(cells == {"2": cells["2"]} and len(cells["2"]) == 1 and cells["2"][0] > 0
                   for per in times.values() for cells in per.values())

        with tempfile.TemporaryDirectory() as workdir:
            workload = W.make("certify", workdir)
            op = workload.cycle(np.random.default_rng([11, 1]), 1)[0]
            ops = layers._op_times(trees, W, workload, [op])
        for steps in ops.values():
            (kind, n, seconds, failed, forward), = steps
            assert kind.startswith(op.kind) and n == op.n and seconds > 0 and not failed and forward
        print("ok")
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
