"""One measured workload run, in a fresh interpreter.

Usage: python3 child.py SPEC.json, with the program's ``src`` on
PYTHONPATH. The spec names the CLI stages to run; the child imports the
program, runs each stage through ``scenforest.cli.main`` in this process,
and writes its timings to the spec's ``result`` path, with the readings
of a speedometer that runs alongside. Between ``order`` and ``label`` it
plays the analyst (untimed). With ``trace`` set it wraps the program's
layer functions first (see tracer.py).
"""

import json
import math
import os
import resource
import signal
import sys
import time
import traceback


def analyst_ranges(dendrogram_path, k, min_block):
    """Ranges an analyst would pick: the contiguous seriated blocks of the
    dendrogram cut into ``k`` clusters, as in the acceptance fixture. Blocks
    smaller than ``min_block`` stay unlabeled, so that no class is too small
    to be out-of-bag in some tree."""
    from scenforest import ordering

    raw = json.loads(open(dendrogram_path).read())
    merges = [(m["left"], m["right"], m["height"], m["size"]) for m in raw["merges"]]
    dend = ordering.Dendrogram(merges=merges, n_leaves=raw["n_leaves"])
    labels = ordering.cut_clusters(dend, k)
    order = ordering.leaf_order(dend)
    ranges, start = [], 0
    for pos in range(1, len(order) + 1):
        if pos == len(order) or labels[order[pos]] != labels[order[start]]:
            if pos - start >= min_block:
                ranges.append({"start": start, "end": pos - 1, "label": f"c{labels[order[start]]}"})
            start = pos
    return ranges


class _Node:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, i):
        self.feature, self.threshold = i % 7, (i % 5) / 5.0
        self.left, self.right = 2 * i + 1, 2 * i + 2


_TREE = [_Node(i) for i in range(63)]


def _kernel(np):
    """A fixed mix of the program's kinds of inner-loop work: tree walks
    over node objects, float arithmetic, dict updates, small numpy calls
    and float formatting; about 1.5 ms on an idle machine."""
    x = np.linspace(0.0, 1.0, 7)
    total, cells, leaves = 0.0, {}, 0
    for i in range(600):
        n = 0
        while n < len(_TREE):
            node = _TREE[n]
            n = node.left if x[node.feature] <= node.threshold else node.right
        leaves += n
        v = float(x[i % 7]) * i
        cells[i & 255] = format(v, ".17g")
        total += math.sqrt(v + 1.0)
        if i % 20 == 0:
            x = np.sort(x * 0.999 + 0.001)
    return total + leaves


class Speedometer:
    """Times the fixed kernel every ``period`` seconds from a timer signal.

    Other tenants of the machine slow it down by up to 1.7 times, in
    phases of seconds to minutes. The kernel's time, read throughout every
    stage, lets the parent scale stage times to one reference speed.
    """

    def __init__(self, period):
        import numpy as np

        self.np, self.period = np, period
        self.samples = []  # (perf_counter at start, kernel seconds)

    def tick(self, *_):
        t0 = time.perf_counter()
        _kernel(self.np)
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _snapshot(out_dir):
    return {
        e.name: (e.stat().st_size, e.stat().st_mtime_ns)
        for e in os.scandir(out_dir)
        if e.is_file()
    }


def _run_stage(cli, argv):
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:
        return 1, traceback.format_exc()


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    from scenforest import cli

    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "stages": [], "trace": None}
    speed = Speedometer(spec["period"])
    speed.tick()
    speed.start()
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = spec.get("out")
    for stage in spec["stages"]:
        name = stage["name"]
        if name == "label" and spec.get("analyst"):
            analyst = spec["analyst"]
            ranges = analyst_ranges(os.path.join(out_dir, "dendrogram.json"), analyst["k"], analyst["min_block"])
            with open(analyst["ranges"], "w") as fh:
                json.dump(ranges, fh)
        before = _snapshot(out_dir)
        if tracer:
            tracer.stage = name
        t0 = time.perf_counter()
        rc, error = _run_stage(cli, stage["argv"])
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.stage = None
        after = _snapshot(out_dir)
        outputs = sorted(f for f, sig in after.items() if before.get(f) != sig)
        result["stages"].append(
            {"name": name, "rc": rc, "start": t0, "seconds": seconds, "outputs": outputs, "error": error}
        )
        if rc != 0:
            break
    speed.stop()
    speed.tick()
    result["speed"] = speed.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.to_json()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
