"""Two checkouts' kernels in one interpreter, alternating round by round, so
that the drift of a shared machine falls on both sides alike.

    python bench/ab.py TREE_A TREE_B

It imports the ``src`` tree of each checkout (TREE_A and TREE_B are their
roots) and times two cases on both, in CPU seconds:
- ``sim``: ``sim.run_simulations`` over the benchmark's pinned config
  (``perfbench.workloads.PINNED_CONFIG``, 5 runs of 400 s) with its seed
  4242, streaming each run through ``sim.TraceWriter`` as the ``simulate``
  stage does (``bench/forest_kernels.py``'s ``sim_batch``);
- ``fit``: ``xmurf.fit`` at M = 1000, B = 10 on the rows of
  ``bench/forest_kernels.py``.

Each of ROUNDS rounds runs every case once on each side, the side that goes
first alternating from round to round, after one warm-up round. Per case and
side it prints the median CPU seconds, the quartiles and the minimum; then
the median over the rounds of B's CPU over A's in the same round (the two
run back to back, so the drift cancels), and the rounds in which B took
less CPU than A; then the sha256 of what each side made (the traces and
sidecars, or the forest as ``save_forest`` writes it), which must be equal.
It exits 1 when they differ. Like ``bench/forest_kernels.py``, its name
keeps it out of the tier-1 run.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "scenforest"
FIT_M, FIT_B = 1000, 10
ROUNDS = 16


def load(tree: Path) -> dict:
    """The modules of ``tree``'s package, imported afresh; sys.modules is
    left without any of the package's modules."""
    drop()
    sys.path.insert(0, str(tree / "src"))
    try:
        for name in ("cli", "sim", "xmurf", "dataset"):
            importlib.import_module(f"{PACKAGE}.{name}")
    finally:
        sys.path.remove(str(tree / "src"))
    if not Path(sys.modules[PACKAGE].__file__).is_relative_to(tree):
        raise RuntimeError(f"{PACKAGE} of {tree} resolved to {sys.modules[PACKAGE].__file__}")
    modules = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
    drop()
    return modules


def drop() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def activate(modules: dict) -> None:
    """Make ``modules`` the package that imports inside functions find."""
    drop()
    sys.modules.update(modules)


def sim_case(out: Path):
    """A function that runs the pinned 5-run batch of the active side into
    ``out`` and returns the sha256 of the traces and sidecars written."""
    from forest_kernels import sim_batch, trace_digest

    batch = sim_batch(out, 5)

    def run() -> str:
        batch()
        return trace_digest(out)
    return run


def fit_case(out: Path):
    """A function that fits the active side's M = 1000, B = 10 forest and
    returns the sha256 of its ``save_forest`` bytes."""
    from forest_kernels import FOREST_SEED, rows, sha256
    from scenforest import xmurf

    data = rows(FIT_M).base

    def run() -> str:
        xmurf.save_forest(xmurf.fit(data, FIT_B, FOREST_SEED), out / "forest.json")
        return sha256((out / "forest.json").read_bytes())
    return run


CASES = {"sim": sim_case, "fit": fit_case}


def summary(cpu: list) -> str:
    q1, q2, q3 = statistics.quantiles(cpu, n=4, method="inclusive")
    return f"CPU median {q2:.4f} s [{q1:.4f}, {q3:.4f}], min {min(cpu):.4f} s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT)]  # forest_kernels and perfbench
    trees = {"A": args.tree_a.resolve(), "B": args.tree_b.resolve()}
    modules = {side: load(tree) for side, tree in trees.items()}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for case in CASES:
            for side in trees:
                out = Path(tmp) / case / side
                out.mkdir(parents=True)
                activate(modules[side])
                runs[case, side] = CASES[case](out)
        cpu = {key: [] for key in runs}
        made = {}
        for r in range(1 + ROUNDS):  # the first is the warm-up
            for case in CASES:
                for side in ("A", "B") if r % 2 else ("B", "A"):
                    activate(modules[side])
                    start_cpu = time.process_time()
                    made[case, side] = runs[case, side]()
                    if r:
                        cpu[case, side].append(time.process_time() - start_cpu)
        for case in CASES:
            a, b = cpu[case, "A"], cpu[case, "B"]
            print(f"{case}: {ROUNDS} rounds")
            for side in trees:
                print(f"  {side} {trees[side]}: {summary(cpu[case, side])}")
            wins = sum(y < x for x, y in zip(a, b))
            ratio = statistics.median(y / x for x, y in zip(a, b))
            print(f"  B / A, median over the rounds {ratio:.3f}; B lower in {wins} of {len(a)}")
            same = made[case, "A"] == made[case, "B"]
            failed |= not same
            print(f"  sha256 A {made[case, 'A']}\n  sha256 B {made[case, 'B']} ({'equal' if same else 'DIFFERENT'})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
