"""Every file a stage reads, mutated: the stage exits 0, 2 or 3 through
``cli.main`` and never raises, and an exit 2 names the mutated file.

One tiny pipeline (2 runs of 150 s, B = 10) is built once per session. Each
example copies the files one stage reads into a fresh workdir, mutates one
of them and runs the stage there.
"""

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforest import cli

CONFIG = {"sim": {"duration": 150.0, "runs": 2}, "xmurf": {"b_trees": 10}, "classify": {"b_trees": 10, "ratio": 0.75}}
MATRIX = ["proximity.raw", "proximity.raw.json"]
# stage argv -> the files it reads besides the config
READS = {
    ("extract",): ["trace_0.raw", "trace_0.meta.json"],
    ("cluster",): ["scenarios.csv"],
    ("order",): MATRIX,
    ("label", "--ranges", "ranges.json"): ["scenarios.csv", "permutation.json", "ranges.json", *MATRIX],
    ("train",): ["labeled.csv"],
    ("classify",): ["model.json", "scenarios.csv"],
}
CASES = [(stage, name) for stage, names in READS.items() for name in names] + [(("classify",), "config.json")]
TOKENS = [b"1e999", b"NaN", b"-1", b"null", b"[]"]
SWAPS = [b"99999999999999999999", b"-0.0", b"Infinity"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def run(argv) -> tuple:
    """(exit code, stderr) of one ``cli.main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="session")
def tiny_workdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mutation")
    (out / "config.json").write_text(json.dumps(CONFIG))
    base = ["--config", str(out / "config.json"), "--seed", "11", "--out", str(out)]
    for stage in ("simulate", "extract", "cluster", "order"):
        assert run(base + [stage])[0] == 0, stage
    m = len(json.loads((out / "permutation.json").read_text()))
    halves = [{"start": 0, "end": m // 2, "label": "A"}, {"start": m // 2 + 1, "end": m - 1, "label": "B"}]
    (out / "ranges.json").write_text(json.dumps(halves))
    for stage in (["label", "--ranges", str(out / "ranges.json")], ["train"], ["classify"]):
        assert run(base + stage)[0] == 0, stage
    return out


@st.composite
def mutation(draw, data: bytes) -> bytes:
    """``data`` truncated, with a byte flipped, a token inserted, a span
    deleted or duplicated, or a number swapped for another."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "delete", "duplicate", "swap"]))
    at = draw(st.integers(0, len(data)))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if kind == "insert":
        return data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]
    end = draw(st.integers(at, min(len(data), at + 64)))
    if kind == "delete":
        return data[:at] + data[end:]
    if kind == "duplicate":
        return data[:end] + data[at:end] + data[end:]
    numbers = list(NUMBER.finditer(data))
    if not numbers:
        return data
    number = draw(st.sampled_from(numbers))
    return data[: number.start()] + draw(st.sampled_from(SWAPS)) + data[number.end() :]


@pytest.mark.parametrize("stage, name", CASES, ids=[f"{stage[0]}-{name}" for stage, name in CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stage_survives_a_mutated_input(tiny_workdir, stage, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for read in {"config.json", *READS[stage]}:
            shutil.copyfile(tiny_workdir / read, work / read)
        target = work / name
        target.write_bytes(data.draw(mutation(target.read_bytes()), label=name))
        argv = ["--config", str(work / "config.json"), "--seed", "11", "--out", str(work), stage[0]]
        argv += [str(work / arg) if arg.endswith(".json") else arg for arg in stage[1:]]
        code, err = run(argv)
        assert code in (0, 2, 3), err
        if code == 2:
            assert re.search(re.escape(str(target)) + "[: ]", err), err
