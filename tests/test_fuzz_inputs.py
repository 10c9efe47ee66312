"""Fuzzed detections JSON through ``fuse`` and ``eval``, in process.

Each example mutates the entries of a valid one-image document: it drops or
adds keys, puts wrong types, bools or integers too large for a float where
numbers belong, changes list lengths, or moves the box off its extremes.
Whatever the input, a command exits 0 or 3, never 4; a refusal names the
entry at fault by its ``images[...]`` path and leaves no output behind.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recistkit.cli import main
from recistkit.targets import KEYPOINT_CHANNELS

KEY = "syn_11"


def valid_entry(x: float, y: float, w: float, h: float, score: float) -> dict:
    cx, cy = x + w / 2, y + h / 2
    return {
        "bbox": [x, y, x + w, y + h],
        "extremes": {"top": [cx, y], "left": [x, cy], "bottom": [cx, y + h],
                     "right": [x + w, cy], "center": [cx, cy]},
        "score": score,
        "source": "original",
    }


coordinates = st.floats(0, 760).map(lambda v: round(v * 16) / 16)

valid_entries = st.builds(
    valid_entry, coordinates, coordinates,
    st.floats(1, 100).map(lambda v: round(v * 16) / 16),
    st.floats(1, 100).map(lambda v: round(v * 16) / 16),
    st.floats(0.001, 6.0),
)

wrong_values = st.one_of(
    st.sampled_from([10**400, -(10**400), 10**309, 2**1024]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False),  # JSON has no inf
    st.lists(st.integers(0, 9), max_size=3),
    st.just({}),
)


def _slots(entry: dict) -> list:
    """(container, key) of every value in one entry, nested ones included."""
    out = [(entry, k) for k in entry]
    for value in (entry.get("bbox"), entry.get("extremes")):
        if isinstance(value, dict):
            out += [(value, role) for role in value]
            value = [pair for pair in value.values() if isinstance(pair, list)]
            out += [(pair, i) for pair in value for i in range(len(pair))]
        elif isinstance(value, list):
            out += [(value, i) for i in range(len(value))]
    return out


@st.composite
def mutated_documents(draw) -> dict:
    entries = draw(st.lists(valid_entries, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 2))):
        entry = draw(st.sampled_from(entries))
        kind = draw(st.sampled_from(
            ["drop", "add", "replace", "replace", "length", "off box"]
        ))
        where, key = draw(st.sampled_from(_slots(entry)))
        if kind == "drop":
            del where[key]
        elif kind == "add":
            target = where if isinstance(where, dict) else entry
            name = draw(st.sampled_from(["extra", *KEYPOINT_CHANNELS]))
            target[name] = draw(wrong_values)
        elif kind == "replace":
            where[key] = draw(wrong_values)
        elif kind == "length":
            target = where if isinstance(where, list) else where[key]
            if isinstance(target, list):
                if target and draw(st.booleans()):
                    target.pop()
                else:
                    target.append(draw(coordinates))
        elif isinstance(entry.get("bbox"), list) and entry["bbox"]:
            i = draw(st.integers(0, len(entry["bbox"]) - 1))
            if type(entry["bbox"][i]) in (int, float):
                shifted = entry["bbox"][i] + draw(st.sampled_from([0.5, -3.0, 1e308]))
                if math.isfinite(shifted):
                    entry["bbox"][i] = shifted
    return {"config": None, "images": {KEY: entries}}


@pytest.fixture(scope="module")
def annotations(tmp_path_factory) -> Path:
    sim = tmp_path_factory.mktemp("fuzz") / "sim"
    assert main(["simulate", "--out", str(sim), "--scene-seed", "11"]) == 0
    return sim / "annotations.csv"


def run_quietly(argv: list) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@settings(max_examples=120)
@given(doc=mutated_documents())
def test_mutated_detections_exit_0_or_3(annotations, doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dets = tmp / "dets.json"
        dets.write_text(json.dumps(doc))
        commands = {
            "fused.json": ["fuse", "--original", dets, "--flipped", dets,
                           "--image-width", 768, "--out", tmp / "fused.json"],
            "report": ["eval", "--detections", dets, "--annotations",
                       annotations, "--out", tmp / "report"],
        }
        for out, argv in commands.items():
            code, err = run_quietly(argv)
            assert code in (0, 3), err
            written = sorted(p.name for p in tmp.glob(f"{out}*"))
            if code == 3:
                assert f"images[{KEY!r}][" in err, err
                assert written == [], written
            else:
                assert written, argv
