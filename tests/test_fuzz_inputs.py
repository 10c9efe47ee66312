"""Fuzzed detections JSON through ``fuse`` and ``eval``, and fuzzed ``.rkhm``
bundles through ``detect``, in process.

Each detections example mutates the entries of a valid one-image document:
it drops or adds keys, puts wrong types, bools or integers too large for a
float where numbers belong, changes list lengths, or moves the box off its
extremes. Whatever the input, a command exits 0 or 3, never 4; a refusal
names the entry at fault by its ``images[...]`` path and leaves no output
behind.

Each ``.rkhm`` example writes a small valid bundle's bytes, then mutates
one header field, the header line, the magic or the payload bytes. ``detect``
exits 0, 2 or 3, never 4; it raises no warning; a refusal names the file
and leaves no output or ``*.tmp`` behind; and a bundle it accepts reads and
writes back to the same bytes.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recistkit.cli import main
from recistkit.dataio import (
    CHANNEL_NAMES,
    HEADER_INTS,
    HEATMAP_MAGIC,
    MAX_HEADER_INT,
    read_heatmaps,
    write_heatmaps,
)
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


# --- .rkhm bundles through detect -------------------------------------------------

# float32 values a bundle may hold: peaks, ties at tau 0.1, signed zeros, a
# subnormal and the extremes of the finite range
PLANE_VALUES = np.array(
    [0.0, -0.0, 0.05, 0.1, 0.5, 0.75, 1.0, 2.0, 1e-45, 3.4e38, -3.4e38],
    dtype="<f4",
)

wrong_header_values = st.one_of(
    st.sampled_from(
        [0, -1, 2**31, 10**400, 1.0, 4.5, True, False, None, "4", [], {},
         MAX_HEADER_INT]
    ),
    st.integers(-(2**70), 2**70),
    st.text(max_size=3),
)


def bundle_bytes(header: dict, payload: bytes, magic=HEATMAP_MAGIC) -> bytes:
    """A file laid out as ``write_heatmaps`` lays one out."""
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return magic + line + b"\n" + payload


@st.composite
def rkhm_cases(draw) -> tuple[str, bytes]:
    """(what was mutated, the file's bytes); 'none' is a valid bundle."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    header = {
        "channel_names": list(CHANNEL_NAMES),
        "height": h,
        "input_height": draw(st.integers(1, 64)),
        "input_width": draw(st.integers(1, 64)),
        "stride": draw(st.sampled_from([1, 2, 4, 7, MAX_HEADER_INT])),
        "width": w,
    }
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    payload = rng.choice(PLANE_VALUES, len(CHANNEL_NAMES) * h * w).tobytes()
    kind = draw(st.sampled_from(
        ["none", "field", "field", "drop", "extra", "channels", "line",
         "magic", "truncate", "append", "overwrite"]
    ))
    if kind == "field":
        header[draw(st.sampled_from(HEADER_INTS))] = draw(wrong_header_values)
    elif kind == "drop":
        del header[draw(st.sampled_from(sorted(header)))]
    elif kind == "extra":
        header[draw(st.text(max_size=4))] = draw(wrong_header_values)
    elif kind == "channels":
        names = list(CHANNEL_NAMES)
        i = draw(st.integers(0, len(names) - 1))
        header["channel_names"] = draw(st.sampled_from(
            [names[:i], names[::-1], names[:i] + ["x"] + names[i + 1:], "top", None]
        ))
    elif kind == "line":
        line = draw(st.sampled_from(
            [b"[]", b"3", b'"h"', b"{", b'{"height": 2', b"\xff\xfe{}", b"", b"null"]
        ))
        return kind, HEATMAP_MAGIC + line + b"\n" + payload
    elif kind == "magic":
        size = len(HEATMAP_MAGIC)
        magic = draw(st.binary(min_size=size, max_size=size))
        return kind, bundle_bytes(header, payload, magic)
    elif kind == "truncate":
        whole = bundle_bytes(header, payload)
        return kind, whole[: draw(st.integers(0, len(whole) - 1))]
    elif kind == "append":
        payload += draw(st.binary(min_size=1, max_size=8))
    elif kind == "overwrite":
        at = 4 * draw(st.integers(0, len(payload) // 4 - 1))
        word = draw(st.binary(min_size=4, max_size=4))
        payload = payload[:at] + word + payload[at + 4 :]
    return kind, bundle_bytes(header, payload)


@pytest.fixture(scope="module")
def valid_bundle() -> bytes:
    """One valid 4 x 4 bundle with a lesion's worth of peaks."""
    planes = np.zeros((len(CHANNEL_NAMES), 4, 4), dtype="<f4")
    planes[:5, 1:3, 1:3] = 0.5
    header = {"channel_names": list(CHANNEL_NAMES), "height": 4, "width": 4,
              "stride": 4, "input_width": 16, "input_height": 16}
    return bundle_bytes(header, planes.tobytes())


@settings(max_examples=200)
@given(case=rkhm_cases())
def test_fuzzed_rkhm_detect_exits_0_2_or_3(valid_bundle, case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "maps").mkdir()
        (tmp / "maps" / "a.rkhm").write_bytes(valid_bundle)
        (tmp / "maps" / "b.rkhm").write_bytes(data)
        out = tmp / "dets.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run_quietly(
                ["detect", "--heatmaps", tmp / "maps", "--out", out, "--workers", 1]
            )
        assert code in (0, 2, 3), err
        assert caught == [], [str(w.message) for w in caught]
        left = sorted(p.name for p in tmp.iterdir())
        if code:
            assert "b.rkhm" in err, err
            assert left == ["maps"], left
            assert kind != "none"
        else:
            assert left == ["dets.json", "maps"], left
            if kind in ("none", "overwrite"):
                # reading and writing again gives back the same bytes
                bundle = read_heatmaps(tmp / "maps" / "b.rkhm")
                write_heatmaps(bundle, tmp / "c.rkhm")
                assert (tmp / "c.rkhm").read_bytes() == data
