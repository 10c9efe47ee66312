"""Fuzzed detections JSON through ``fuse`` and ``eval``, fuzzed ``.rkhm``
bundles through ``detect``, fuzzed annotation CSVs through ``render-targets``
and ``eval``, and fuzzed config files through ``detect`` and
``render-targets``, in process.

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
writes back to the same bytes, less a byte-order mark.

Each annotation CSV example mutates the rows of a simulated scene's CSV: a
number, a count of numbers, an integer column, a key, a row's length, the
header or a lesion's extent. Each config example sets one or two keys of a
valid config file to wrong types, out-of-range or boundary values, breaks
the file's root or text, or nests lists to a drawn depth. Either way a
command exits 0, 2 or 3, never 4; it raises no warning; a refusal leaves no
output or ``*.tmp`` behind; an accepted run writes only its outputs; and an
accepted CSV writes and reads back to the same annotations. Each annotation
example changes fields of simulated annotations: whatever
``write_annotations`` accepts reads back equal, and writing that again gives
the same bytes.

Every harness also draws whether its file starts with a UTF-8 byte-order
mark (a ``.rkhm`` bundle, its header line), which every text reader skips.
"""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recistkit.cli import main
from recistkit.config import DEFAULTS
from recistkit.dataio import (
    CHANNEL_NAMES,
    HEADER_INTS,
    HEATMAP_MAGIC,
    MAX_HEADER_INT,
    parse_annotations,
    read_heatmaps,
    write_annotations,
    write_heatmaps,
)
from recistkit.synthetic import generate_scene
from recistkit.targets import KEYPOINT_CHANNELS

KEY = "syn_11"
BOM = b"\xef\xbb\xbf"


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
@given(doc=mutated_documents(), bom=st.booleans())
def test_mutated_detections_exit_0_or_3(annotations, doc, bom):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dets = tmp / "dets.json"
        dets.write_bytes(BOM * bom + json.dumps(doc).encode())
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
            [b"[]", b"3", b'"h"', b"{", b'{"height": 2', b"\xff\xfe{}", b"", b"null",
             b"[" * 100_000]
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
@given(case=rkhm_cases(), bom=st.booleans())
def test_fuzzed_rkhm_detect_exits_0_2_or_3(valid_bundle, case, bom):
    kind, data = case
    start = len(HEATMAP_MAGIC)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "maps").mkdir()
        (tmp / "maps" / "a.rkhm").write_bytes(valid_bundle)
        (tmp / "maps" / "b.rkhm").write_bytes(
            data[:start] + BOM * bom + data[start:])
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


# --- annotation CSVs through render-targets and eval -------------------------------

NUMBER_COLUMNS = {  # column index: how many numbers it holds
    1: 8, 2: 4, 4: 2, 5: 3,
}
csv_numbers = st.one_of(
    st.sampled_from(
        ["nan", "NaN", "-nan", "inf", "-Infinity", "1" + "0" * 400, "1e308",
         "-1e308", "0", "-0.0", "5e-324", "", "x", "1_0", "0x10", " 3 "]
    ),
    st.floats(-100, 900).map(repr),
)
csv_ints = st.sampled_from(
    ["0", "1", "3", "4", "-1", "9", "", "x", "1.5", "1" * 30, " 2 ", "2e0"]
)
csv_keys = st.sampled_from(["syn_11", "other", "", "a/b", "../up", "..", ".", "x y"])


@st.composite
def mutated_csvs(draw, rows: list) -> tuple[str, list]:
    """(what was mutated, the rows of a CSV, header first)."""
    rows = copy.deepcopy(rows)
    kind = draw(st.sampled_from(
        ["none", "number", "number", "count", "int", "key", "short", "long",
         "header", "extent"]
    ))
    row = rows[draw(st.integers(1, len(rows) - 1))]
    if kind == "number" or kind == "count":
        column = draw(st.sampled_from(sorted(NUMBER_COLUMNS)))
        values = row[column].split(", ")
        at = draw(st.integers(0, len(values) - 1))
        if kind == "number":
            values[at] = draw(csv_numbers)
        elif draw(st.booleans()):
            del values[at]
        else:
            values.insert(at, draw(csv_numbers))
        row[column] = ", ".join(values)
    elif kind == "int":
        row[draw(st.sampled_from([3, 6]))] = draw(csv_ints)
    elif kind == "key":
        row[0] = draw(csv_keys)
    elif kind == "short":
        del row[draw(st.integers(1, len(row) - 1)):]
    elif kind == "long":
        row.append(draw(csv_numbers))
    elif kind == "header":
        at = draw(st.integers(0, len(rows[0]) - 1))
        rows[0][at] = draw(st.sampled_from(["", "file_name", rows[0][at - 1]]))
    elif kind == "extent":
        # scale the lesion about its first endpoint: flat, tiny, huge or mirrored
        numbers = [float(v) for v in row[1].split(", ")]
        factor = draw(st.sampled_from([0.0, 1e-9, 0.01, 5.0, 1e300, -1.0]))
        numbers = [numbers[i % 2] + factor * (v - numbers[i % 2])
                   for i, v in enumerate(numbers)]
        row[1] = ", ".join(repr(v) for v in numbers)
    return kind, rows


@pytest.fixture(scope="module")
def csv_rows(annotations) -> list:
    with annotations.open(newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def detections(annotations) -> Path:
    out = annotations.parent.parent / "dets.json"
    assert main(["detect", "--heatmaps", str(annotations.parent),
                 "--out", str(out), "--workers", "1"]) == 0
    return out


def run_checked(tmp: Path, argv: list, outputs: list[str]) -> int:
    """Run a command in ``tmp`` and check its exit code, warnings and files:
    on a refusal only ``inputs`` are left, else those and ``outputs``."""
    inputs = sorted(p.name for p in tmp.iterdir())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_quietly(argv)
    assert code in (0, 2, 3), err
    assert caught == [], [str(w.message) for w in caught]
    left = sorted(p.name for p in tmp.iterdir())
    expected = inputs if code else sorted(inputs + outputs)
    assert left == expected, (err, left)
    return code


@settings(max_examples=50)
@given(data=st.data())
def test_fuzzed_csv_render_targets_and_eval_exit_0_2_or_3(
    csv_rows, detections, data
):
    kind, rows = data.draw(mutated_csvs(csv_rows))
    encoding = data.draw(st.sampled_from(["utf-8", "utf-8-sig"]))  # -sig: a BOM
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in").mkdir()  # every command writes beside it, never into it
        path = tmp / "in" / "annotations.csv"
        with path.open("w", newline="", encoding=encoding) as fh:
            csv.writer(fh).writerows(rows)
        rendered = run_checked(tmp, [
            "render-targets", "--annotations", path, "--input-size", 768,
            "--out", tmp / "maps"], ["maps"])
        if rendered == 0:
            assert all(p.parent == tmp / "maps" for p in (tmp / "maps").rglob("*"))
            assert not list((tmp / "in").glob("*.rkhm"))
            parsed = parse_annotations(path).annotations
            write_annotations(parsed, tmp / "again.csv")
            assert parse_annotations(tmp / "again.csv").annotations == parsed
            (tmp / "again.csv").unlink()
        evaluated = run_checked(tmp, [
            "eval", "--detections", detections, "--annotations", path,
            "--stratify", "diameter", "--out", tmp / "report"],
            ["report.json", "report.txt"])
        if kind == "none":
            assert rendered == evaluated == 0


# --- annotations through write_annotations and back -------------------------------

# the writer's numbers are floats, plain or numpy, one in 16 not finite: a
# Python int keeps its own text (1, not 1.0), so only a float writes back to
# the same bytes
annotation_numbers = st.integers(0, 15).flatmap(
    lambda i: st.floats(allow_nan=False, allow_infinity=False) if i
    else st.sampled_from([math.nan, math.inf, -math.inf])
).flatmap(lambda v: st.sampled_from([v, np.float64(v)]))


def number_columns(n: int):
    """``n`` numbers, sometimes one fewer or one more, in a tuple or a list."""
    return st.sampled_from([n, n, n, n - 1, n + 1]).flatmap(
        lambda k: st.lists(annotation_numbers, min_size=k, max_size=k)
    ).flatmap(lambda v: st.sampled_from([tuple(v), v]))


ANNOTATION_FIELDS = {
    "file_name": st.sampled_from(
        ["k", " k", "k ", "k\n", "a,b", 'q"t', "x\ny", "x\rz", "", "é", "\t"]),
    "endpoints": number_columns(8),
    "bbox": number_columns(4),
    "lesion_type": st.sampled_from(
        [-1, 0, 3, 8, 2**70, True, 1.5, "3", np.int64(3)]),
    "diameters_px": number_columns(2),
    "spacing": number_columns(3),
    "split": st.sampled_from(["train", "val", "test", "foo", "1", ""]),
    "bbox_consistent": st.booleans(),
}
SCENE_ANNOTATIONS = generate_scene(3, seed=90).annotations


@st.composite
def changed_annotations(draw) -> list:
    """Simulated annotations, one or two fields of some replaced, or with
    the long and short diameters swapped."""
    anns = list(SCENE_ANNOTATIONS)
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(anns) - 1))
        name = draw(st.sampled_from([*ANNOTATION_FIELDS, "swap"]))
        if name == "swap":
            ends = anns[at].endpoints
            change = {"endpoints": ends[4:] + ends[:4]}
        else:
            change = {name: draw(ANNOTATION_FIELDS[name])}
        anns[at] = dataclasses.replace(anns[at], **change)
    return anns


def by_value(ann) -> list:
    """The fields of an annotation, a list as the tuple it reads back as."""
    values = (getattr(ann, f.name) for f in dataclasses.fields(ann))
    return [tuple(v) if isinstance(v, list) else v for v in values]


@settings(max_examples=200)
@given(anns=changed_annotations())
def test_what_write_annotations_accepts_reads_back_equal(anns):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "a.csv", Path(tmp) / "again.csv"
        try:
            write_annotations(anns, path)
        except ValueError as exc:
            assert str(exc).startswith("annotation "), exc
            assert not path.exists()
            return
        back = parse_annotations(path).annotations
        assert list(map(by_value, back)) == list(map(by_value, anns))
        write_annotations(back, again)
        assert again.read_bytes() == path.read_bytes()


# --- config files through detect and render-targets --------------------------------

wrong_config_values = st.one_of(
    st.sampled_from([True, None, "4", [], {}, [1], -1, 0, 0.5, 1e300, -1e300,
                     2**31, 2**63, 10**400, "<huge>"]),
    st.floats(-2, 2),
)
# Sizes are drawn from a set whose heatmap planes are small (at most 384 x 384
# cells) or far larger than any address space, so that numpy refuses them at
# once; a grid in between could really be allocated. ``kernel`` stays small
# so that each example stays quick: a whole-grid window on a noisy 768 px
# bundle takes seconds.
SAFE_VALUES = {
    ("render", "input_size"): [64, 511, 768, 2**31 - 1],
    ("render", "stride"): [2, 4, 8, 2**31 - 1],
    ("render", "sigma_divisor"): [3.0, 5e-324, 1e-300, 2.0**31 - 1, 1e10, 1e300],
    ("render", "min_overlap"): [1e-300, 0.3, 0.9999999],
    ("grouping", "kernel"): [1, 3, 5, 2],
    ("grouping", "k1"): [0, 1, 40, 2**31 - 1],
    ("grouping", "k2"): [0, 1, 100, 2**31 - 1],
    ("grouping", "center_interp"): ["nearest", "bilinear", "x"],
}
CONFIG_SLOTS = [(section, key) for section, keys in DEFAULTS.items()
                if isinstance(keys, dict) for key in keys]


@st.composite
def config_texts(draw) -> str:
    """A config file's text: one or two keys changed, or a broken root."""
    kind = draw(st.sampled_from(
        ["keys", "keys", "keys", "grid", "root", "text", "nest"]
    ))
    if kind == "nest":  # lists nested to either side of the parser's limit
        depth = draw(st.integers(1, 100_000))
        return "[" * depth + "]" * depth
    if kind == "root":
        doc = draw(st.sampled_from(
            [[], 3, "x", None, {"nope": {}}, {"render": 3}, {"render": {"x": 1}},
             {"window_presets": "x"}]
        ))
        return json.dumps(doc)
    if kind == "text":
        return draw(st.sampled_from(
            ["", "{", '{"render": {"stride": NaN}}', '{"render": {"stride": 4}} x',
             '{"render": {"stride": 1' + "0" * 4400 + "}}", "\ufeff{}"]
        ))
    doc = {}
    if kind == "grid":
        doc["render"] = {key: draw(st.sampled_from(SAFE_VALUES["render", key]))
                         for key in ("input_size", "stride")}
    for _ in range(draw(st.integers(1, 2))):
        section, key = draw(st.sampled_from(CONFIG_SLOTS))
        values = wrong_config_values
        if (section, key) in SAFE_VALUES:
            values = st.sampled_from(SAFE_VALUES[section, key])
        elif section == "render":
            values = st.sampled_from([0, -1, 2**31, 1.5, "4", None, True, 4])
        doc.setdefault(section, {})[key] = draw(values)
    text = json.dumps(doc)
    return text.replace('"<huge>"', "1" + "0" * 400)


@settings(max_examples=50)
@given(text=config_texts(), bom=st.booleans())
@example(text='{"render": {"input_size": 2147483647}}', bom=False)
@example(text='{"render": {"input_size": 768, "sigma_divisor": 1e300}}', bom=True)
def test_fuzzed_config_detect_and_render_targets_exit_0_2_or_3(
    annotations, text, bom
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "cfg.json"
        config.write_bytes(BOM * bom + text.encode())
        run_checked(tmp, [
            "detect", "--heatmaps", annotations.parent, "--config", config,
            "--workers", 1, "--out", tmp / "dets.json"], ["dets.json"])
        run_checked(tmp, [
            "render-targets", "--annotations", annotations, "--config", config,
            "--out", tmp / "maps"], ["maps"])
