"""The template detections writer against the ``json.dump`` writer it
replaced, byte for byte, plus the reader's round trip and the writer's
refusals.

``oracle_write_detections`` is the previous ``write_detections`` with the
``write_json`` it called inlined, copied without other change.
"""

import json

import numpy as np
import pytest

from recistkit.dataio import (
    detection_to_dict,
    read_detections,
    write_detections,
)
from recistkit.grouping import Detection, Detections

# --- oracle: the json.dump writer ---------------------------------------------


def oracle_write_detections(detections_by_image, path, config=None) -> None:
    doc = {
        "config": dict(config) if config is not None else None,
        "images": {
            key: [detection_to_dict(d) for d in dets]
            for key, dets in detections_by_image.items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


# --- helpers ------------------------------------------------------------------

NESTED_CONFIG = {
    "grouping": {"k1": 40, "tau_c": 0.1, "center_interp": "nearest"},
    "eval": {"fp_targets": [0.5, 1.0, 2.0], "pad": 5.0},
    "notes": {"empty": {}, "list": [], "none": None, "text": "a\"b\\cé\n"},
}

SPECIAL_FLOATS = [
    -0.0, 0.0, 3.0, -768.0, 1e15, 1e16, -1e16, 1e-7, 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 123.456789012345678,
]


def random_document(rng) -> dict:
    doc = {}
    for i in range(int(rng.integers(0, 4))):
        n = int(rng.integers(0, 121))
        rows = rng.uniform(-50.0, 800.0, size=(n, 10))
        rows[:, ::3] = np.floor(rows[:, ::3] * 16) / 16  # lattice values too
        doc[f"img_{i}"] = [
            Detection(tuple(row), score, source)
            for row, score, source in zip(
                rows.tolist(),
                rng.uniform(0.0, 6.0, size=n).tolist(),
                rng.choice(["original", "flipped"], size=n).tolist(),
            )
        ]
    return doc


def assert_same_bytes(tmp_path, doc, config=None) -> bytes:
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    records = {key: Detections.of(dets) for key, dets in doc.items()}
    write_detections(records, new, config=config)
    oracle_write_detections(doc, old, config=config)
    assert new.read_bytes() == old.read_bytes()
    return new.read_bytes()


# --- tests --------------------------------------------------------------------


class TestWriterOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_documents(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        config = NESTED_CONFIG if seed % 2 else None
        assert_same_bytes(tmp_path, random_document(rng), config)

    def test_special_floats(self, tmp_path):
        values = SPECIAL_FLOATS
        dets = [
            Detection(tuple(np.roll(values, i)[:10].tolist()), values[i], "flipped")
            for i in range(len(values))
        ]
        text = assert_same_bytes(tmp_path, {"k": dets}).decode()
        for token in ("-0.0", "1e+16", "1e-07", "5e-324", "1.7976931348623157e+308"):
            assert token in text

    @pytest.mark.parametrize(
        "key", ['quote"d', "back\\slash", "café", "日本", "tab\tnl\n", ""]
    )
    def test_keys_that_need_escaping(self, tmp_path, key):
        det = Detection(tuple(float(v) for v in range(10)), 0.5, "original")
        assert_same_bytes(tmp_path, {key: [det], "plain": []})

    @pytest.mark.parametrize("config", [None, {}, NESTED_CONFIG])
    def test_config_echo(self, tmp_path, config):
        det = Detection(tuple(float(v) for v in range(10)), 0.5, "original")
        assert_same_bytes(tmp_path, {"k": [det]}, config)
        assert_same_bytes(tmp_path, {}, config)
        assert_same_bytes(tmp_path, {"k": []}, config)

    def test_integer_values_are_written_as_floats(self, tmp_path):
        path = tmp_path / "d.json"
        ints = Detections.of([Detection((0,) * 10, 1, "original")])
        write_detections({"k": ints}, path)
        entry = json.loads(path.read_text())["images"]["k"][0]
        assert entry["bbox"] == [0.0] * 4 and all(
            type(v) is float for v in entry["bbox"]
        )
        assert type(entry["score"]) is float


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_float_hex_round_trip(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        doc = random_document(rng)
        doc["special"] = [
            Detection(tuple(np.roll(SPECIAL_FLOATS, i)[:10].tolist()), v, "original")
            for i, v in enumerate(SPECIAL_FLOATS)
        ]
        path = tmp_path / "d.json"
        records = {key: Detections.of(dets) for key, dets in doc.items()}
        write_detections(records, path, config=NESTED_CONFIG)
        back, config = read_detections(path)
        assert config == json.loads(json.dumps(NESTED_CONFIG))

        def hexes(dets):
            return [
                ([v.hex() for v in d.row], d.score.hex(), d.source) for d in dets
            ]

        assert set(back) == set(doc)
        for key, dets in doc.items():
            assert hexes(back[key]) == hexes(dets)


class TestWriterRefusals:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["row", "score"])
    def test_non_finite_value(self, tmp_path, value, where):
        good = Detection(tuple(float(v) for v in range(10)), 0.5, "original")
        row = list(good.row)
        score = 0.5
        if where == "row":
            row[3] = value
        else:
            score = value
        path = tmp_path / "d.json"
        with pytest.raises(ValueError, match=r"images\['k'\]\[1\]: non-finite"):
            write_detections(
                {"k": Detections.of([good, Detection(tuple(row), score, "original")])},
                path,
            )
        assert not path.exists()

    @pytest.mark.parametrize("source", ["both", "", None, "bogus"])
    def test_unknown_source(self, tmp_path, source):
        # the writer takes records, whose bool flags hold only the two known
        # sources, so an unknown one is refused on its way into the record
        det = Detection(tuple(float(v) for v in range(10)), 0.5, source)
        path = tmp_path / "d.json"
        with pytest.raises(ValueError) as excinfo:
            write_detections({"k": Detections.of([det])}, path)
        assert str(excinfo.value) == (
            f"[0].source: expected 'original' or 'flipped', got {source!r}"
        )
        assert not path.exists()

    def test_non_finite_config_echo(self, tmp_path):
        path = tmp_path / "d.json"
        with pytest.raises(ValueError):
            write_detections({}, path, config={"soft_nms": {"sigma": float("nan")}})
        assert not path.exists()


class TestReaderPaths:
    """Integral numbers read back as floats. The reader's refusals, each
    naming the first bad entry, are tested in ``test_detections_record``."""

    def test_integral_values_read_as_floats(self, tmp_path):
        dets = [Detection(tuple(float(v) for v in range(10)), 0.5, "original")]
        path = tmp_path / "d.json"
        write_detections({"k": Detections.of(dets)}, path)
        doc = json.loads(path.read_text())
        doc["images"]["k"][0]["score"] = 2
        path.write_text(json.dumps(doc))
        back, _ = read_detections(path)
        [det] = back["k"]
        assert type(det.score) is float
