"""The detections record against the list-based code it replaced, bit for
bit, plus the record's own contract.

The oracles are the list-based ``soft_nms``, ``unflip_detections``,
``match_detections`` and ``read_detections`` (with its value checks) from
before ``Detections`` existed, copied without change except for their names
and the two row helpers they called, which are copied too. Outputs are
compared by ``float.hex`` of every coordinate and score, on hypothesis pools
with score ties, the same box from both views, decays that are exactly 0
(IoU 1 under the linear method, ``exp`` underflow at a tiny sigma), and
empty and one-element pools.
"""

import json
import math
import re
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recistkit import fusion
from recistkit.dataio import (
    InputFormatError,
    is_finite_number,
    load_json,
    read_detections,
    write_detections,
)
from recistkit.evaluation import EvalConfig, MatchResult, match_detections
from recistkit.fusion import SoftNmsConfig, fuse_tta, soft_nms, unflip_detections
from recistkit.geometry import pad_bbox, pairwise_iou
from recistkit.grouping import BOX_COLUMNS, Detection, Detections, detect
from recistkit.synthetic import generate_scene
from recistkit.targets import KEYPOINT_CHANNELS
from tests.test_detection_rows import noisy_views
from tests.test_fusion import box_of, match_bits, match_result, sub_record

# --- oracles: the list-based code ---------------------------------------------


def detections_to_rows(detections: Sequence[Detection]) -> np.ndarray:
    """(n, 10) float64 rows: (x, y) of top, left, bottom, right, center."""
    rows = np.array([d.row for d in detections], dtype=np.float64)
    return rows.reshape(len(detections), 10)


def detections_from_rows(
    rows: np.ndarray, scores: Sequence[float], sources: Sequence[str]
) -> list[Detection]:
    """Detections from :func:`detections_to_rows` rows, scores and sources,
    with Python floats."""
    scores = np.asarray(scores, dtype=np.float64).tolist()
    return list(map(Detection, map(tuple, rows.tolist()), scores, sources))


def oracle_unflip_detections(
    detections: Sequence[Detection], image_width: float
) -> list[Detection]:
    # left and right swap roles, and every x mirrors
    rows = detections_to_rows(detections)[:, [0, 1, 6, 7, 4, 5, 2, 3, 8, 9]]
    rows[:, 0::2] = image_width - 1.0 - rows[:, 0::2]
    return detections_from_rows(
        rows, [d.score for d in detections], ["flipped"] * len(rows)
    )


def oracle_soft_nms(
    detections: Sequence[Detection], cfg: SoftNmsConfig = SoftNmsConfig()
) -> list[Detection]:
    pool = [d for d in detections if d.score >= cfg.score_floor]
    rows = detections_to_rows(pool)
    is_original = np.array([d.source == "original" for d in pool], dtype=bool)
    # the tie order above, primary key last, so that argmax's first hit
    # below is the first live detection in that order
    order = np.lexsort((*rows[:, 7::-1].T, is_original, *rows[:, BOX_COLUMNS[::-1]].T))
    pool, rows = [pool[i] for i in order.tolist()], rows[order]
    boxes = rows[:, BOX_COLUMNS]
    overlap = pairwise_iou(boxes, boxes)
    if cfg.method == "gaussian":
        # math.exp, not np.exp, which is 1 ulp off on some inputs; a pair
        # without overlap keeps its exact factor of 1.0. The IoU matrix is
        # bit-symmetric and its diagonal is never read, so each pair's
        # factor is computed once, above the diagonal, and mirrored.
        decay = np.ones_like(overlap)
        hit = np.triu(overlap != 0.0, 1)
        pairs = overlap[hit]
        exponent = -(pairs * pairs) / cfg.sigma
        decay[hit] = list(map(math.exp, exponent.tolist()))
        decay.T[hit] = decay[hit]
    else:
        decay = np.where(overlap > cfg.linear_iou_threshold, 1.0 - overlap, 1.0)

    live = np.arange(len(pool))
    scores = np.array([d.score for d in pool], dtype=np.float64)
    kept, kept_scores = [], []
    while live.size:
        k = int(scores.argmax())
        kept.append(int(live[k]))
        kept_scores.append(scores[k])
        scores = scores * decay[live[k], live]
        keep = scores >= cfg.score_floor
        keep[k] = False
        live, scores = live[keep], scores[keep]
    return detections_from_rows(rows[kept], kept_scores, [pool[i].source for i in kept])


def oracle_match_detections(
    detections: Sequence[Detection],
    gt_boxes: Sequence[tuple[float, float, float, float]],
    iou_threshold: float = 0.5,
    pad: float = 5.0,
) -> MatchResult:
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    boxes = detections_to_rows(detections)[:, BOX_COLUMNS]
    # padded as pad_bbox pads: x1 - pad, y1 - pad, x2 + pad, y2 + pad
    padded = boxes + np.array([-pad, -pad, pad, pad])
    gts = np.array(gt_boxes, dtype=np.float64).reshape(-1, 4)
    ious = pairwise_iou(padded, gts)
    # only an overlap strictly above 0 can match, which also rules out NaN;
    # the last column, always 0, keeps argmax defined without ground truth
    overlap = np.zeros((len(detections), len(gt_boxes) + 1))
    np.copyto(overlap[:, :-1], ious, where=ious > 0.0)
    records = []
    best = None
    for i in order:
        if best is None:  # after each match: argmax is the scan's first maximum
            best, best_iou = overlap.argmax(axis=1).tolist(), overlap.max(axis=1).tolist()
        if best_iou[i] > 0.0 and best_iou[i] >= iou_threshold:
            overlap[:, best[i]] = 0.0  # every ground truth is matched at most once
            records.append((i, detections[i].score, best[i]))
            best = None
        else:
            records.append((i, detections[i].score, None))
    return match_result(records, len(gt_boxes))


_SOURCES = ("original", "flipped")


def _entry_values(entry, path: str) -> list:
    """The 15 values of one detections entry in file order (bbox, the
    extremes in row order, score), after checking only its shape."""
    if not isinstance(entry, dict):
        raise InputFormatError(f"{path}: expected an object")
    for key in ("bbox", "extremes", "score", "source"):
        if key not in entry:
            raise InputFormatError(f"{path}: missing field {key}")
    bbox = entry["bbox"]
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise InputFormatError(
            f"{path}.bbox: expected [x1, y1, x2, y2] with finite numbers"
        )
    ext = entry["extremes"]
    if not isinstance(ext, dict):
        raise InputFormatError(f"{path}.extremes: expected an object")
    values = bbox[:]
    for role in KEYPOINT_CHANNELS:
        if role not in ext:
            raise InputFormatError(f"{path}.extremes: missing {role}")
        pair = ext[role]
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputFormatError(
                f"{path}.extremes.{role}: expected [x, y] with finite numbers"
            )
        values += pair
    values.append(entry["score"])
    return values


def _value_error(values: list, source) -> str:
    """What is wrong with one entry's values and source, as a path suffix
    and message, or '' when nothing is."""
    if not all(map(is_finite_number, values[:4])):
        return ".bbox: expected [x1, y1, x2, y2] with finite numbers"
    for j, role in enumerate(KEYPOINT_CHANNELS):
        if not all(map(is_finite_number, values[4 + 2 * j : 6 + 2 * j])):
            return f".extremes.{role}: expected [x, y] with finite numbers"
    box = [float(values[4 + i]) for i in BOX_COLUMNS]
    if [float(v) for v in values[:4]] != box:
        return f".bbox: {values[:4]} is not the tight box of the extremes, {box}"
    if not is_finite_number(values[14]):
        return ".score: expected a finite number"
    if source not in _SOURCES:
        return ".source: expected 'original' or 'flipped'"
    return ""


def _checked_table(values: list, sources: list, where: str) -> np.ndarray:
    """(n, 15) float64 of the values of ``where``'s first n entries, checked
    at once; the first bad entry raises InputFormatError naming its path."""
    n = len(sources)
    ok = set(map(type, values)) <= {int, float}  # no bool, str, None, list
    if ok:
        try:
            table = np.array(values, dtype=np.float64).reshape(n, 15)
        except OverflowError:  # an int too large for a float
            ok = False
    ok = (
        ok
        and np.isfinite(table).all()
        and (table[:, :4] == table[:, 4:14][:, BOX_COLUMNS]).all()
        and sum(map(sources.count, _SOURCES)) == n
    )
    if not ok:
        for i in range(n):
            error = _value_error(values[15 * i : 15 * i + 15], sources[i])
            if error:
                raise InputFormatError(f"{where}[{i}]{error}")
    return table


def oracle_read_detections(path):
    doc = load_json(path)
    if not isinstance(doc, dict) or "images" not in doc:
        raise InputFormatError(f"{path}: missing top-level 'images' object")
    images = doc["images"]
    if not isinstance(images, dict):
        raise InputFormatError(f"{path}: 'images' must be an object")
    out: dict[str, list[Detection]] = {}
    for key, entries in images.items():
        where = f"{path}: images[{key!r}]"
        if not isinstance(entries, list):
            raise InputFormatError(f"{where}: expected a list")
        values: list = []
        sources: list = []
        for i, entry in enumerate(entries):
            try:
                values += _entry_values(entry, f"{where}[{i}]")
            except InputFormatError:
                _checked_table(values, sources, where)  # an earlier entry first
                raise
            sources.append(entry["source"])
        table = _checked_table(values, sources, where)
        out[key] = detections_from_rows(table[:, 4:14], table[:, 14], sources)
    return out, doc.get("config")


# --- comparison and inputs ----------------------------------------------------


def bits(dets) -> list:
    """Every coordinate and score as float.hex, with the source."""
    return [
        (tuple(float(v).hex() for v in d.row), float(d.score).hex(), d.source)
        for d in dets
    ]


# quarter-pixel lattice values, so that boxes and IoUs tie exactly
lattice = st.integers(0, 96).map(lambda v: v / 4)
fractions = st.sampled_from([0.0, 0.25, 0.5, 1.0])
score_values = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.25, 0.5, 1.0, 2.0]),  # ties and the floor
    st.floats(0.0, 6.0),
)


@st.composite
def single_detections(draw) -> Detection:
    x1, y1, w, h = draw(lattice), draw(lattice), draw(lattice), draw(lattice)
    x2, y2 = x1 + w, y1 + h
    tx, bx = (x1 + w * draw(fractions) for _ in range(2))
    ly, ry = (y1 + h * draw(fractions) for _ in range(2))
    row = (tx, y1, x1, ly, bx, y2, x2, ry, (x1 + x2) / 2, (y1 + y2) / 2)
    return Detection(row, draw(score_values), draw(st.sampled_from(_SOURCES)))


@st.composite
def pools(draw, max_size=24) -> list[Detection]:
    """Detections with repeats: the same box from the other view, with the
    same or another score."""
    dets = draw(st.lists(single_detections(), max_size=max_size))
    for i in draw(st.lists(st.integers(0, max(len(dets) - 1, 0)), max_size=6)):
        if dets:
            twin = dets[i]
            source = draw(st.sampled_from(_SOURCES))
            score = draw(st.one_of(st.just(twin.score), score_values))
            dets.append(Detection(twin.row, score, source))
    return draw(st.permutations(dets))


CONFIGS = [
    SoftNmsConfig(),
    SoftNmsConfig(method="linear"),  # IoU 1 decays to exactly 0
    SoftNmsConfig(method="linear", linear_iou_threshold=0.0, score_floor=0.0),
    SoftNmsConfig(score_floor=0.0),
    SoftNmsConfig(sigma=1e-300),  # exp underflows to exactly 0
    SoftNmsConfig(sigma=1e-300, score_floor=0.0),
]


@pytest.fixture(scope="module")
def noisy_image():
    scene = generate_scene(3, image_size=(768, 768), seed=10)
    original, flipped = (detect(b) for b in noisy_views(10))
    return scene, original, flipped


# --- oracle tests -------------------------------------------------------------


class TestSoftNmsOracle:
    @settings(max_examples=100)
    @given(pool=pools(), cfg=st.sampled_from(CONFIGS))
    def test_list_and_record_bitwise(self, pool, cfg):
        expected = bits(oracle_soft_nms(pool, cfg))
        assert bits(soft_nms(Detections.of(pool), cfg)) == expected

    @settings(max_examples=60)
    @given(original=pools(12), flipped=pools(12), cfg=st.sampled_from(CONFIGS),
           width=st.sampled_from([97.0, 128.0, 768.0]))
    def test_fuse_tta_bitwise(self, original, flipped, cfg, width):
        expected = oracle_soft_nms(
            original + oracle_unflip_detections(flipped, width), cfg
        )
        fused = fuse_tta(Detections.of(original), Detections.of(flipped), width, cfg)
        assert isinstance(fused, Detections)
        assert bits(fused) == bits(expected)
        assert bits(unflip_detections(Detections.of(flipped), width)) == bits(
            oracle_unflip_detections(flipped, width)
        )

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_empty_and_one_element_pools(self, cfg):
        one = Detection((1.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0), 0.0, "flipped")
        empty = Detections.of([])
        for pool in ([], [one], [one, one]):
            record, expected = Detections.of(pool), bits(oracle_soft_nms(pool, cfg))
            assert bits(soft_nms(record, cfg)) == expected
            assert bits(fuse_tta(record, empty, 8.0, cfg)) == expected

    def test_noisy_pool_bitwise(self, noisy_image):
        _, original, flipped = noisy_image
        pool = list(original) + oracle_unflip_detections(flipped, 768)
        assert len(pool) >= 150
        for cfg in CONFIGS:
            expected = bits(oracle_soft_nms(pool, cfg))
            assert bits(soft_nms(Detections.of(pool), cfg)) == expected
            assert bits(fuse_tta(original, flipped, 768, cfg)) == expected


class TestMatchOracle:
    @settings(max_examples=100)
    @given(
        pool=pools(),
        gt=st.lists(single_detections(), max_size=5),
        iou_threshold=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        pad=st.sampled_from([0.0, 5.0]),
    )
    def test_list_and_record_bitwise(self, pool, gt, iou_threshold, pad):
        # ground truth boxes are padded detection boxes, so some match exactly
        boxes = [pad_bbox(box_of(d), pad) for d in gt + pool[:2]]
        expected = match_bits(oracle_match_detections(pool, boxes, iou_threshold, pad))
        cfg = EvalConfig(iou_threshold=iou_threshold, pad=pad)
        assert match_bits(match_detections(Detections.of(pool), boxes, cfg)) == expected

    def test_noisy_image(self, noisy_image):
        scene, original, flipped = noisy_image
        fused = fuse_tta(original, flipped, 768)
        boxes = [ann.bbox for ann in scene.annotations]
        result = match_detections(fused, boxes)
        assert sum(r.is_tp for r in result.records) >= 1
        assert match_bits(result) == match_bits(
            oracle_match_detections(list(fused), boxes)
        )


def valid_document(pool: list[Detection]) -> dict:
    return {
        "config": None,
        "images": {
            "k": [
                {
                    "bbox": [d.row[i] for i in BOX_COLUMNS],
                    "extremes": {
                        role: list(d.row[2 * i : 2 * i + 2])
                        for i, role in enumerate(KEYPOINT_CHANNELS)
                    },
                    "score": d.score,
                    "source": d.source,
                }
                for d in pool
            ],
        },
    }


wrong_values = st.one_of(
    st.sampled_from([10**400, 10**309, True, False, None, "1.5", [], {}, [1.0]]),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def mutated_documents(draw) -> dict:
    """A valid one-image document with zero to three entries changed."""
    doc = valid_document(draw(pools(8)))
    entries = doc["images"]["k"]
    for _ in range(draw(st.integers(0, 3)) if entries else 0):
        i = draw(st.integers(0, len(entries) - 1))
        entry = entries[i]
        kind = draw(st.sampled_from(["entry", "field", "drop", "role", "value", "length"]))
        if kind == "entry":
            entries[i] = draw(wrong_values)
        elif not isinstance(entry, dict):
            continue
        elif kind == "field":
            entry[draw(st.sampled_from(sorted(entry)))] = draw(wrong_values)
        elif kind == "drop" and entry:
            del entry[draw(st.sampled_from(sorted(entry)))]
        elif kind in ("role", "value", "length") and isinstance(
            entry.get("extremes"), dict
        ) and isinstance(entry.get("bbox"), list):
            role = draw(st.sampled_from(KEYPOINT_CHANNELS))
            target = entry["bbox"] if draw(st.booleans()) else entry["extremes"].get(role)
            if kind == "role":
                entry["extremes"].pop(role, None)
            elif not isinstance(target, list) or not target:
                continue
            elif kind == "length" and draw(st.booleans()):
                target.append(1.0)
            elif kind == "length":
                target.pop()
            else:
                target[draw(st.integers(0, len(target) - 1))] = draw(wrong_values)
    return doc


class TestReaderOracle:
    @settings(max_examples=150)
    @given(doc=mutated_documents())
    def test_same_values_or_same_error(self, doc, tmp_path_factory):
        path = tmp_path_factory.mktemp("doc") / "d.json"
        path.write_text(json.dumps(doc))
        try:
            expected = oracle_read_detections(path)
        except InputFormatError as exc:
            with pytest.raises(InputFormatError) as excinfo:
                read_detections(path)
            assert str(excinfo.value) == str(exc)
            return
        back, config = read_detections(path)
        assert config == expected[1]
        assert set(back) == set(expected[0])
        for key, dets in back.items():
            assert isinstance(dets, Detections)
            assert bits(dets) == bits(expected[0][key])

    @pytest.mark.parametrize(
        "source", [["flipped"], {"flipped": True}, None, 1, 0.5, True, "Original"]
    )
    def test_unknown_source(self, source, tmp_path):
        doc = valid_document(some_detections(3))
        doc["images"]["k"][1]["source"] = source
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        message = f"{path}: images['k'][1].source: expected 'original' or 'flipped'"
        for read in (read_detections, oracle_read_detections):
            with pytest.raises(InputFormatError) as excinfo:
                read(path)
            assert str(excinfo.value) == message


# --- the record's contract ----------------------------------------------------


def some_detections(n=4) -> list[Detection]:
    return [
        Detection(tuple(float(v + i) for v in (5, 0, 0, 5, 5, 10, 10, 5, 5, 5)),
                  1.0 / (i + 1), _SOURCES[i % 2])
        for i in range(n)
    ]


class TestRecordContract:
    def test_equals_records_and_never_lists(self):
        dets = some_detections()
        record = Detections.of(dets)
        assert record == Detections.of(list(dets))
        assert record != dets and dets != record
        assert record != Detections.of(dets[:-1])
        assert record != Detections.of(dets[::-1])
        assert record != tuple(dets)
        assert Detections.of([]) == Detections.of(()) and Detections.of([]) != []

    def test_equality_is_elementwise(self):
        rows, scores = np.zeros((2, 10)), np.array([1.0, 0.5])
        flipped = np.array([False, True])
        record = Detections(rows, scores, flipped)
        # -0.0 equals 0.0, as it does in a Detection
        assert record == Detections(-rows, scores, flipped)
        assert record != Detections(rows, scores, ~flipped)
        assert record != Detections(rows, scores[::-1], flipped)
        # NaN equals nothing, the same record included
        nan = Detections(rows, [math.nan, 0.5], flipped)
        assert nan != nan and nan != Detections(rows, [math.nan, 0.5], flipped)

    def test_sequence_of_views(self):
        dets = some_detections()
        record = Detections.of(dets)
        assert not isinstance(record, Sequence)
        assert len(record) == 4
        assert list(record) == dets
        assert all(type(d) is Detection for d in record)
        assert all(type(d.score) is float for d in record)
        assert all(type(v) is float for d in record for v in d.row)
        assert dets[2] in record
        with pytest.raises(TypeError):
            record[0]  # the arrays index, the record does not

    def test_joins_into_one_record(self):
        dets = some_detections()
        record = Detections.of(dets)
        for joined, expected in [
            (record + dets[:1], dets + dets[:1]),
            (dets[:1] + record, dets[:1] + dets),
            (record + sub_record(record, np.s_[::-1]), dets + dets[::-1]),
            (record + [], dets),
        ]:
            assert isinstance(joined, Detections)
            assert list(joined) == expected  # rows in order, each source kept
        with pytest.raises(ValueError, match=re.escape("[0].source")):
            record + [Detection(dets[0].row, 1.0, "bogus")]

    def test_repr_lists_the_detection_views(self):
        dets = some_detections(2)
        assert repr(Detections.of(dets)) == f"Detections({dets!r})"
        assert repr(Detections.of(dets)).startswith(
            "Detections([Detection(row=(5.0, 0.0, 0.0, 5.0, 5.0, 10.0, 10.0, "
            "5.0, 5.0, 5.0), score=1.0, source='original'), Detection(row=(6.0, "
        )
        assert repr(Detections.of([])) == "Detections([])"

    def test_read_only_and_unhashable(self):
        dets = some_detections()
        record = Detections.of(dets)
        with pytest.raises(TypeError):
            record[0] = dets[1]
        with pytest.raises(TypeError):
            hash(record)

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="differ in length"):
            Detections(np.zeros((2, 10)), [1.0], [False, False])

    @pytest.mark.parametrize("flipped", [["original"], ["flipped"], [1], [0.0]])
    def test_flags_must_be_bool(self, flipped):
        # numpy casts any non-empty string to True, so a source list passed
        # as the flags would otherwise read every row as flipped
        with pytest.raises(TypeError, match="flipped must be bool"):
            Detections(np.zeros((1, 10)), [1.0], flipped)

    @pytest.mark.parametrize("source", ["bogus", "Original", None])
    def test_of_refuses_an_unknown_source(self, source):
        dets = some_detections(3)
        dets[1] = Detection(dets[1].row, dets[1].score, source)
        message = f"[1].source: expected 'original' or 'flipped', got {source!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Detections.of(dets)

    def test_of_reads_an_iterator_once(self):
        dets = some_detections(3)
        assert Detections.of(d for d in dets) == Detections.of(dets)
        assert Detections.of(iter(dets)) == Detections.of(dets)
        assert len(Detections.of(d for d in ())) == 0

    def test_staged_pool_survives(self, noisy_image, tmp_path):
        # the benchmark's staged fusion pools a list of views with a record
        _, original, flipped = noisy_image
        assert isinstance(original, Detections)
        pooled = list(original) + unflip_detections(flipped, 768)
        assert isinstance(pooled, Detections)
        assert pooled == original + unflip_detections(flipped, 768)
        staged, one_call = tmp_path / "staged.json", tmp_path / "one_call.json"
        write_detections({"k": fusion.soft_nms(pooled)}, staged)
        write_detections({"k": fuse_tta(original, flipped, 768)}, one_call)
        assert staged.read_bytes() == one_call.read_bytes()

    def test_writer_round_trips_records(self, noisy_image, tmp_path):
        _, original, flipped = noisy_image
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        views = {"o": original, "f": flipped}
        write_detections(views, a, config={"k": 1})
        converted = {k: Detections.of(list(d)) for k, d in views.items()}
        write_detections(converted, b, config={"k": 1})
        assert a.read_bytes() == b.read_bytes()
        back, _ = read_detections(a)
        assert all(isinstance(d, Detections) for d in back.values())
        assert back == views
        assert bits(back["o"]) == bits(original)


class TestReaderNamesFirstBadEntry:
    """Each detections-JSON error path names the first bad entry, whether an
    earlier entry's fault is in its values and a later one's in its shape,
    or the other way round."""

    @staticmethod
    def read(tmp_path, *changes):
        doc = valid_document(some_detections(5))
        for i, change in changes:
            change(doc["images"]["k"][i])
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError) as excinfo:
            read_detections(path)
        return str(excinfo.value)

    @pytest.mark.parametrize("change,suffix", [
        (lambda e: e["bbox"].__setitem__(3, 99.0), ".bbox: "),
        (lambda e: e["bbox"].__setitem__(0, "5"), ".bbox: expected"),
        (lambda e: e["extremes"]["top"].__setitem__(1, None), ".extremes.top: "),
        (lambda e: e["extremes"].__setitem__("top", [1.0]), ".extremes.top: "),
        (lambda e: e.update(score=False), ".score: "),
        (lambda e: e.update(score=-(10**400)), ".score: "),
        (lambda e: e.update(source="Original"), ".source: "),
        (lambda e: e.update(source=None), ".source: "),
        (lambda e: e.update(source=["flipped"]), ".source: "),
        (lambda e: e.update(source={"flipped": 1}), ".source: "),
        (lambda e: e.update(source=2), ".source: "),
        (lambda e: e.update(score=True), ".score: "),
        (lambda e: e.update(score=10**400), ".score: "),
        (lambda e: e.update(score="0.5"), ".score: "),
        (lambda e: e.update(source="both"), ".source: "),
        (lambda e: e["bbox"].__setitem__(2, 5.5), ".bbox: "),
        (lambda e: e["bbox"].__setitem__(0, None), ".bbox: "),
        (lambda e: e["bbox"].pop(), ".bbox: "),
        (lambda e: e["extremes"]["left"].__setitem__(1, [3.0]), ".extremes.left: "),
        (lambda e: e["extremes"]["right"].__setitem__(0, -(10**309)),
         ".extremes.right: "),
        (lambda e: e["extremes"].pop("center"), ".extremes: missing center"),
        (lambda e: e.pop("extremes"), ": missing field extremes"),
    ])
    @pytest.mark.parametrize("later", [
        lambda e: e.pop("bbox"),  # a shape fault
        lambda e: e.update(score=True),  # a value fault
    ])
    def test_first_bad_entry(self, tmp_path, change, suffix, later):
        message = self.read(tmp_path, (2, change), (4, later))
        prefix = f"{tmp_path / 'd.json'}: images['k'][2]{suffix}"
        assert message.startswith(prefix), message

    def test_entry_that_is_not_an_object(self, tmp_path):
        doc = valid_document(some_detections(5))
        doc["images"]["k"][3] = [1.0]
        doc["images"]["k"][4]["score"] = True
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError) as excinfo:
            read_detections(path)
        assert str(excinfo.value) == f"{path}: images['k'][3]: expected an object"
