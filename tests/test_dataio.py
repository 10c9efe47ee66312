"""File formats: CSV schema parsing with exclusions and consistency checks,
bit-exact heatmap round trips, detections JSON, and CT windowing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from recistkit.dataio import (
    InputFormatError,
    apply_ct_window,
    parse_annotations,
    read_detections,
    read_heatmaps,
    write_annotations,
    write_detections,
    write_heatmaps,
)
from recistkit.geometry import Point2
from recistkit.synthetic import generate_scene, simulate_heatmaps
from recistkit.targets import HeatmapBundle
from tests.test_fusion import make_detection

CSV_HEADER = (
    "File_name,Measurement_coordinates,Bounding_boxes,Coarse_lesion_type,"
    "Lesion_diameters_Pixel_,Spacing_mm_px_,Train_Val_Test\n"
)


def csv_row(
    key="p1_01_01_109",
    coords="12, 31, 47, 29, 30, 10, 30, 50",
    bbox="7, 5, 52, 55",
    lesion_type=3,
    diam="35.1, 40.0",
    spacing="0.8, 0.8, 2.5",
    split=1,
):
    return f'{key},"{coords}","{bbox}",{lesion_type},"{diam}","{spacing}",{split}\n'


def write_csv(path, rows):
    path.write_text(CSV_HEADER + "".join(rows), encoding="utf-8")


class TestParseAnnotations:
    def test_long_short_assigned_by_length_not_column_order(self, tmp_path):
        # second segment (30,10)-(30,50) has length 40 vs ~35.06: it is long
        path = tmp_path / "a.csv"
        write_csv(path, [csv_row()])
        ann = parse_annotations(path).annotations[0]
        assert (ann.diameters.long_a.x, ann.diameters.long_a.y) == (30, 10)
        assert (ann.diameters.short_a.x, ann.diameters.short_a.y) == (12, 31)

    def test_long_short_kept_when_first_longer(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(
            path,
            [csv_row(coords="30, 10, 30, 50, 12, 31, 16, 29", bbox="7, 5, 52, 55")],
        )
        ann = parse_annotations(path).annotations[0]
        assert (ann.diameters.long_a.x, ann.diameters.long_a.y) == (30, 10)
        assert (ann.diameters.short_a.x, ann.diameters.short_a.y) == (12, 31)

    def test_split_mapping(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [csv_row(split=1), csv_row(split=2), csv_row(split=3)])
        anns = parse_annotations(path).annotations
        assert [a.split for a in anns] == ["train", "val", "test"]

    def test_exclusion_list_drops_and_reports(self, tmp_path):
        path = tmp_path / "a.csv"
        rows = [csv_row(key=f"k{i}_01_01_001") for i in range(10)]
        write_csv(path, rows)
        excl = tmp_path / "noisy.txt"
        excl.write_text(
            "# known noisy annotations\nk2_01_01_001\nk7_01_01_001\n\nk9_01_01_001\n"
        )
        result = parse_annotations(path, excl)
        assert result.n_excluded == 3
        assert len(result.annotations) == 7
        assert all(a.file_name not in {"k2_01_01_001", "k7_01_01_001", "k9_01_01_001"}
                   for a in result.annotations)

    def test_malformed_row_reports_row_number(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [csv_row(), csv_row(coords="1, 2, 3")])
        with pytest.raises(InputFormatError, match="row 3"):
            parse_annotations(path)

    @pytest.mark.parametrize("column,field,raw", [
        ("Measurement_coordinates", "coords", "12, 31, inf, 29, 30, 10, 30, 50"),
        ("Bounding_boxes", "bbox", "7, 5, -inf, 55"),
        ("Lesion_diameters_Pixel_", "diam", "NaN, 40.0"),
        ("Spacing_mm_px_", "spacing", "0.8, 0.8, nan"),
    ])
    def test_non_finite_number_names_row_and_column(self, tmp_path, column,
                                                    field, raw):
        path = tmp_path / "a.csv"
        write_csv(path, [csv_row(), csv_row(**{field: raw})])
        with pytest.raises(
            InputFormatError,
            match=f"^row 3: column {column} must hold finite numbers, got",
        ):
            parse_annotations(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("File_name,Bounding_boxes\nx,\"1,2,3,4\"\n")
        with pytest.raises(InputFormatError, match="Measurement_coordinates"):
            parse_annotations(path)

    def test_bad_split_code(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [csv_row(split=7)])
        with pytest.raises(InputFormatError, match="Train_Val_Test"):
            parse_annotations(path)

    def test_consistent_bbox_flag(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [csv_row()])  # bbox (7,5,52,55) == extremes + 5 pad
        result = parse_annotations(path)
        assert result.annotations[0].bbox_consistent
        assert result.inconsistent == []

    def test_inconsistent_bbox_reported_not_dropped(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [csv_row(bbox="0, 0, 99, 99")])
        result = parse_annotations(path)
        assert len(result.annotations) == 1
        assert not result.annotations[0].bbox_consistent
        assert result.inconsistent == ["p1_01_01_109"]

    def test_writer_round_trip(self, tmp_path):
        scene = generate_scene(3, seed=90)
        path = tmp_path / "out.csv"
        write_annotations(scene.annotations, path)
        back = parse_annotations(path)
        assert back.inconsistent == []
        assert len(back.annotations) == 3
        for orig, re_read in zip(scene.annotations, back.annotations):
            assert re_read.file_name == orig.file_name
            assert re_read.diameters == orig.diameters
            assert re_read.bbox == orig.bbox
            assert re_read.lesion_type == orig.lesion_type
            assert re_read.spacing == orig.spacing
            assert re_read.split == orig.split

    @pytest.mark.parametrize("field", ["diameters", "bbox", "diameters_px",
                                       "spacing"])
    def test_writer_refuses_non_finite_numbers_before_opening(self, tmp_path,
                                                              field):
        anns = generate_scene(2, seed=90).annotations
        ann = anns[1]
        if field == "diameters":
            d = ann.diameters
            bad = dataclasses.replace(d, short_b=Point2(math.nan, d.short_b.y))
        elif field == "bbox":
            bad = dataclasses.replace(ann.bbox, x2=math.inf)
        else:
            bad = (-math.inf,) + getattr(ann, field)[1:]
        anns[1] = dataclasses.replace(ann, **{field: bad})
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"^annotation 1 \(syn_90\): "):
            write_annotations(anns, path)
        assert not path.exists()

    def test_metadata_accessors(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [csv_row()])
        ann = parse_annotations(path).annotations[0]
        assert ann.long_diameter_mm == pytest.approx(40.0 * 0.8)
        assert ann.slice_interval_mm == 2.5
        assert ann.lesion_type == 3


def random_bundle(rng, h=12, w=16, stride=4):
    return HeatmapBundle(
        keypoint_maps=rng.random((5, h, w), dtype=np.float32),
        offset_maps=rng.random((8, h, w), dtype=np.float32),
        stride=stride,
        input_size=(w * stride, h * stride),
    )


class TestHeatmapFile:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(91)
        for i in range(10):
            bundle = random_bundle(rng)
            path = tmp_path / f"b{i}.rkhm"
            write_heatmaps(bundle, path)
            back = read_heatmaps(path)
            assert np.array_equal(
                back.keypoint_maps.view(np.uint32),
                bundle.keypoint_maps.view(np.uint32),
            )
            assert np.array_equal(
                back.offset_maps.view(np.uint32), bundle.offset_maps.view(np.uint32)
            )
            assert back.stride == bundle.stride
            assert back.input_size == bundle.input_size

    def test_write_is_byte_deterministic(self, tmp_path):
        bundle = random_bundle(np.random.default_rng(92))
        a, b = tmp_path / "a.rkhm", tmp_path / "b.rkhm"
        write_heatmaps(bundle, a)
        write_heatmaps(bundle, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_payload(self, tmp_path):
        bundle = random_bundle(np.random.default_rng(93))
        path = tmp_path / "t.rkhm"
        write_heatmaps(bundle, path)
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(InputFormatError, match="truncated payload"):
            read_heatmaps(path)

    def test_trailing_garbage_is_size_mismatch(self, tmp_path):
        bundle = random_bundle(np.random.default_rng(94))
        path = tmp_path / "t.rkhm"
        write_heatmaps(bundle, path)
        path.write_bytes(path.read_bytes() + b"XX")
        with pytest.raises(InputFormatError, match="size mismatch"):
            read_heatmaps(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.rkhm"
        path.write_bytes(b"NOPE!\n" + b"\x00" * 64)
        with pytest.raises(InputFormatError, match="magic"):
            read_heatmaps(path)

    def test_header_payload_disagreement(self, tmp_path):
        bundle = random_bundle(np.random.default_rng(95))
        path = tmp_path / "t.rkhm"
        write_heatmaps(bundle, path)
        raw = path.read_bytes()
        header_end = raw.index(b"\n", len(b"RKHM1\n")) + 1
        header = json.loads(raw[len(b"RKHM1\n"):header_end])
        header["width"] += 1
        doctored = (
            b"RKHM1\n"
            + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
            + b"\n"
            + raw[header_end:]
        )
        path.write_bytes(doctored)
        with pytest.raises(InputFormatError):
            read_heatmaps(path)


    def test_non_finite_planes_name_channel_and_count(self, tmp_path):
        bundle = random_bundle(np.random.default_rng(93))  # 12 x 16 planes
        path = tmp_path / "b.rkhm"
        write_heatmaps(bundle, path)
        data = bytearray(path.read_bytes())
        start = data.index(b"\n", len(b"RKHM1\n")) + 1
        # channel 0 is top; channel 5 + 3 is the offset plane left_dy
        for channel, row, col, value in (
            (0, 1, 1, -np.inf), (8, 2, 5, np.nan), (8, 0, 0, np.inf)
        ):
            cell = start + 4 * (channel * 12 * 16 + row * 16 + col)
            data[cell:cell + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        expected = r"non-finite .* top \(1 cells\), left_dy \(2 cells\)"
        with pytest.raises(InputFormatError, match=expected):
            read_heatmaps(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("group", ["keypoint_maps", "offset_maps"])
    def test_writer_refuses_non_finite_planes(self, tmp_path, group, value):
        bundle = random_bundle(np.random.default_rng(94))
        getattr(bundle, group)[2, 3, 4] = value
        name = "bottom" if group == "keypoint_maps" else "left_dx"
        path = tmp_path / "b.rkhm"
        with pytest.raises(ValueError, match=rf"non-finite .* {name} \(1 cells\)"):
            write_heatmaps(bundle, path)
        assert not path.exists()


class TestDetectionsFile:
    def test_empty_document(self, tmp_path):
        path = tmp_path / "d.json"
        write_detections({}, path)
        dets, config = read_detections(path)
        assert dets == {}
        assert config is None

    def test_round_trip_preserves_order_and_sources(self, tmp_path):
        dets = {
            "img_b": [
                make_detection(0, 0, 10, 10, 4.0, source="original"),
                make_detection(5, 5, 25, 30, 1.25, source="flipped"),
            ],
            "img_a": [make_detection(2.5, 3.75, 8.0625, 9.5, 5.9)],
        }
        path = tmp_path / "d.json"
        write_detections(dets, path, config={"tau_e": 0.1})
        back, config = read_detections(path)
        assert config == {"tau_e": 0.1}
        assert set(back) == {"img_a", "img_b"}
        assert back["img_b"] == dets["img_b"]
        assert back["img_a"] == dets["img_a"]

    def test_full_precision_scores(self, tmp_path):
        score = 4.000000000000001  # not representable in short decimals
        path = tmp_path / "d.json"
        write_detections({"k": [make_detection(0, 0, 1, 1, score)]}, path)
        back, _ = read_detections(path)
        assert back["k"][0].score == score

    def test_schema_violation_names_path(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"images": {"img": [{"bbox": [1, 2, 3], "extremes": {},
                                   "score": 1.0, "source": "original"}]}}
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match=r"images\['img'\]\[0\].bbox"):
            read_detections(path)

    def test_missing_images_key(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{}")
        with pytest.raises(InputFormatError, match="images"):
            read_detections(path)

    def test_byte_determinism(self, tmp_path):
        dets = {"img": [make_detection(1, 2, 3, 4, 0.5)]}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_detections(dets, a, config={"x": 1})
        write_detections(dets, b, config={"x": 1})
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tokens_rejected_anywhere(self, tmp_path, token):
        path = tmp_path / "d.json"
        path.write_text('{"config": {"sigma": %s}, "images": {}}' % token)
        with pytest.raises(InputFormatError, match=f"non-finite number {token}"):
            read_detections(path)

    def test_writer_refuses_non_finite_values(self, tmp_path):
        path = tmp_path / "d.json"
        with pytest.raises(ValueError):
            write_detections({"k": [make_detection(0, 0, 1, 1, float("nan"))]}, path)

    def test_bbox_must_be_the_tight_box_of_the_extremes(self, tmp_path):
        path = tmp_path / "d.json"
        write_detections({"k": [make_detection(0, 0, 4, 2, 1.0)]}, path)
        doc = json.loads(path.read_text())
        doc["images"]["k"][0]["bbox"] = [0, 0, 4, 2]  # ints compare by value
        path.write_text(json.dumps(doc))
        assert read_detections(path)[0]["k"] == [make_detection(0, 0, 4, 2, 1.0)]
        doc["images"]["k"][0]["bbox"] = [0.0, 0.0, 4.0, 2.5]
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match=r"images\['k'\]\[0\]\.bbox"):
            read_detections(path)


class TestApplyCtWindow:
    def test_lower_bound(self):
        assert apply_ct_window(np.array([-150.0]), 50, 400)[0] == 0.0

    def test_upper_bound(self):
        assert apply_ct_window(np.array([250.0]), 50, 400)[0] == 1.0

    def test_midpoint(self):
        assert apply_ct_window(np.array([50.0]), 50, 400)[0] == 0.5

    def test_monotone(self):
        rng = np.random.default_rng(96)
        values = np.sort(rng.uniform(-1200, 2000, size=200))
        out = apply_ct_window(values, 40, 350)
        assert (np.diff(out) >= 0).all()
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            apply_ct_window(np.zeros(3), 50, 0)

    @pytest.mark.parametrize("level,width,name", [
        (math.nan, 400, "level"), (math.inf, 400, "level"),
        (-math.inf, 400, "level"), (50, math.nan, "width"), (50, math.inf, "width"),
    ])
    def test_non_finite_setting(self, level, width, name):
        with pytest.raises(ValueError, match=f"window {name} must be finite"):
            apply_ct_window(np.zeros(3), level, width)

    def test_tiny_width_overflows_quietly_to_the_clip(self):
        # (value - lo) / 1e-320 overflows to +-inf, which clips to 0 or 1
        out = apply_ct_window(np.array([-1.0, 0.0, 1.0]), 0.0, 1e-320)
        assert out.tolist() == [0.0, 0.5, 1.0]


class TestSimulatedBundleIo:
    def test_simulated_bundle_round_trips(self, tmp_path):
        scene = generate_scene(2, seed=97)
        from recistkit.synthetic import DegradationConfig

        bundle = simulate_heatmaps(
            scene, DegradationConfig(noise_sigma=0.1, seed=97)
        )
        path = tmp_path / "sim.rkhm"
        write_heatmaps(bundle, path)
        back = read_heatmaps(path)
        assert np.array_equal(
            back.keypoint_maps.view(np.uint32), bundle.keypoint_maps.view(np.uint32)
        )
