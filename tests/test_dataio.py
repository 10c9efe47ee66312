"""File formats: CSV schema parsing with exclusions and consistency checks,
bit-exact heatmap round trips, and detections JSON."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from recistkit.dataio import (
    InputFormatError,
    parse_annotations,
    read_detections,
    read_heatmaps,
    write_annotations,
    write_detections,
    write_heatmaps,
)
from recistkit.grouping import Detections
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
        assert ann.endpoints[:2] == (30, 10)
        assert ann.endpoints[4:6] == (12, 31)

    def test_long_short_kept_when_first_longer(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(
            path,
            [csv_row(coords="30, 10, 30, 50, 12, 31, 16, 29", bbox="7, 5, 52, 55")],
        )
        ann = parse_annotations(path).annotations[0]
        assert ann.endpoints[:2] == (30, 10)
        assert ann.endpoints[4:6] == (12, 31)

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
            match=f"^{re.escape(str(path))}: row 3: column {column} must hold "
                  "finite numbers, got",
        ):
            parse_annotations(path)

    @pytest.mark.parametrize("column,field", [
        ("Coarse_lesion_type", "lesion_type"), ("Train_Val_Test", "split"),
    ])
    def test_non_integer_code_names_path_row_and_column(self, tmp_path, column,
                                                        field):
        path = tmp_path / "a.csv"
        write_csv(path, [csv_row(), csv_row(**{field: "x"})])
        with pytest.raises(InputFormatError) as excinfo:
            parse_annotations(path)
        assert str(excinfo.value) == (
            f"{path}: row 3: column {column}: "
            "invalid literal for int() with base 10: 'x'"
        )

    @pytest.mark.parametrize("rows,message", [
        ([csv_row(split=4)], "row 2: Train_Val_Test must be 1, 2 or 3, got 4"),
        ([csv_row(coords="1, 2, 3")],
         "row 2: column Measurement_coordinates expected 8 values, got 3"),
        ([csv_row(diam="a, 40.0")],
         "row 2: column Lesion_diameters_Pixel_: could not convert string to "
         "float: 'a'"),
        (['k,"1, 2"\n'], "row 2: fewer fields than the header"),
    ])
    def test_row_messages_start_with_the_path(self, tmp_path, rows, message):
        path = tmp_path / "a.csv"
        write_csv(path, rows)
        with pytest.raises(InputFormatError) as excinfo:
            parse_annotations(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("File_name,Bounding_boxes\nx,\"1,2,3,4\"\n")
        with pytest.raises(InputFormatError) as excinfo:
            parse_annotations(path)
        assert str(excinfo.value).startswith(
            f"{path}: missing required column(s): Measurement_coordinates"
        )

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
            assert re_read.endpoints == orig.endpoints
            assert re_read.bbox == orig.bbox
            assert re_read.lesion_type == orig.lesion_type
            assert re_read.spacing == orig.spacing
            assert re_read.split == orig.split

    def test_writer_round_trip_of_numpy_floats(self, tmp_path):
        # under numpy 2, repr(np.float64(318.0625)) is "np.float64(318.0625)",
        # which the reader refuses; each number is written as the plain float
        ann = generate_scene(1, seed=90).annotations[0]
        as_numpy = dataclasses.replace(
            ann,
            endpoints=tuple(map(np.float64, ann.endpoints)),
            bbox=tuple(map(np.float64, ann.bbox)),
            diameters_px=tuple(map(np.float64, ann.diameters_px)),
            spacing=tuple(map(np.float64, ann.spacing)),
        )
        numpy_path, plain_path = tmp_path / "numpy.csv", tmp_path / "plain.csv"
        write_annotations([as_numpy], numpy_path)
        write_annotations([ann], plain_path)
        assert parse_annotations(numpy_path).annotations == [ann]
        assert numpy_path.read_bytes() == plain_path.read_bytes()

    @pytest.mark.parametrize("value", [
        318.0625, 0.1, 1 / 3, -0.0, 1e16, 5e-324, 1.7976931348623157e308,
        123456789.0,
    ])
    def test_writer_writes_a_numpy_float_as_its_python_float(self, tmp_path,
                                                             value):
        # numpy's repr wraps each of these in its own way, "np.float64(1e+16)"
        # among them; the CSV holds Python's repr and reads back bit for bit
        ann = generate_scene(1, seed=90).annotations[0]
        path = tmp_path / "out.csv"
        spacing = (np.float64(value), 1.0, 5.0)
        write_annotations([dataclasses.replace(ann, spacing=spacing)], path)
        assert f',"{value!r}, 1.0, 5.0",' in path.read_text(encoding="utf-8")
        back = parse_annotations(path).annotations[0].spacing
        assert [float(v).hex() for v in back] == [value.hex(), "0x1.0000000000000p+0",
                                                  "0x1.4000000000000p+2"]

    def test_writer_keeps_the_text_of_python_ints(self, tmp_path):
        ann = generate_scene(1, seed=90).annotations[0]
        path = tmp_path / "out.csv"
        write_annotations([dataclasses.replace(ann, spacing=(1, 1, 5))], path)
        assert ',"1, 1, 5",' in path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("field", ["endpoints", "bbox", "diameters_px",
                                       "spacing"])
    def test_writer_refuses_non_finite_numbers_before_opening(self, tmp_path,
                                                              field):
        anns = generate_scene(2, seed=90).annotations
        ann = anns[1]
        if field == "endpoints":
            bad = ann.endpoints[:6] + (math.nan, ann.endpoints[7])
        elif field == "bbox":
            bad = ann.bbox[:2] + (math.inf, ann.bbox[3])
        else:
            bad = (-math.inf,) + getattr(ann, field)[1:]
        anns[1] = dataclasses.replace(ann, **{field: bad})
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"^annotation 1 \(syn_90\): "):
            write_annotations(anns, path)
        assert not path.exists()

    # each refused with the reader's message for the row it would write, or
    # with the first field that would read back otherwise. The last two,
    # short-diameter-first endpoints and a box off its endpoints still
    # flagged consistent, were once written and read back changed
    @pytest.mark.parametrize("field,value,message", [
        ("lesion_type", 1.5, "column Coarse_lesion_type: invalid literal for "
                             "int() with base 10: '1.5'"),
        ("lesion_type", True, "column Coarse_lesion_type: invalid literal for "
                              "int() with base 10: 'True'"),
        ("file_name", " k ", "file_name reads back as 'k'"),
        ("file_name", "k\n", "file_name reads back as 'k'"),
        ("split", "foo", "column Train_Val_Test: invalid literal for int() with "
                         "base 10: 'foo'"),
        ("endpoints", (1.0,) * 7,
         "column Measurement_coordinates expected 8 values, got 7"),
        ("endpoints", (1.0,) * 9,
         "column Measurement_coordinates expected 8 values, got 9"),
        ("endpoints", (1.0,) * 7 + (True,), "column Measurement_coordinates: "
                                            "could not convert string to float: 'True'"),
        ("spacing", (1.0, 1.0), "column Spacing_mm_px_ expected 3 values, got 2"),
        ("bbox", (1.0, 2.0, 3.0), "column Bounding_boxes expected 4 values, got 3"),
        ("endpoints", lambda ann: ann.endpoints[4:] + ann.endpoints[:4],
         "endpoints reads back as ("),
        ("bbox", (0.0, 0.0, 99.0, 99.0), "bbox_consistent reads back as False"),
    ], ids=["type 1.5", "type True", "key ' k '", "key 'k\\n'", "split foo",
            "7 endpoints", "9 endpoints", "a bool endpoint", "2 spacings",
            "3 box numbers", "short diameter first", "inconsistent box"])
    def test_writer_refuses_what_it_would_not_read_back(self, tmp_path, field,
                                                       value, message):
        anns = generate_scene(2, seed=90).annotations
        if callable(value):
            value = value(anns[1])
        anns[1] = dataclasses.replace(anns[1], **{field: value})
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"^annotation 1 \(") as excinfo:
            write_annotations(anns, path)
        assert message in str(excinfo.value)
        assert not path.exists()

    def test_writer_round_trip_keeps_every_field(self, tmp_path):
        # what the writer accepts reads back equal, field by field
        anns = [dataclasses.replace(a, file_name="k 1", lesion_type=-3, split=s)
                for a, s in zip(generate_scene(3, seed=91).annotations,
                                ("train", "val", "test"))]
        path = tmp_path / "out.csv"
        write_annotations(anns, path)
        assert parse_annotations(path).annotations == anns

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

    @pytest.mark.parametrize("input_size", [(0, 48), (64, 0)])
    def test_writer_refuses_a_zero_input_size(self, tmp_path, input_size):
        bundle = dataclasses.replace(
            random_bundle(np.random.default_rng(96)), input_size=input_size
        )
        path = tmp_path / "b.rkhm"
        with pytest.raises(ValueError, match=r"header input_\w+ must be an integer "
                           r"in \[1, 2147483647\], got 0"):
            write_heatmaps(bundle, path)
        assert not path.exists()

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
            "img_b": Detections.of([
                make_detection(0, 0, 10, 10, 4.0, source="original"),
                make_detection(5, 5, 25, 30, 1.25, source="flipped"),
            ]),
            "img_a": Detections.of([make_detection(2.5, 3.75, 8.0625, 9.5, 5.9)]),
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
        dets = Detections.of([make_detection(0, 0, 1, 1, score)])
        write_detections({"k": dets}, path)
        back, _ = read_detections(path)
        assert back["k"].scores[0] == score

    def test_schema_violation_names_path(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"images": {"img": [{"bbox": [1, 2, 3], "extremes": {},
                                   "score": 1.0, "source": "original"}]}}
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match=r"images\['img'\]\[0\].bbox"):
            read_detections(path)

    @pytest.mark.parametrize("images,where", [
        ([], "'images' must be an object"),
        ({"img": {"bbox": [0, 0, 1, 1]}}, "images['img']: expected a list"),
        ({"img": [{"bbox": [1, 2, 3, 4], "extremes": [[1, 2]] * 5,
                   "score": 1.0, "source": "original"}]},
         "images['img'][0].extremes: expected an object"),
    ])
    def test_document_shape_errors_name_the_file(self, tmp_path, images, where):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"config": None, "images": images}))
        with pytest.raises(InputFormatError) as excinfo:
            read_detections(path)
        assert str(excinfo.value) == f"{path}: {where}"

    def test_missing_images_key(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{}")
        with pytest.raises(InputFormatError, match="images"):
            read_detections(path)

    def test_byte_determinism(self, tmp_path):
        dets = {"img": Detections.of([make_detection(1, 2, 3, 4, 0.5)])}
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
        nan = Detections.of([make_detection(0, 0, 1, 1, float("nan"))])
        with pytest.raises(ValueError):
            write_detections({"k": nan}, path)

    def test_bbox_must_be_the_tight_box_of_the_extremes(self, tmp_path):
        path = tmp_path / "d.json"
        dets = Detections.of([make_detection(0, 0, 4, 2, 1.0)])
        write_detections({"k": dets}, path)
        doc = json.loads(path.read_text())
        doc["images"]["k"][0]["bbox"] = [0, 0, 4, 2]  # ints compare by value
        path.write_text(json.dumps(doc))
        assert read_detections(path)[0]["k"] == dets
        doc["images"]["k"][0]["bbox"] = [0.0, 0.0, 4.0, 2.5]
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match=r"images\['k'\]\[0\]\.bbox"):
            read_detections(path)


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
