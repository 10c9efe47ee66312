"""File I/O: annotation CSVs, heatmap containers, detection documents, and
CT intensity windowing.

All serialization here is byte-deterministic: identical inputs produce
identical files. The heatmap container stores raw little-endian float32
planes behind a one-line JSON header, so bundles round-trip bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .geometry import (
    BBox,
    ExtremePoints,
    Point2,
    RecistDiameters,
    bbox_from_extremes,
    extremes_from_recist,
    ordered_diameters,
    pad_bbox,
)
from .grouping import BOX_COLUMNS, Detection
from .targets import KEYPOINT_CHANNELS, OFFSET_CHANNELS, HeatmapBundle

HEATMAP_MAGIC = b"RKHM1\n"
CHANNEL_NAMES = KEYPOINT_CHANNELS + OFFSET_CHANNELS

SPLIT_NAMES = {1: "train", 2: "val", 3: "test"}

CSV_COLUMNS = (
    "File_name",
    "Measurement_coordinates",
    "Bounding_boxes",
    "Coarse_lesion_type",
    "Lesion_diameters_Pixel_",
    "Spacing_mm_px_",
    "Train_Val_Test",
)

# padding convention used when checking an annotation's provided box
# against the box re-derived from its diameters
BOX_PADDING = 5.0
BOX_CONSISTENCY_TOL = 1e-3


class InputFormatError(Exception):
    """A file failed to parse or violated its declared schema."""


@dataclass(frozen=True, slots=True)
class RecistAnnotation:
    """One lesion measurement row.

    ``bbox`` is the padded box as provided by the source file.
    ``bbox_consistent`` records whether that box agrees with the box
    re-derived from the diameters (pad 5, tolerance 1e-3 per coordinate).
    """

    file_name: str
    diameters: RecistDiameters
    bbox: BBox
    lesion_type: int
    diameters_px: tuple[float, float]
    spacing: tuple[float, float, float]
    split: str
    bbox_consistent: bool = True

    def extremes(self) -> ExtremePoints:
        return extremes_from_recist(self.diameters)

    @property
    def long_diameter_mm(self) -> float:
        return max(self.diameters_px) * self.spacing[0]

    @property
    def slice_interval_mm(self) -> float:
        return self.spacing[2]


@dataclass
class ParseResult:
    """Annotations plus what was dropped or flagged along the way."""

    annotations: list[RecistAnnotation]
    n_excluded: int = 0
    inconsistent: list[str] = field(default_factory=list)  # file_name keys


def _floats(raw: str, expect: int, row_num: int, column: str) -> list[float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != expect:
        raise InputFormatError(
            f"row {row_num}: column {column} expected {expect} values, "
            f"got {len(parts)}"
        )
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise InputFormatError(f"row {row_num}: column {column}: {exc}") from None


def parse_annotations(
    csv_path: str | Path, exclusion_list_path: str | Path | None = None
) -> ParseResult:
    """Read a lesion-annotation CSV, optionally dropping excluded keys.

    The exclusion list is a text file of File_name keys, one per line
    (blank lines and ``#`` comments ignored); every row whose key appears
    on it is dropped and counted. Rows whose provided bounding box does not
    reproduce from the diameters are kept but flagged. A malformed row or a
    missing column raises :class:`InputFormatError`.
    """
    excluded_keys: set[str] = set()
    if exclusion_list_path is not None:
        for line in Path(exclusion_list_path).read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                excluded_keys.add(line)

    result = ParseResult(annotations=[])
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise InputFormatError(f"missing required column(s): {', '.join(missing)}")

        for row_num, row in enumerate(reader, start=2):  # 1 is the header
            key = row["File_name"].strip()
            if key in excluded_keys:
                result.n_excluded += 1
                continue

            coords = _floats(
                row["Measurement_coordinates"], 8, row_num, "Measurement_coordinates"
            )
            box_vals = _floats(row["Bounding_boxes"], 4, row_num, "Bounding_boxes")
            diam_px = _floats(
                row["Lesion_diameters_Pixel_"], 2, row_num, "Lesion_diameters_Pixel_"
            )
            spacing = _floats(row["Spacing_mm_px_"], 3, row_num, "Spacing_mm_px_")
            try:
                lesion_type = int(row["Coarse_lesion_type"])
                split_code = int(row["Train_Val_Test"])
            except ValueError as exc:
                raise InputFormatError(f"row {row_num}: {exc}") from None
            if split_code not in SPLIT_NAMES:
                raise InputFormatError(
                    f"row {row_num}: Train_Val_Test must be 1, 2 or 3, "
                    f"got {split_code}"
                )

            diameters = ordered_diameters(
                Point2(coords[0], coords[1]),
                Point2(coords[2], coords[3]),
                Point2(coords[4], coords[5]),
                Point2(coords[6], coords[7]),
            )
            bbox = BBox(*box_vals)

            derived = pad_bbox(
                bbox_from_extremes(extremes_from_recist(diameters)), BOX_PADDING
            )
            consistent = all(
                abs(a - b) <= BOX_CONSISTENCY_TOL
                for a, b in zip(derived.as_tuple(), bbox.as_tuple())
            )
            if not consistent:
                result.inconsistent.append(key)

            result.annotations.append(
                RecistAnnotation(
                    file_name=key,
                    diameters=diameters,
                    bbox=bbox,
                    lesion_type=lesion_type,
                    diameters_px=(diam_px[0], diam_px[1]),
                    spacing=(spacing[0], spacing[1], spacing[2]),
                    split=SPLIT_NAMES[split_code],
                    bbox_consistent=consistent,
                )
            )
    return result


def write_annotations(
    annotations: Sequence[RecistAnnotation], csv_path: str | Path
) -> None:
    """Write annotations in the same CSV schema that parse_annotations reads."""
    split_codes = {name: code for code, name in SPLIT_NAMES.items()}
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for ann in annotations:
            d = ann.diameters
            coords = [
                d.long_a.x, d.long_a.y, d.long_b.x, d.long_b.y,
                d.short_a.x, d.short_a.y, d.short_b.x, d.short_b.y,
            ]
            writer.writerow(
                [
                    ann.file_name,
                    ", ".join(repr(v) for v in coords),
                    ", ".join(repr(v) for v in ann.bbox.as_tuple()),
                    ann.lesion_type,
                    ", ".join(repr(v) for v in ann.diameters_px),
                    ", ".join(repr(v) for v in ann.spacing),
                    split_codes[ann.split],
                ]
            )


def _non_finite_channels(*groups: np.ndarray) -> str:
    """'' when every plane value is finite; otherwise each channel holding
    NaN or +-inf, named in file order across ``groups``, with its count."""
    # min and max are NaN or infinite iff some value is, and allocate nothing
    if all(np.isfinite(g.min()) and np.isfinite(g.max()) for g in groups if g.size):
        return ""
    counts = [
        g[0].size - n for g in groups
        for n in np.count_nonzero(np.isfinite(g), axis=(1, 2)).tolist()
    ]
    return ", ".join(
        f"{name} ({n} cells)" for name, n in zip(CHANNEL_NAMES, counts) if n
    )


def write_heatmaps(bundle: HeatmapBundle, path: str | Path) -> None:
    """Serialize a bundle: magic, one-line JSON header, raw float32 planes.

    Raises ValueError, before the file is opened, when a plane holds NaN
    or +-inf, which :func:`read_heatmaps` would reject.
    """
    bad = _non_finite_channels(bundle.keypoint_maps, bundle.offset_maps)
    if bad:
        raise ValueError(f"{path}: non-finite values in channel {bad}")
    h, w = bundle.grid_shape
    header = {
        "channel_names": list(CHANNEL_NAMES),
        "height": h,
        "input_height": bundle.input_size[1],
        "input_width": bundle.input_size[0],
        "stride": bundle.stride,
        "width": w,
    }
    with open(path, "wb") as fh:
        fh.write(HEATMAP_MAGIC)
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        fh.write(b"\n")
        for planes in (bundle.keypoint_maps, bundle.offset_maps):
            fh.write(np.ascontiguousarray(planes, dtype="<f4"))  # a view if already <f4


def read_heatmaps(path: str | Path) -> HeatmapBundle:
    """Read a bundle written by :func:`write_heatmaps`, bit for bit."""
    with open(path, "rb") as fh:
        magic = fh.read(len(HEATMAP_MAGIC))
        if magic != HEATMAP_MAGIC:
            raise InputFormatError(f"{path}: bad magic, not a heatmap file")
        header_line = fh.readline()
        if not header_line.endswith(b"\n"):
            raise InputFormatError(f"{path}: truncated header")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: malformed header: {exc}") from None
        if not isinstance(header, dict):
            raise InputFormatError(f"{path}: header must be a JSON object")
        for key in ("height", "width", "stride", "input_width", "input_height"):
            if key not in header:
                raise InputFormatError(f"{path}: header missing {key}")
            value = header[key]
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InputFormatError(
                    f"{path}: header {key} must be an integer >= 1, got {value!r}"
                )
        if header.get("channel_names") != list(CHANNEL_NAMES):
            raise InputFormatError(f"{path}: unexpected channel names")

        h, w = header["height"], header["width"]
        expected = len(CHANNEL_NAMES) * h * w * 4
        # sized from the file, so a header claiming a huge grid allocates nothing
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < expected:
            raise InputFormatError(
                f"{path}: truncated payload ({available} of {expected} bytes)"
            )
        if available > expected:
            raise InputFormatError(
                f"{path}: header/payload size mismatch (extra bytes after "
                f"{expected})"
            )
        payload = fh.read(expected)

    planes = np.frombuffer(payload, dtype="<f4").reshape(len(CHANNEL_NAMES), h, w)
    bad = _non_finite_channels(planes)
    if bad:
        raise InputFormatError(f"{path}: non-finite values in channel {bad}")
    return HeatmapBundle(  # astype copies: native byte order, writable
        keypoint_maps=planes[:5].astype(np.float32),
        offset_maps=planes[5:].astype(np.float32),
        stride=header["stride"],
        input_size=(header["input_width"], header["input_height"]),
    )


def load_json(path: str | Path):
    """Parse a JSON file as strict JSON: the NaN, Infinity and -Infinity
    tokens that :func:`json.load` accepts raise :class:`InputFormatError`,
    as does malformed JSON."""
    def reject(token: str):
        raise InputFormatError(f"{path}: non-finite number {token} is not JSON")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: malformed JSON: {exc}") from None


def is_finite_number(value) -> bool:
    """A JSON number (not a bool) that is neither NaN nor infinite."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _point_pair(value, path: str) -> tuple[float, float]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(is_finite_number(v) for v in value)
    ):
        raise InputFormatError(f"{path}: expected [x, y] with finite numbers")
    return float(value[0]), float(value[1])


def detection_to_dict(det: Detection) -> dict:
    row = list(det.row)
    return {
        "bbox": [row[i] for i in BOX_COLUMNS],
        "extremes": {
            role: row[2 * i : 2 * i + 2] for i, role in enumerate(KEYPOINT_CHANNELS)
        },
        "score": det.score,
        "source": det.source,
    }


def detection_from_dict(entry: dict, path: str) -> Detection:
    """One checked detections entry; its bbox must be the tight box of its
    extremes, as :func:`detection_to_dict` writes it."""
    if not isinstance(entry, dict):
        raise InputFormatError(f"{path}: expected an object")
    for key in ("bbox", "extremes", "score", "source"):
        if key not in entry:
            raise InputFormatError(f"{path}: missing field {key}")
    bbox_vals = entry["bbox"]
    if (
        not isinstance(bbox_vals, list)
        or len(bbox_vals) != 4
        or not all(is_finite_number(v) for v in bbox_vals)
    ):
        raise InputFormatError(
            f"{path}.bbox: expected [x1, y1, x2, y2] with finite numbers"
        )
    ext = entry["extremes"]
    if not isinstance(ext, dict):
        raise InputFormatError(f"{path}.extremes: expected an object")
    row: tuple[float, ...] = ()
    for role in KEYPOINT_CHANNELS:  # the row layout
        if role not in ext:
            raise InputFormatError(f"{path}.extremes: missing {role}")
        row += _point_pair(ext[role], f"{path}.extremes.{role}")
    box = [row[i] for i in BOX_COLUMNS]
    if [float(v) for v in bbox_vals] != box:
        raise InputFormatError(
            f"{path}.bbox: {bbox_vals} is not the tight box of the extremes, {box}"
        )
    if not is_finite_number(entry["score"]):
        raise InputFormatError(f"{path}.score: expected a finite number")
    if entry["source"] not in ("original", "flipped"):
        raise InputFormatError(f"{path}.source: expected 'original' or 'flipped'")
    return Detection(row, float(entry["score"]), entry["source"])


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` as sorted, indented strict JSON with a final newline:
    the format of every JSON file recistkit writes. The encoder's chunks
    stream to the file, so a large document is never held as one string.
    Raises ValueError on NaN or +-inf."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def write_detections(
    detections_by_image: Mapping[str, Sequence[Detection]],
    path: str | Path,
    config: Mapping | None = None,
) -> None:
    """Write per-image detection lists as a JSON document.

    Scores serialize at full precision (shortest round-trippable decimal).
    ``config`` is echoed verbatim for provenance.
    """
    doc = {
        "config": dict(config) if config is not None else None,
        "images": {
            key: [detection_to_dict(d) for d in dets]
            for key, dets in detections_by_image.items()
        },
    }
    write_json(doc, path)


def read_detections(
    path: str | Path,
) -> tuple[dict[str, list[Detection]], dict | None]:
    """Read a detections document; returns (per-image detections, config)."""
    doc = load_json(path)
    if not isinstance(doc, dict) or "images" not in doc:
        raise InputFormatError(f"{path}: missing top-level 'images' object")
    images = doc["images"]
    if not isinstance(images, dict):
        raise InputFormatError(f"{path}: 'images' must be an object")
    out: dict[str, list[Detection]] = {}
    for key, entries in images.items():
        if not isinstance(entries, list):
            raise InputFormatError(f"images[{key!r}]: expected a list")
        out[key] = [
            detection_from_dict(entry, f"images[{key!r}][{i}]")
            for i, entry in enumerate(entries)
        ]
    return out, doc.get("config")


def apply_ct_window(values: np.ndarray, level: float, width: float) -> np.ndarray:
    """Linear window map of CT intensities onto [0, 1].

    Values at or below level - width/2 map to 0, at or above level + width/2
    to 1, linearly in between. Monotone non-decreasing in the input.
    """
    if width <= 0:
        raise ValueError(f"window width must be > 0, got {width}")
    lo = level - width / 2.0
    return np.clip((np.asarray(values, dtype=np.float64) - lo) / width, 0.0, 1.0)
