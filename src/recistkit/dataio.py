"""File I/O: annotation CSVs, heatmap containers and detection documents.

All serialization here is byte-deterministic: identical inputs produce
identical files. The heatmap container stores raw little-endian float32
planes behind a one-line JSON header, so bundles round-trip bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import (MAX_HEADER_INT, InputFormatError, decode_text, is_finite_number,
                     load_json)
from .geometry import ExtremePoints, Point2, pad_bbox
from .grouping import BOX_COLUMNS, SOURCES, Detection, Detections
from .targets import KEYPOINT_CHANNELS, OFFSET_CHANNELS, HeatmapBundle

HEATMAP_MAGIC = b"RKHM1\n"
# the longest .rkhm header line read, its newline included; a real one is
# about 200 bytes
_MAX_HEADER_BYTES = 1 << 20
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

# padding convention used when checking an annotation's provided box against
# the min/max box of its endpoints; simulated boxes use it to pass that check
BOX_PADDING = 5.0
BOX_CONSISTENCY_TOL = 1e-3


def _long_first(coords: Sequence[float]) -> tuple[float, ...]:
    """The 8 endpoint coordinates (x, y per point, two points per diameter)
    with the longer diameter's points first; a tie keeps the input order."""
    ax, ay, bx, by, cx, cy, dx, dy = coords
    if math.hypot(ax - bx, ay - by) >= math.hypot(cx - dx, cy - dy):
        return (ax, ay, bx, by, cx, cy, dx, dy)
    return (cx, cy, dx, dy, ax, ay, bx, by)


@dataclass(frozen=True, slots=True)
class RecistAnnotation:
    """One lesion measurement row.

    ``endpoints`` holds the 8 ``Measurement_coordinates`` values, x and y of
    the long diameter's two endpoints, then of the short diameter's.
    ``bbox`` is the padded (x1, y1, x2, y2) box as provided by the source
    file. ``bbox_consistent`` records whether that box agrees with the min/max
    box of the endpoints padded by 5 (tolerance 1e-3 per coordinate).
    """

    file_name: str
    endpoints: tuple[float, ...]
    bbox: tuple[float, float, float, float]
    lesion_type: int
    diameters_px: tuple[float, float]
    spacing: tuple[float, float, float]
    split: str
    bbox_consistent: bool = True

    def extremes(self) -> ExtremePoints:
        """The top, left, bottom and right endpoints and their center
        ((left.x + right.x) / 2, (top.y + bottom.y) / 2), five (x, y)
        points in one named tuple.

        One endpoint may fill several roles. Ties go to a long-diameter
        endpoint, then to the smaller x (top, bottom) or y (left, right).
        """
        xs, ys = self.endpoints[0::2], self.endpoints[1::2]
        rank = (0, 0, 1, 1)  # the long diameter's endpoints win ties
        top_y, _, top_x = min(zip(ys, rank, xs))
        left_x, _, left_y = min(zip(xs, rank, ys))
        neg_bottom_y, _, bottom_x = min(zip([-y for y in ys], rank, xs))
        neg_right_x, _, right_y = min(zip([-x for x in xs], rank, ys))
        bottom_y, right_x = -neg_bottom_y, -neg_right_x
        return ExtremePoints(
            Point2(top_x, top_y), Point2(left_x, left_y),
            Point2(bottom_x, bottom_y), Point2(right_x, right_y),
            Point2((left_x + right_x) / 2.0, (top_y + bottom_y) / 2.0),
        )

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

    @property
    def inconsistent(self) -> list[str]:
        """The file_name keys of the annotations not bbox_consistent, in order."""
        return [a.file_name for a in self.annotations if not a.bbox_consistent]


def by_image(annotations: Sequence[RecistAnnotation]) -> dict[str, list]:
    """The annotations grouped by ``file_name``, keys in first-seen order and
    each image's annotations in input order."""
    groups: dict[str, list] = {}
    for ann in annotations:
        groups.setdefault(ann.file_name, []).append(ann)
    return groups


def _floats(row: dict, column: str, expect: int, where: str) -> list[float]:
    """Column ``column`` of the CSV row at ``where``, as ``expect`` finite
    floats."""
    raw = row[column]
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != expect:
        raise InputFormatError(
            f"{where}: column {column} expected {expect} values, got {len(parts)}"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise InputFormatError(f"{where}: column {column}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise InputFormatError(
            f"{where}: column {column} must hold finite numbers, got {raw!r}"
        )
    return values


def _csv_rows(reader: csv.DictReader, path: str | Path):
    """``reader``'s field names (a list, empty for an empty file), then its
    rows. A csv.Error, such as a field over the csv module's size limit,
    raises :class:`InputFormatError` naming the line."""
    try:
        yield reader.fieldnames or []
        yield from reader
    except csv.Error as exc:
        # the underlying reader's count includes the line it refused
        line = reader.reader.line_num
        raise InputFormatError(f"{path}: line {line}: {exc}") from None


def _annotation(row: Mapping[str, str], where: str) -> RecistAnnotation:
    """The annotation of one CSV row, text by column: the row rule of
    :func:`parse_annotations`, which :func:`write_annotations` applies to
    what it would write. A refusal raises InputFormatError starting with
    ``where``."""
    coords = _floats(row, "Measurement_coordinates", 8, where)
    box_vals = _floats(row, "Bounding_boxes", 4, where)
    diam_px = _floats(row, "Lesion_diameters_Pixel_", 2, where)
    spacing = _floats(row, "Spacing_mm_px_", 3, where)
    codes = []
    for column in ("Coarse_lesion_type", "Train_Val_Test"):
        try:
            codes.append(int(row[column]))
        except ValueError as exc:
            raise InputFormatError(f"{where}: column {column}: {exc}") from None
    lesion_type, split_code = codes
    if split_code not in SPLIT_NAMES:
        raise InputFormatError(
            f"{where}: Train_Val_Test must be 1, 2 or 3, got {split_code}"
        )

    endpoints = _long_first(coords)
    xs, ys = endpoints[0::2], endpoints[1::2]
    derived = pad_bbox((min(xs), min(ys), max(xs), max(ys)), BOX_PADDING)
    consistent = all(
        abs(a - b) <= BOX_CONSISTENCY_TOL for a, b in zip(derived, box_vals)
    )
    return RecistAnnotation(
        row["File_name"].strip(), endpoints, tuple(box_vals), lesion_type,
        tuple(diam_px), tuple(spacing), SPLIT_NAMES[split_code], consistent,
    )


def parse_annotations(
    csv_path: str | Path, exclusion_list_path: str | Path | None = None
) -> ParseResult:
    """Read a lesion-annotation CSV, optionally dropping excluded keys.

    The exclusion list is a text file of File_name keys, one per line
    (blank lines and ``#`` comments ignored); every row whose key appears
    on it is dropped and counted. Rows whose provided bounding box is not
    the min/max box of the endpoints padded by 5 are kept but flagged. A
    file that is not UTF-8, a missing column, a malformed, short or long
    row, or a field over the csv module's size limit raises
    :class:`InputFormatError` whose message starts with the file's path.
    """
    excluded_keys: set[str] = set()
    if exclusion_list_path is not None:
        text = decode_text(Path(exclusion_list_path).read_bytes(), exclusion_list_path)
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                excluded_keys.add(line)

    result = ParseResult(annotations=[])
    text = decode_text(Path(csv_path).read_bytes(), csv_path)
    reader = csv.DictReader(io.StringIO(text, newline=""))
    rows = _csv_rows(reader, csv_path)
    header = next(rows)
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise InputFormatError(
            f"{csv_path}: missing required column(s): {', '.join(missing)}"
        )

    for row_num, row in enumerate(rows, start=2):  # 1 is the header
        where = f"{csv_path}: row {row_num}"
        if None in row:  # the DictReader's key for fields past the header's
            raise InputFormatError(f"{where}: more fields than the header")
        if None in row.values():  # a field the header names is missing
            raise InputFormatError(f"{where}: fewer fields than the header")
        if row["File_name"].strip() in excluded_keys:
            result.n_excluded += 1
            continue
        result.annotations.append(_annotation(row, where))
    return result


def write_annotations(
    annotations: Sequence[RecistAnnotation], csv_path: str | Path
) -> None:
    """Write annotations in the CSV schema that parse_annotations reads, and
    only what it reads back unchanged: before the file is opened, each row
    is read by the reader's own row rule. A row that rule refuses, or one
    that reads back as another annotation, raises ValueError naming the
    annotation's index and key, then the reader's message, the first
    field that differs and what it reads back as, or the characters that
    UTF-8 cannot encode, such as a lone surrogate. Fields compare by value,
    so a list box passes, and a float subclass such as ``np.float64`` is
    written as the plain float it holds.
    """
    split_codes = {name: code for code, name in SPLIT_NAMES.items()}
    rows = []
    for index, ann in enumerate(annotations):
        numbers = [ann.endpoints, ann.bbox, ann.diameters_px, ann.spacing]
        text = [", ".join((float.__repr__ if isinstance(v, float) else repr)(v)
                          for v in column) for column in numbers]
        row = [str(ann.file_name), *text[:2], str(ann.lesion_type), *text[2:],
               str(split_codes.get(ann.split, ann.split))]
        where = f"annotation {index} ({ann.file_name})"
        try:
            back = _annotation(dict(zip(CSV_COLUMNS, row)), where)
        except InputFormatError as exc:
            raise ValueError(str(exc)) from None
        for f in fields(back):
            value, read = getattr(ann, f.name), getattr(back, f.name)
            if (tuple(value) if isinstance(read, tuple) else value) != read:
                raise ValueError(f"{where}: {f.name} reads back as {read!r}")
        try:
            "".join(row).encode("utf-8")
        except UnicodeEncodeError as exc:
            bad = exc.object[exc.start:exc.end]
            raise ValueError(f"{where}: {bad!r} has no UTF-8 encoding") from None
        rows.append(row)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([CSV_COLUMNS, *rows])


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


# The header's sizes and stride are integers in [1, MAX_HEADER_INT].
HEADER_INTS = ("height", "width", "stride", "input_width", "input_height")


def _header_int_error(header: dict) -> str:
    """'' when every HEADER_INTS value is an integer in range, else what is
    wrong with the first that is not."""
    for key in HEADER_INTS:
        if key not in header:
            return f"header missing {key}"
        value = header[key]
        if (
            isinstance(value, bool)
            or not isinstance(value, int)
            or not 1 <= value <= MAX_HEADER_INT
        ):
            return (
                f"header {key} must be an integer in [1, {MAX_HEADER_INT}], "
                f"got {value!r}"
            )
    return ""


def write_heatmaps(bundle: HeatmapBundle, path: str | Path) -> None:
    """Serialize a bundle: magic, one-line JSON header, raw float32 planes.

    Raises ValueError, before the file is opened, when a plane holds NaN
    or +-inf, or a size or the stride is out of range, which
    :func:`read_heatmaps` would reject.
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
    error = _header_int_error(header)
    if error:
        raise ValueError(f"{path}: {error}")
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
        header_line = fh.readline(_MAX_HEADER_BYTES + 1)
        if len(header_line) > _MAX_HEADER_BYTES:
            raise InputFormatError(
                f"{path}: header line longer than {_MAX_HEADER_BYTES} bytes"
            )
        if not header_line.endswith(b"\n"):
            raise InputFormatError(f"{path}: truncated header")
        header = load_json(path, header_line)
        error = _header_int_error(header)
        if error:
            raise InputFormatError(f"{path}: {error}")
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


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` as sorted, indented strict JSON with a final newline:
    the format of every JSON file recistkit writes. The encoder's chunks
    stream to the file, so a large document is never held as one string.
    Raises ValueError on NaN or +-inf."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


# One detections entry laid out as write_json lays it out inside a document,
# with a %s placeholder per value, filled with float.__repr__ text as json
# writes a float. The numbers follow sorted keys: bbox, the extremes by
# sorted role, then the score; _ENTRY_COLUMNS picks them from a row plus its
# score.
_ENTRY_TEMPLATE = "      " + json.dumps(
    {
        "bbox": ["%r"] * 4,
        "extremes": {role: ["%r", "%r"] for role in KEYPOINT_CHANNELS},
        "score": "%r",
        "source": "%s",
    },
    sort_keys=True,
    indent=2,
).replace('"%r"', "%s").replace("\n", "\n      ")
_ENTRY_COLUMNS = [
    *BOX_COLUMNS,
    *(2 * KEYPOINT_CHANNELS.index(role) + d
      for role in sorted(KEYPOINT_CHANNELS) for d in (0, 1)),
    10,
]


def _entry_table(dets: Detections, where: str) -> tuple[np.ndarray, list]:
    """(n, 15) float64 values of one image's entries in template order, and
    their flipped flags; ValueError names the first entry with a non-finite
    value, which :func:`read_detections` would refuse."""
    table = np.column_stack((dets.rows, dets.scores))
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"{where}[{bad[0]}]: non-finite coordinate or score")
    return table[:, _ENTRY_COLUMNS], dets.flipped.tolist()


def _float_texts(table: np.ndarray) -> list[str]:
    """``repr`` of each float64 of ``table``, in raveled order, formatting
    each distinct value once; by bits, so -0.0 stays apart from 0.0."""
    bits = table.view(np.uint64).ravel()
    order = bits.argsort()
    ordered = bits[order]
    # first[i]: ordered[i] starts a run of equal bits
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    text = [repr(v) for v in ordered[first].view(np.float64).tolist()]
    rank = first.cumsum()
    rank -= 1  # each sorted value's index into text
    where = np.empty_like(rank)
    where[order] = rank
    return list(map(text.__getitem__, where.tolist()))


def write_detections(
    detections_by_image: Mapping[str, Detections],
    path: str | Path,
    config: Mapping | None = None,
) -> None:
    """Write per-image detection records as a JSON document.

    The bytes are those :func:`write_json` gives the document of
    :func:`detection_to_dict` entries, with every coordinate and score a
    float at full precision (shortest round-trippable decimal); one
    template formats each entry and one string is written per image.
    ``config`` is echoed verbatim for provenance. Raises ValueError, before
    the file is opened, on a NaN or +-inf value, which
    :func:`read_detections` would refuse.
    """
    echo = "null" if config is None else json.dumps(
        dict(config), sort_keys=True, indent=2, allow_nan=False
    ).replace("\n", "\n  ")
    images = [
        (key, *_entry_table(detections_by_image[key], f"{path}: images[{key!r}]"))
        for key in sorted(detections_by_image)
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{\n  "config": %s,\n  "images": {' % echo)
        for i, (key, table, flipped) in enumerate(images):
            values = _float_texts(table)
            width = table.shape[1]
            entries = ",\n".join([
                _ENTRY_TEMPLATE % (*values[j * width : (j + 1) * width], SOURCES[f])
                for j, f in enumerate(flipped)
            ])
            body = f"[\n{entries}\n    ]" if entries else "[]"
            fh.write(f"{',' if i else ''}\n    {json.dumps(key)}: {body}")
        fh.write("\n  }\n}\n" if images else "}\n}\n")


_ENTRY_FIELDS = operator.itemgetter("bbox", "extremes", "score", "source")
_ROLE_FIELDS = operator.itemgetter(*KEYPOINT_CHANNELS)


def _entries_record(entries: list) -> Detections | None:
    """One image's entries as a record, or None when any entry is bad.

    Every entry's shape is checked first, then all of the image's numbers
    at once: not bools, finite as floats, each bbox the tight box of its
    extremes, and every source known.
    """
    if not entries:
        return Detections.of(())
    try:
        bboxes, extremes, scores, sources = zip(*map(_ENTRY_FIELDS, entries))
        pairs = list(chain.from_iterable(map(_ROLE_FIELDS, extremes)))
        # a bbox or pair that is not a list has no length, or yields keys or
        # characters below, which are not numbers
        if set(map(len, bboxes)) != {4} or set(map(len, pairs)) != {2}:
            return None
        values = [*chain.from_iterable(bboxes), *chain.from_iterable(pairs), *scores]
    except (KeyError, TypeError):  # an entry or its extremes not an object
        return None
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        table = np.fromiter(values, np.float64, len(values))
    except OverflowError:  # an int too large for a float
        return None
    n = len(entries)
    box, rows, scores = table[: 4 * n], table[4 * n : 14 * n], table[14 * n :]
    rows = rows.reshape(n, 10)
    # by ==, which is False for a JSON value that is not a string
    flipped = [s == "flipped" for s in sources]
    if (
        np.isfinite(table).all()
        and (box.reshape(n, 4) == rows[:, BOX_COLUMNS]).all()
        and sources.count("original") + sum(flipped) == n
    ):
        return Detections(rows, scores, np.array(flipped))
    return None


def _entry_error(entry) -> str:
    """What is wrong with one detections entry, as a path suffix and
    message, or '' when nothing is; shape before values."""
    if not isinstance(entry, dict):
        return ": expected an object"
    for key in ("bbox", "extremes", "score", "source"):
        if key not in entry:
            return f": missing field {key}"
    bbox = entry["bbox"]
    if not isinstance(bbox, list) or len(bbox) != 4:
        return ".bbox: expected [x1, y1, x2, y2] with finite numbers"
    ext = entry["extremes"]
    if not isinstance(ext, dict):
        return ".extremes: expected an object"
    values = bbox[:]
    for role in KEYPOINT_CHANNELS:
        if role not in ext:
            return f".extremes: missing {role}"
        pair = ext[role]
        if not isinstance(pair, list) or len(pair) != 2:
            return f".extremes.{role}: expected [x, y] with finite numbers"
        values += pair
    if not all(map(is_finite_number, values[:4])):
        return ".bbox: expected [x1, y1, x2, y2] with finite numbers"
    for j, role in enumerate(KEYPOINT_CHANNELS):
        if not all(map(is_finite_number, values[4 + 2 * j : 6 + 2 * j])):
            return f".extremes.{role}: expected [x, y] with finite numbers"
    box = [float(values[4 + i]) for i in BOX_COLUMNS]
    if [float(v) for v in values[:4]] != box:
        return f".bbox: {values[:4]} is not the tight box of the extremes, {box}"
    if not is_finite_number(entry["score"]):
        return ".score: expected a finite number"
    if entry["source"] not in SOURCES:
        return ".source: expected 'original' or 'flipped'"
    return ""


def read_detections(path: str | Path) -> tuple[dict[str, Detections], dict | None]:
    """Read a detections document; returns (per-image detections, config).

    Each image's entries are checked for shape, then for values all at
    once: numbers that are not bools and are finite as floats, a bbox that
    is the tight box of the extremes, and a known source. The first bad
    entry raises InputFormatError naming the file and the entry's path in
    it, such as ``d.json: images['k'][0].bbox``.
    """
    doc = load_json(path)
    if "images" not in doc:
        raise InputFormatError(f"{path}: missing top-level 'images' object")
    images = doc["images"]
    if not isinstance(images, dict):
        raise InputFormatError(f"{path}: 'images' must be an object")
    out: dict[str, Detections] = {}
    for key, entries in images.items():
        if not isinstance(entries, list):
            raise InputFormatError(f"{path}: images[{key!r}]: expected a list")
        out[key] = _entries_record(entries)
        if out[key] is None:
            i, error = next(
                (i, e) for i, e in enumerate(map(_entry_error, entries)) if e
            )
            raise InputFormatError(f"{path}: images[{key!r}][{i}]{error}")
    return out, doc.get("config")
