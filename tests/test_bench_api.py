"""The library surface the bench harness uses stays in place.

``bench/workloads.py`` is read here as text and never imported or edited:
every name it imports from recistkit must resolve, and the ground truth it
builds, keyword-built ``ExtremePoints`` of ``Point2`` and a parsed
annotation's ``extremes()`` and ``bbox``, must still feed
``render_targets`` and ``match_detections``. It passes ``workers=1`` to
``detect`` and ``enumerate_quadruples``, the one value they take.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from recistkit import (
    Detections, GroupingConfig, detect, enumerate_quadruples, extract_peaks,
    match_detections, render_targets,
)
from recistkit.dataio import parse_annotations, write_annotations
from recistkit.geometry import ExtremePoints, Point2
from recistkit.synthetic import generate_scene
from recistkit.targets import EXTREME_ROLES
from tests.test_detection_rows import noisy_views
from tests.test_fusion import make_detection

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def recistkit_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from recistkit... import name`` in the
    bench workloads."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").split(".")[0] == "recistkit"
        for alias in node.names
    ]


def test_workloads_import_recistkit_names():
    pairs = recistkit_imports()
    modules = {module for module, _ in pairs}
    assert {"recistkit", "recistkit.geometry"} <= modules
    assert ("recistkit.geometry", "ExtremePoints") in pairs
    assert ("recistkit.geometry", "Point2") in pairs


@pytest.mark.parametrize("module,name", recistkit_imports(),
                         ids=lambda v: v.rsplit(".", 1)[-1])
def test_every_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def diamond(cx, cy, hw, hh):
    """A lesion built as the bench builds one, by keyword."""
    return ExtremePoints(
        top=Point2(cx, cy - hh), left=Point2(cx - hw, cy),
        bottom=Point2(cx, cy + hh), right=Point2(cx + hw, cy),
        center=Point2(cx, cy),
    )


def test_keyword_built_extremes_render():
    lesions = [diamond(14.5, 16.25, 9, 10), diamond(34.0, 30.75, 10, 8)]
    targets = render_targets(lesions, 12, 12, 4)
    assert targets.n_objects == 2
    assert targets.gt_cells.tolist() == [
        [[1, 3], [4, 1], [6, 3], [4, 5]], [[5, 8], [7, 6], [9, 8], [7, 11]],
    ]
    assert lesions[0].top == (14.5, 6.25) and lesions[0].center.y == 16.25


def test_parsed_extremes_and_boxes_feed_render_and_match(tmp_path):
    scene = generate_scene(3, image_size=(256, 256), seed=5)
    path = tmp_path / "scene.csv"
    write_annotations(scene.annotations, path)
    parsed = parse_annotations(path).annotations
    targets = render_targets([a.extremes() for a in parsed], 64, 64, 4,
                             input_size=(256, 256))
    assert targets.n_objects == 3
    # a detection on each lesion's tight box matches its padded box
    dets = []
    for a in parsed:
        e = a.extremes()
        dets.append(make_detection(e.left.x, e.top.y, e.right.x, e.bottom.y, 0.9))
    match = match_detections(Detections.of(dets), [a.bbox for a in parsed])
    assert match.n_gt == 3
    assert sorted(r.gt_index for r in match.records) == [0, 1, 2]
    assert np.asarray([a.bbox for a in parsed]).shape == (3, 4)


def peaks_of(bundle, cfg):
    return {
        role: extract_peaks(bundle.keypoint_map(role), cfg, role)
        for role in EXTREME_ROLES
    }


def test_workers_1_keyword_is_the_default():
    cfg = GroupingConfig()
    for bundle in noisy_views(7):
        peaks, center = peaks_of(bundle, cfg), bundle.keypoint_map("center")
        assert enumerate_quadruples(peaks, center, cfg, workers=1) == (
            enumerate_quadruples(peaks, center, cfg)
        )
        assert detect(bundle, cfg, workers=1) == detect(bundle, cfg)


def test_other_workers_raise_naming_the_cli_flag():
    cfg = GroupingConfig()
    bundle = noisy_views(7)[0]
    peaks, center = peaks_of(bundle, cfg), bundle.keypoint_map("center")
    with pytest.raises(ValueError, match="detect --workers"):
        detect(bundle, cfg, workers=2)
    with pytest.raises(ValueError, match="detect --workers"):
        enumerate_quadruples(peaks, center, cfg, workers=2)
