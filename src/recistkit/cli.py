"""Command-line surface for the full pipeline.

Subcommands compose the library modules: render ground-truth heatmaps from
an annotation CSV, group heatmap bundles into detections, fuse flip-
augmented detections, evaluate FROC sensitivity, simulate degraded bundles,
check loss gradients, and window raw CT intensities.

Exit codes: 0 success, 2 usage error, 3 input-format error or unusable
input or output path, 4 internal invariant violation. Failed commands
remove their partial outputs. Given identical inputs, flags, and seeds
every command writes identical bytes; the worker count never changes
output content.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import config as config_mod
from .dataio import (
    InputFormatError,
    apply_ct_window,
    parse_annotations,
    read_detections,
    read_heatmaps,
    write_annotations,
    write_detections,
    write_heatmaps,
    write_json,
)
from .evaluation import (
    check_fp_targets,
    diameter_bucket,
    froc,
    interval_bucket,
    lesion_type_name,
    match_detections,
    stratified_froc,
)
from .fusion import fuse_tta
from .grouping import detect
from .losses import (
    FocalParams,
    finite_diff_check,
    focal_loss,
    focal_loss_grad,
    offset_loss,
    offset_loss_grad,
)
from .synthetic import (
    DegradationConfig,
    flip_scene,
    generate_scene,
    simulate_heatmaps,
)
from .targets import output_grid, render_targets

HEATMAP_SUFFIX = ".rkhm"


class _Outputs:
    """Tracks files and directories created by a command; leaving its
    ``with`` block on an exception removes the files, then the directories
    that are left empty."""

    def __init__(self) -> None:
        self.paths: list[Path] = []
        self.dirs: list[Path] = []

    def mkdir(self, path: Path) -> None:
        """Create directory ``path`` and its missing parents, recording each."""
        missing = []
        for directory in (path, *path.parents):
            if directory.exists():
                break
            missing.append(directory)
        for directory in reversed(missing):
            directory.mkdir()
            self.dirs.append(directory)
        path.mkdir(exist_ok=True)  # raises if path exists but is no directory

    def run(self, path: Path, writer) -> None:
        """Run a writer function against a temp path, then move into place."""
        tmp = path.with_name(path.name + ".tmp")
        try:
            writer(tmp)
            # unlink first: ext4 writes out at once a file renamed over another
            path.unlink(missing_ok=True)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.paths.append(path)

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            return
        for path in self.paths:
            try:
                path.unlink()
            except OSError:
                pass
        for directory in reversed(self.dirs):  # deepest first
            try:
                directory.rmdir()
            except OSError:  # not empty: it holds something we did not write
                pass


def _load_effective_config(args) -> tuple[dict, dict]:
    """Defaults, then the --config file, then explicit flags.

    Returns the merged config and its typed sections (see
    ``config.build_sections``).
    """
    overrides: dict[str, dict] = {}
    for flag, section, key, *_ in _CONFIG_FLAGS[args.command]:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            overrides.setdefault(section, {})[key] = value
    cfg = config_mod.merge(config_mod.load_config(args.config), overrides)
    return cfg, config_mod.build_sections(cfg)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_render_targets(args) -> int:
    cfg, sections = _load_effective_config(args)
    render = sections["render"]
    stride, input_size = render.stride, render.input_size
    out_h, out_w = output_grid((input_size, input_size), stride)

    parsed = parse_annotations(args.annotations, args.exclusions)
    by_image: dict[str, list] = {}
    for ann in parsed.annotations:
        by_image.setdefault(ann.file_name, []).append(ann)

    out_dir = Path(args.out)
    with _Outputs() as outputs:
        outputs.mkdir(out_dir)
        for key in sorted(by_image):
            if not key or Path(key).name != key:  # it names the output file
                raise InputFormatError(f"image key {key!r} is not a file name")
            extremes = [ann.extremes() for ann in by_image[key]]
            try:
                targets = render_targets(
                    extremes,
                    out_h,
                    out_w,
                    stride,
                    min_overlap=render.min_overlap,
                    sigma_divisor=render.sigma_divisor,
                    input_size=(input_size, input_size),
                )
            except ValueError as exc:
                raise InputFormatError(f"image {key}: {exc}") from None
            except MemoryError:
                raise InputFormatError(
                    f"config key render.input_size: the {out_w}x{out_h} heatmap "
                    f"planes of {input_size} px at stride {stride} cannot be allocated"
                ) from None
            outputs.run(
                out_dir / f"{key}{HEATMAP_SUFFIX}",
                lambda tmp, b=targets.bundle: write_heatmaps(b, tmp),
            )
        outputs.run(out_dir / "config.json", lambda tmp: write_json(cfg, tmp))

    if parsed.n_excluded:
        print(f"excluded {parsed.n_excluded} annotation row(s)")
    if parsed.inconsistent:
        print(
            f"warning: {len(parsed.inconsistent)} annotation(s) with "
            f"inconsistent bounding boxes: {', '.join(parsed.inconsistent)}"
        )
    print(f"wrote {len(by_image)} heatmap bundle(s) to {out_dir}")
    return 0


def _cmd_detect(args) -> int:
    cfg, sections = _load_effective_config(args)
    grouping_cfg = sections["grouping"]

    heatmap_dir = Path(args.heatmaps)
    files = sorted(heatmap_dir.glob(f"*{HEATMAP_SUFFIX}"))
    if not files:
        raise InputFormatError(f"no {HEATMAP_SUFFIX} files in {heatmap_dir}")

    def run_one(path: Path):
        bundle = read_heatmaps(path)
        try:
            return path.stem, detect(bundle, grouping_cfg)
        except MemoryError:
            raise InputFormatError(
                f"config keys grouping.kernel and grouping.k1: grouping {path.name} "
                f"with kernel {grouping_cfg.kernel} and k1 {grouping_cfg.k1} "
                "needs more memory than can be allocated"
            ) from None

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = dict(pool.map(run_one, files))

    outputs = _Outputs()
    outputs.run(
        Path(args.out),
        lambda tmp: write_detections(
            {key: results[key] for key in sorted(results)}, tmp, config=cfg
        ),
    )
    n_dets = sum(len(d) for d in results.values())
    print(f"wrote {n_dets} detection(s) over {len(results)} image(s) to {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    cfg, sections = _load_effective_config(args)
    nms_cfg = sections["soft_nms"]

    original, _ = read_detections(args.original)
    flipped, _ = read_detections(args.flipped)
    keys = sorted(set(original) | set(flipped))
    fused = {
        key: fuse_tta(
            original.get(key, []), flipped.get(key, []), args.image_width, nms_cfg
        )
        for key in keys
    }

    outputs = _Outputs()
    outputs.run(
        Path(args.out), lambda tmp: write_detections(fused, tmp, config=cfg)
    )
    n_dets = sum(len(d) for d in fused.values())
    print(f"wrote {n_dets} fused detection(s) over {len(keys)} image(s) to {args.out}")
    return 0


def _stratum_label(ann, key: str) -> str:
    if key == "type":
        return lesion_type_name(ann.lesion_type)
    if key == "diameter":
        return diameter_bucket(ann.long_diameter_mm)
    return interval_bucket(ann.slice_interval_mm)


def _format_report_text(result, strata, eval_cfg) -> str:
    def row(label: str, values) -> str:
        return label.ljust(14) + "".join(f"{v:>9}" for v in values)

    def fmt(value) -> str:
        if value is None or (isinstance(value, float) and math.isinf(value)):
            return "-"
        return f"{value:.4f}"

    lines = [
        f"FROC sensitivity (matching: IoU >= {eval_cfg.iou_threshold:g} "
        f"on boxes padded {eval_cfg.pad:g} px)",
        f"images: {result.n_images}    lesions: {result.n_lesions}",
        row("FPs/image", [f"{t:g}" for t in eval_cfg.fp_targets]),
        row("sensitivity", [fmt(p.sensitivity) for p in result.points]),
        row("threshold", [fmt(p.threshold) for p in result.points]),
    ]
    if strata is not None:
        lines.append("")
        lines.append(f"stratified by {strata.key}")
        for name in sorted(strata.per_stratum):
            sub = strata.per_stratum[name]
            lines.append(
                row(
                    f"{name} ({sub.n_lesions})",
                    [fmt(p.sensitivity) for p in sub.points],
                )
            )
    return "\n".join(lines) + "\n"


def _froc_to_dict(result) -> dict:
    return {
        "n_images": result.n_images,
        "n_lesions": result.n_lesions,
        "points": [
            {
                "fp_target": p.fp_target,
                "sensitivity": p.sensitivity,
                "threshold": None if math.isinf(p.threshold) else p.threshold,
                "fp_per_image": p.fp_per_image,
            }
            for p in result.points
        ],
    }


def _cmd_eval(args) -> int:
    cfg, sections = _load_effective_config(args)
    eval_cfg = sections["eval"]

    detections, _ = read_detections(args.detections)
    parsed = parse_annotations(args.annotations, args.exclusions)
    if parsed.n_excluded:
        print(f"excluded {parsed.n_excluded} annotation row(s)")
    if not parsed.annotations:
        raise InputFormatError(f"{args.annotations}: no lesions to evaluate against")
    gts_by_image: dict[str, list] = {}
    for ann in parsed.annotations:
        gts_by_image.setdefault(ann.file_name, []).append(ann)
    unknown = sorted(set(detections) - set(gts_by_image))
    if unknown:  # each is scored as one more image, of false positives only
        print(
            f"warning: {len(unknown)} detection image key(s) not in the "
            f"annotation CSV: {', '.join(unknown)}",
            file=sys.stderr,
        )

    keys = sorted(set(detections) | set(gts_by_image))
    matches, labels = [], []
    for key in keys:
        anns = gts_by_image.get(key, [])
        matches.append(
            match_detections(
                detections.get(key, []),
                [ann.bbox for ann in anns],
                iou_threshold=eval_cfg.iou_threshold,
                pad=eval_cfg.pad,
            )
        )
        if args.stratify:
            labels.append([_stratum_label(ann, args.stratify) for ann in anns])

    result = froc(matches, eval_cfg.fp_targets)
    strata = (
        stratified_froc(matches, labels, args.stratify, eval_cfg.fp_targets)
        if args.stratify
        else None
    )

    report = {
        "config": cfg,
        "criterion": "iou-on-padded-boxes",
        "froc": _froc_to_dict(result),
        "strata": None
        if strata is None
        else {
            "key": strata.key,
            "per_stratum": {
                name: _froc_to_dict(sub)
                for name, sub in strata.per_stratum.items()
            },
        },
    }
    text = _format_report_text(result, strata, eval_cfg)

    with _Outputs() as outputs:
        outputs.run(Path(args.out + ".json"), lambda tmp: write_json(report, tmp))
        encoded = text.encode("utf-8")
        outputs.run(Path(args.out + ".txt"), lambda tmp: tmp.write_bytes(encoded))
    print(text, end="")
    return 0


def _cmd_simulate(args) -> int:
    cfg, sections = _load_effective_config(args)
    render = sections["render"]
    stride = render.stride

    degradation_seed = (
        args.degradation_seed if args.degradation_seed is not None else args.scene_seed
    )
    degradation = DegradationConfig(
        noise_sigma=args.noise,
        peak_drop_prob=args.drop,
        spurious_rate=args.spurious,
        jitter_cells=args.jitter,
        seed=degradation_seed,
    )
    try:
        scene = generate_scene(
            args.n_lesions,
            image_size=(args.image_size, args.image_size),
            seed=args.scene_seed,
            clearance_stride=stride,
            clearance_tau=sections["grouping"].tau_c,
            min_overlap=render.min_overlap,
            sigma_divisor=render.sigma_divisor,
        )
        # (directory, scene, degradation) of the original view, then the flipped
        views = [(args.out, scene, degradation)]
        if args.flipped_out:
            flipped = dataclasses.replace(degradation, seed=degradation_seed + 1)
            views.append((args.flipped_out, flip_scene(scene), flipped))
        bundles = [
            simulate_heatmaps(view, view_degradation, stride,
                              min_overlap=render.min_overlap,
                              sigma_divisor=render.sigma_divisor)
            for _, view, view_degradation in views
        ]
    except ValueError as exc:
        print(f"error: usage: --n-lesions {args.n_lesions} at --stride {stride}: "
              f"{exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: usage: --image-size {args.image_size} at --stride {stride}: "
              "its heatmap planes cannot be allocated", file=sys.stderr)
        return 2

    key = f"syn_{args.scene_seed}"
    provenance = dict(cfg)
    provenance["simulate"] = {
        "scene_seed": args.scene_seed,
        "n_lesions": args.n_lesions,
        "image_size": args.image_size,
        "noise_sigma": args.noise,
        "peak_drop_prob": args.drop,
        "spurious_rate": args.spurious,
        "jitter_cells": args.jitter,
        "degradation_seed": degradation_seed,
    }

    with _Outputs() as outputs:
        for (out, _, _), bundle in zip(views, bundles):
            out_dir = Path(out)
            outputs.mkdir(out_dir)
            outputs.run(
                out_dir / f"{key}{HEATMAP_SUFFIX}",
                lambda tmp, b=bundle: write_heatmaps(b, tmp),
            )
            if bundle is bundles[0]:
                outputs.run(
                    out_dir / "annotations.csv",
                    lambda tmp: write_annotations(scene.annotations, tmp),
                )
            outputs.run(
                out_dir / "config.json", lambda tmp: write_json(provenance, tmp)
            )

    print(
        f"wrote synthetic bundle ({args.n_lesions} lesion(s), "
        f"seed {args.scene_seed}) to {args.out}"
    )
    return 0


def _small_offset_targets():
    """Two lesions on a 12x12 grid: compact planes for offset FD checks."""
    from .geometry import ExtremePoints, Point2

    def diamond(cx, cy, hw, hh):
        return ExtremePoints(
            top=Point2(cx, cy - hh), left=Point2(cx - hw, cy),
            bottom=Point2(cx, cy + hh), right=Point2(cx + hw, cy),
            center=Point2(cx, cy),
        )

    return render_targets(
        [diamond(14.5, 16.25, 9, 10), diamond(34.0, 30.75, 10, 8)], 12, 12, 4
    )


def _cmd_check_gradients(args) -> int:
    rng = np.random.default_rng(args.seed)
    offset_targets = _small_offset_targets()

    def draw(name: str) -> tuple[dict, np.ndarray]:
        """One trial's loss arguments besides the prediction, and the
        prediction, drawn from ``rng``."""
        if name == "offset":
            shape = offset_targets.bundle.offset_maps.shape
            return {"targets": offset_targets}, rng.uniform(0.0, 1.0, size=shape)
        pred = rng.uniform(0.05, 0.95, size=(8, 8))
        target = np.zeros((8, 8))
        peaks = int(rng.integers(1, 4))
        for _ in range(peaks):
            r, c = rng.integers(0, 8, size=2)
            target[r, c] = 1.0
        shoulders = rng.uniform(0.0, 0.99, size=(8, 8))
        target = np.where(target == 1.0, 1.0, shoulders * (rng.random((8, 8)) < 0.3))
        return {"target": target, "n_objects": peaks, "params": FocalParams()}, pred

    losses = {"focal": (focal_loss, focal_loss_grad),
              "offset": (offset_loss, offset_loss_grad)}
    # the offset check sweeps every plane cell, so fewer trials suffice
    trials = {"focal": args.trials, "offset": max(1, args.trials // 10)}
    worst = dict.fromkeys(trials, 0.0)
    for name in [name for name, n in trials.items() for _ in range(n)]:
        kwargs, pred = draw(name)
        loss, grad = (functools.partial(f, **kwargs) for f in losses[name])
        report = finite_diff_check(loss, grad, pred, tol=args.tol)
        worst[name] = max(worst[name], report.max_rel_err)
        if not report.passed:
            print(
                f"FAIL {name}: max_rel_err={report.max_rel_err:.3e} "
                f"at cell {report.worst_cell}"
            )
            return 4

    print(
        f"PASS: {trials['focal']} focal trials (max_rel_err={worst['focal']:.3e}), "
        f"{trials['offset']} offset trials (max_rel_err={worst['offset']:.3e}), "
        f"tol={args.tol:g}"
    )
    return 0


def _cmd_window(args) -> int:
    data = np.fromfile(args.infile, dtype="<f4")
    normalized = apply_ct_window(data, args.level, args.width).astype("<f4")
    outputs = _Outputs()
    outputs.run(Path(args.out), lambda tmp: tmp.write_bytes(normalized.tobytes()))
    print(f"windowed {data.size} value(s) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _checked(type_, ok, rule: str):
    """An argparse type: ``type_(raw)``, which must also satisfy ``ok``."""

    def parse(raw: str):
        value = type_(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {raw}")
        return value

    parse.__name__ = type_.__name__  # argparse names it in "invalid ... value"
    return parse


_positive_float = _checked(float, lambda v: v > 0, "> 0")
_positive_finite_float = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")
_finite_float = _checked(float, math.isfinite, "finite")
_nonnegative_float = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_probability = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_nonnegative_int = _checked(int, lambda v: v >= 0, ">= 0")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")


def _fps_list(raw: str) -> list[float]:
    try:
        values = [float(p) for p in raw.split(",") if p.strip()]
        check_fp_targets(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{raw!r}: {exc}") from None
    return values


# Flags that set one config key, per subcommand:
# (flag, section, key, type, choices, help).
_CONFIG_FLAGS = {
    "render-targets": [
        ("--input-size", "render", "input_size", int, None,
         "input pixels, square"),
        ("--stride", "render", "stride", int, None, "down-sampling factor"),
        ("--min-overlap", "render", "min_overlap", float, None,
         "kernel radius rule IoU"),
        ("--sigma-divisor", "render", "sigma_divisor", float, None,
         "kernel sigma = radius / divisor"),
    ],
    "detect": [
        ("--tau-e", "grouping", "tau_e", float, None,
         "extreme-peak threshold, strict"),
        ("--tau-c", "grouping", "tau_c", float, None,
         "center-response threshold, strict"),
        ("--k1", "grouping", "k1", int, None, "max peaks kept per map"),
        ("--k2", "grouping", "k2", int, None, "max combinations kept"),
        ("--kernel", "grouping", "kernel", int, None,
         "odd peak-suppression window"),
        ("--center-interp", "grouping", "center_interp", None,
         ["nearest", "bilinear"], "center map sampling"),
    ],
    "fuse": [
        ("--sigma", "soft_nms", "sigma", _positive_float, None,
         "gaussian decay bandwidth"),
        ("--score-floor", "soft_nms", "score_floor", float, None,
         "minimum retained score"),
        ("--method", "soft_nms", "method", None, ["gaussian", "linear"],
         "decay law"),
    ],
    "eval": [
        ("--iou", "eval", "iou_threshold", float, None, "match IoU threshold"),
        ("--pad", "eval", "pad", float, None, "detection box padding in px"),
        ("--fps", "eval", "fp_targets", _fps_list, None,
         "comma-separated FPs-per-image targets"),
    ],
    "simulate": [
        ("--stride", "render", "stride", int, None, "down-sampling factor"),
    ],
}


def _default_text(value) -> str:
    if isinstance(value, list):
        return ",".join(_default_text(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _add_config_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Add a subcommand's config-backed flags.

    Their argparse default stays None so that only an explicit flag
    overrides the config file; the help text shows the built-in default.
    """
    p.add_argument("--config", default=None, help="JSON config file")
    for flag, section, key, type_, choices, text in _CONFIG_FLAGS[command]:
        default = _default_text(config_mod.DEFAULTS[section][key])
        p.add_argument(flag, type=type_, choices=choices, default=None,
                       help=f"{text} (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recistkit",
        description="Keypoint-based lesion detection toolkit: targets, "
        "grouping, fusion, and FROC evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "render-targets",
        help="render ground-truth heatmap bundles from an annotation CSV",
    )
    p.add_argument("--annotations", required=True, help="annotation CSV path")
    p.add_argument("--exclusions", default=None,
                   help="file of keys to drop (default: none)")
    _add_config_flags(p, "render-targets")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_render_targets)

    p = sub.add_parser(
        "detect",
        help="group heatmap bundles into scored detections",
    )
    p.add_argument("--heatmaps", required=True, help="directory of bundles")
    _add_config_flags(p, "detect")
    p.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1,
                   help="images processed in parallel; output is identical "
                        "regardless (default: machine parallelism)")
    p.add_argument("--out", required=True, help="detections JSON path")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "fuse",
        help="merge original and flipped detections with Soft-NMS",
    )
    p.add_argument("--original", required=True, help="detections JSON")
    p.add_argument("--flipped", required=True,
                   help="detections JSON from the flipped view")
    p.add_argument("--image-width", type=_positive_finite_float, required=True,
                   help="width of the original image in pixels")
    _add_config_flags(p, "fuse")
    p.add_argument("--out", required=True, help="fused detections JSON path")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser(
        "eval",
        help="FROC sensitivity of detections against annotations",
    )
    p.add_argument("--detections", required=True, help="detections JSON")
    p.add_argument("--annotations", required=True, help="annotation CSV")
    p.add_argument("--exclusions", default=None,
                   help="file of keys to drop (default: none)")
    _add_config_flags(p, "eval")
    p.add_argument("--stratify", choices=["type", "diameter", "interval"],
                   default=None,
                   help="also report per-stratum sensitivity (default: off)")
    p.add_argument("--out", required=True, help="report path prefix (.json/.txt)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "simulate",
        help="write a synthetic degraded bundle plus its ground-truth CSV",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scene-seed", type=int, default=0,
                   help="scene RNG seed (default: 0)")
    p.add_argument("--n-lesions", type=_nonnegative_int, default=3,
                   help="lesions to place (default: 3)")
    p.add_argument("--image-size", type=_positive_int, default=768,
                   help="image pixels, square (default: 768)")
    p.add_argument("--noise", type=_nonnegative_float, default=0.0,
                   help="keypoint-map noise sigma (default: 0)")
    p.add_argument("--drop", type=_probability, default=0.0,
                   help="kernel drop probability (default: 0)")
    p.add_argument("--spurious", type=_nonnegative_float, default=0.0,
                   help="expected fake peaks per map (default: 0)")
    p.add_argument("--jitter", type=_nonnegative_int, default=0,
                   help="max peak-cell jitter in cells (default: 0)")
    p.add_argument("--degradation-seed", type=int, default=None,
                   help="degradation RNG seed (default: the scene seed)")
    p.add_argument("--flipped-out", default=None,
                   help="also write the flipped view's bundle here "
                        "(default: off)")
    _add_config_flags(p, "simulate")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "check-gradients",
        help="verify analytic loss gradients against finite differences",
    )
    p.add_argument("--trials", type=_positive_int, default=100,
                   help="random instances per loss (default: 100)")
    p.add_argument("--tol", type=_positive_finite_float, default=1e-5,
                   help="max relative error (default: 1e-5)")
    p.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="RNG seed (default: 0)")
    p.set_defaults(func=_cmd_check_gradients)

    p = sub.add_parser(
        "window",
        help="normalize raw float32 CT intensities to [0, 1]",
    )
    p.add_argument("--level", type=_finite_float, required=True,
                   help="window center in HU, finite")
    p.add_argument("--width", type=_positive_finite_float, required=True,
                   help="window width in HU, finite and > 0")
    p.add_argument("--in", dest="infile", required=True,
                   help="raw little-endian float32 input file")
    p.add_argument("--out", required=True,
                   help="raw little-endian float32 output file")
    p.set_defaults(func=_cmd_window)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: input-format: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # a missing input, or an output path that cannot be created or
        # replaced; the message names the path
        print(f"error: path: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - deliberate catch-all boundary
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
