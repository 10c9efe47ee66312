"""Command-line surface for the full pipeline.

Subcommands compose the library modules: render ground-truth heatmaps from
an annotation CSV, group heatmap bundles into detections, fuse flip-
augmented detections, evaluate FROC sensitivity, simulate degraded bundles,
and check loss gradients.

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
from pathlib import Path

import numpy as np

# each command imports the library modules it runs, so a process loads only
# those (see README, "Start-up")
from . import config as config_mod
from .config import DegradationConfig, InputFormatError

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
    """The config of a run and its typed sections (``config.effective``):
    the explicit flags, each set to its key, override the --config file."""
    section, flags = _CONFIG_FLAGS[args.command]
    overrides = {}
    for flag, key, _ in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            overrides[key] = value
    return config_mod.effective(args.config, {section: overrides})


# ---------------------------------------------------------------------------
# subcommands


def _cmd_render_targets(args) -> int:
    from .dataio import by_image, parse_annotations, write_heatmaps, write_json
    from .targets import output_grid, render_targets

    cfg, sections = _load_effective_config(args)
    render = sections["render"]
    stride, input_size = render.stride, render.input_size
    out_h, out_w = output_grid((input_size, input_size), stride)

    parsed = parse_annotations(args.annotations, args.exclusions)
    groups = by_image(parsed.annotations)

    out_dir = Path(args.out)
    with _Outputs() as outputs:
        outputs.mkdir(out_dir)
        for key in sorted(groups):
            if not key or "\0" in key or Path(key).name != key:  # the output's name
                raise InputFormatError(f"image key {key!r} is not a file name")
            extremes = [ann.extremes() for ann in groups[key]]
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
    print(f"wrote {len(groups)} heatmap bundle(s) to {out_dir}")
    return 0


def _cmd_detect(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from .dataio import read_heatmaps, write_detections
    from .grouping import detect

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
    from .dataio import read_detections, write_detections
    from .fusion import fuse_tta
    from .grouping import Detections

    cfg, sections = _load_effective_config(args)
    nms_cfg = sections["soft_nms"]

    original, _ = read_detections(args.original)
    flipped, _ = read_detections(args.flipped)
    keys = sorted(set(original) | set(flipped))
    empty = Detections.of(())
    fused = {
        key: fuse_tta(
            original.get(key, empty), flipped.get(key, empty), args.image_width, nms_cfg
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


def _cmd_eval(args) -> int:
    from .dataio import parse_annotations, read_detections, write_json
    from .evaluation import evaluate, format_report

    cfg, sections = _load_effective_config(args)
    eval_cfg = sections["eval"]

    detections, _ = read_detections(args.detections)
    parsed = parse_annotations(args.annotations, args.exclusions)
    if parsed.n_excluded:
        print(f"excluded {parsed.n_excluded} annotation row(s)")
    if not parsed.annotations:
        raise InputFormatError(f"{args.annotations}: no lesions to evaluate against")
    unknown = sorted(set(detections) - {ann.file_name for ann in parsed.annotations})
    if unknown:  # each is scored as one more image, of false positives only
        print(
            f"warning: {len(unknown)} detection image key(s) not in the "
            f"annotation CSV: {', '.join(unknown)}",
            file=sys.stderr,
        )

    report = {"config": cfg,
              **evaluate(detections, parsed.annotations, eval_cfg, args.stratify)}
    text = format_report(report, eval_cfg)

    with _Outputs() as outputs:
        outputs.run(Path(args.out + ".json"), lambda tmp: write_json(report, tmp))
        encoded = text.encode("utf-8")
        outputs.run(Path(args.out + ".txt"), lambda tmp: tmp.write_bytes(encoded))
    print(text, end="")
    return 0


def _cmd_simulate(args) -> int:
    from .dataio import write_annotations, write_heatmaps, write_json
    from .synthetic import flip_scene, generate_scene, simulate_heatmaps

    # realpath, unlike Path.resolve, does not raise on a symlink loop
    realpath = os.path.realpath
    if args.flipped_out and realpath(args.flipped_out) == realpath(args.out):
        print("error: usage: --out and --flipped-out are the same directory, "
              f"{args.out}", file=sys.stderr)
        return 2
    cfg, sections = _load_effective_config(args)
    render = sections["render"]
    stride = render.stride

    # the flag of each DegradationConfig field, the seed's among them
    flags = {field: flag for flag, (field, _) in _DEGRADATION_FLAGS.items()}
    flags["seed"] = ("--scene-seed" if args.degradation_seed is None
                     else "--degradation-seed")
    given = {field: getattr(args, flag[2:].replace("-", "_"))
             for field, flag in flags.items()}
    try:
        degradation = DegradationConfig(
            **{field: v for field, v in given.items() if v is not None})
        if args.flipped_out:  # the flipped view's seed is one more
            flipped = dataclasses.replace(degradation, seed=degradation.seed + 1)
    except ValueError as exc:  # its message starts with the field at fault
        print(f"error: usage: {flags[str(exc).split()[0]]}: {exc}", file=sys.stderr)
        return 2
    try:
        scene = generate_scene(
            args.n_lesions,
            image_size=(args.image_size, args.image_size),
            seed=args.scene_seed,
            render=render,
            grouping=sections["grouping"],
        )
        # (directory, scene, degradation) of the original view, then the flipped
        views = [(args.out, scene, degradation)]
        if args.flipped_out:
            views.append((args.flipped_out, flip_scene(scene), flipped))
        bundles = [
            simulate_heatmaps(view, view_degradation, stride,
                              min_overlap=render.min_overlap,
                              sigma_divisor=render.sigma_divisor)
            for _, view, view_degradation in views
        ]
    except ValueError as exc:
        print(f"error: usage: --n-lesions {args.n_lesions}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: usage: --image-size {args.image_size} at --stride {stride}: "
              "its heatmap planes cannot be allocated", file=sys.stderr)
        return 2

    key = f"syn_{args.scene_seed}"
    provenance = dict(cfg)
    degraded = dataclasses.asdict(degradation)
    degraded["degradation_seed"] = degraded.pop("seed")
    provenance["simulate"] = {
        "scene_seed": args.scene_seed,
        "n_lesions": args.n_lesions,
        "image_size": args.image_size,
        **degraded,
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
    from .targets import render_targets

    def diamond(cx, cy, hw, hh):
        """Top, left, bottom, right and center (x, y) keypoints."""
        return ((cx, cy - hh), (cx - hw, cy), (cx, cy + hh), (cx + hw, cy), (cx, cy))

    return render_targets(
        [diamond(14.5, 16.25, 9, 10), diamond(34.0, 30.75, 10, 8)], 12, 12, 4
    )


def _cmd_check_gradients(args) -> int:
    from .losses import (
        FocalParams,
        finite_diff_check,
        focal_loss,
        focal_loss_grad,
        offset_loss,
        offset_loss_grad,
    )

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


_positive_finite_float = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")
_nonnegative_int = _checked(int, lambda v: v >= 0, ">= 0")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
# an image side: the .rkhm header refuses a larger input width
_image_side = _checked(int, lambda v: 1 <= v <= config_mod.MAX_HEADER_INT,
                       f"in [1, {config_mod.MAX_HEADER_INT}]")


def _fps_list(raw: str) -> list[float]:
    try:
        return [float(p) for p in raw.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{raw!r}: {exc}") from None


# Flags that set one config key, per subcommand: the section they set, and
# (flag, key, help) per flag. A flag parses as its default's type; the
# section type judges the value, as it judges one from a config file.
_CONFIG_FLAGS = {
    "render-targets": ("render", [
        ("--input-size", "input_size", "input pixels, square"),
        ("--stride", "stride", "down-sampling factor"),
        ("--min-overlap", "min_overlap", "kernel radius rule IoU"),
        ("--sigma-divisor", "sigma_divisor", "kernel sigma = radius / divisor"),
    ]),
    "detect": ("grouping", [
        ("--tau-e", "tau_e", "extreme-peak threshold, strict"),
        ("--tau-c", "tau_c", "center-response threshold, strict"),
        ("--k1", "k1", "max peaks kept per map"),
        ("--k2", "k2", "max combinations kept"),
        ("--kernel", "kernel", "odd peak-suppression window"),
        ("--center-interp", "center_interp", "center lookup: nearest or bilinear"),
    ]),
    "fuse": ("soft_nms", [
        ("--sigma", "sigma", "gaussian decay bandwidth"),
        ("--score-floor", "score_floor", "minimum retained score"),
        ("--method", "method", "decay law: gaussian or linear"),
    ]),
    "eval": ("eval", [
        ("--iou", "iou_threshold", "match IoU threshold"),
        ("--pad", "pad", "detection box padding in px"),
        ("--fps", "fp_targets", "comma-separated FPs-per-image targets"),
    ]),
    "simulate": ("render", [("--stride", "stride", "down-sampling factor")]),
}

# simulate's degradation flags: the DegradationConfig field each sets, whose
# default and rule are the flag's, and its help
_DEGRADATION_FLAGS = {
    "--noise": ("noise_sigma", "keypoint-map noise sigma"),
    "--drop": ("peak_drop_prob", "kernel drop probability"),
    "--spurious": ("spurious_rate", "expected fake peaks per map"),
    "--jitter": ("jitter_cells", "max peak-cell jitter in cells"),
}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _default_text(value) -> str:
    if isinstance(value, list):
        return ",".join(_default_text(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _add_default_flag(p: argparse.ArgumentParser, flag: str, text: str,
                      default) -> None:
    """Add a flag that parses as ``default``'s type. Its argparse default
    stays None so that only an explicit flag overrides; the help text
    shows ``default``."""
    type_ = _fps_list if isinstance(default, list) else type(default)
    p.add_argument(flag, type=type_, default=None,
                   help=f"{text} (default: {_default_text(default)})")


def _add_config_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Add a subcommand's config-backed flags, which override the config
    file, each showing its built-in default."""
    p.add_argument("--config", default=None, help="JSON config file")
    section, flags = _CONFIG_FLAGS[command]
    for flag, key, text in flags:
        _add_default_flag(p, flag, text, config_mod.DEFAULTS[section][key])


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
    p.add_argument("--workers", type=_positive_int, default=_usable_cpus(),
                   help="images processed in parallel; output is identical "
                        "regardless (default: the CPUs this process may run "
                        "on)")
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
    p.add_argument("--n-lesions", type=int, default=3,
                   help="lesions to place (default: 3)")
    p.add_argument("--image-size", type=_image_side, default=768,
                   help="image pixels, square (default: 768)")
    for flag, (field, text) in _DEGRADATION_FLAGS.items():
        _add_default_flag(p, flag, text, getattr(DegradationConfig, field))
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

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # a missing input, or an output path that cannot be created or
        # replaced; the message names the path
        print(f"error: path: {exc}", file=sys.stderr)
        return 3
    except InputFormatError as exc:
        print(f"error: input-format: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - deliberate catch-all boundary
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
