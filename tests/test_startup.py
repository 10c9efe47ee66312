"""Start-up: the package is a lazy namespace, and each CLI command loads only
the library modules it runs.

Module lists are taken in fresh child processes, since this process has
imported every module long before these tests run.
"""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recistkit
from recistkit import config
from recistkit.cli import main

SRC = str(Path(recistkit.__file__).resolve().parents[1])

# every name the package exported when it imported all of its modules,
# less the removed render_scene, apply_ct_window, scalar iou, BBox and
# smooth_l1 and the geometry helpers that RecistAnnotation and flip_scene
# replaced, plus evaluate
PUBLIC_NAMES = """
    Detection Detections DegradationConfig EvalConfig ExtremePoints
    FocalParams FrocPoint FrocResult GroupingConfig HeatmapBundle
    InputFormatError MatchResult ParseResult Peaks Point2 RecistAnnotation
    RenderConfig SoftNmsConfig Strata SyntheticScene
    TargetBundle detect enumerate_quadruples
    extract_peaks finite_diff_check
    evaluate flip_scene focal_loss focal_loss_grad froc fuse_tta gaussian_radius
    generate_scene match_detections offset_loss offset_loss_grad
    offset_target pad_bbox parse_annotations read_detections read_heatmaps
    refine_with_offsets render_targets simulate_heatmaps
    soft_nms stratified_froc unflip_detections write_annotations
    write_detections write_heatmaps
""".split()

# prints the recistkit submodules loaded after the code given as argv[1];
# the code's own stdout comes first
LOADED = """
import sys
exec(sys.argv[1])
print(" ".join(sorted(m[10:] for m in sys.modules if m.startswith("recistkit."))))
"""


def output_lines(code: str) -> list[str]:
    """The stdout lines of ``code`` run by ``LOADED`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def loaded_after(code: str) -> set[str]:
    """The recistkit submodules a fresh interpreter has loaded after ``code``."""
    return set(output_lines(code)[-1].split())


def recistkit_imports(tree: ast.AST) -> list[ast.AST]:
    """The import statements under ``tree`` that import a recistkit module."""
    def names(node) -> list[str]:
        if isinstance(node, ast.ImportFrom):  # a relative import is recistkit's
            return ["recistkit" if node.level else node.module or ""]
        return [alias.name for alias in node.names]

    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(name.split(".")[0] == "recistkit" for name in names(node))
    ]


def run_command(*argv) -> str:
    """Code that runs the CLI on ``argv`` and fails unless it exits 0."""
    return f"from recistkit.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"


def pipeline_commands(tmp_path) -> dict[str, list[tuple]]:
    """Simulates one scene and its flipped view under ``tmp_path``, then
    gives the argv of detect, fuse and eval on them, by command, in the
    order in which each one's inputs exist."""
    sim, flipped = tmp_path / "sim", tmp_path / "sim_flipped"
    assert main([
        "simulate", "--out", str(sim), "--flipped-out", str(flipped),
        "--image-size", "256", "--n-lesions", "2", "--scene-seed", "3",
    ]) == 0
    original_json, flipped_json = tmp_path / "o.json", tmp_path / "f.json"
    fused_json = tmp_path / "fused.json"
    return {
        "detect": [
            ("detect", "--heatmaps", sim, "--out", original_json),
            ("detect", "--heatmaps", flipped, "--out", flipped_json),
        ],
        "fuse": [
            ("fuse", "--original", original_json, "--flipped", flipped_json,
             "--image-width", 256, "--out", fused_json),
        ],
        "eval": [
            ("eval", "--detections", fused_json,
             "--annotations", sim / "annotations.csv",
             "--stratify", "diameter", "--out", tmp_path / "report"),
        ],
    }


class TestImportFootprint:
    def test_package_and_cli_load_only_config(self):
        assert loaded_after("import recistkit, recistkit.cli") == {"cli", "config"}

    def test_package_and_cli_leave_json_unloaded(self):
        # json takes milliseconds to import: only a command that reads JSON pays
        code = "import sys, recistkit, recistkit.cli\nprint('json' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.stdout == "False\n", proc.stderr

    def test_error_type_loads_no_other_module(self):
        assert loaded_after("import recistkit\nrecistkit.InputFormatError") == {
            "config"
        }

    def test_effective_config_of_a_bad_file_loads_no_other_module(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grouping": ')
        code = (
            "from recistkit import config\n"
            "try:\n"
            f"    config.effective({str(bad)!r}, {{}})\n"
            "except config.InputFormatError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-c", LOADED, code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        message, loaded = proc.stdout.splitlines()
        assert message.startswith(f"{bad}: malformed JSON: ")
        assert loaded == "config"

    def test_bare_package_loads_no_submodule(self):
        assert loaded_after("import recistkit") == set()

    def test_commands_load_only_what_they_run(self, tmp_path):
        never = {"synthetic", "rng", "losses"}
        unused = {
            "detect": never | {"evaluation", "fusion"},
            "fuse": never | {"evaluation"},
            "eval": never | {"fusion"},
        }
        for command, runs in pipeline_commands(tmp_path).items():
            for argv in runs:
                loaded = loaded_after(run_command(*argv))
                assert not loaded & unused[command], (command, sorted(loaded))
                assert {"cli", "config", "dataio"} <= loaded

    def test_only_detect_loads_a_thread_pool(self, tmp_path):
        commands = pipeline_commands(tmp_path)
        commands["render-targets"] = [(
            "render-targets", "--annotations", tmp_path / "sim" / "annotations.csv",
            "--input-size", 256, "--out", tmp_path / "rendered",
        )]
        check = "\nimport sys\nprint('concurrent.futures' in sys.modules)"
        for command, runs in commands.items():
            for argv in runs:
                pooled = output_lines(run_command(*argv) + check)[-2]
                assert pooled == str(command == "detect"), command

    def test_submodule_attribute_imports_it(self):
        code = "import recistkit\nprint(recistkit.grouping.detect.__module__)"
        # targets reads keypoints as numbers, so geometry stays unloaded
        assert loaded_after(code) == {"config", "grouping", "targets"}


class TestLazyNamespace:
    def test_all_is_the_public_api(self):
        assert sorted(recistkit.__all__) == sorted(PUBLIC_NAMES)

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_the_object_its_submodule_defines(self, name):
        value = getattr(recistkit, name)  # every public name is a class or function
        assert value.__module__.startswith("recistkit.")
        assert getattr(importlib.import_module(value.__module__), name) is value

    def test_sections_are_defined_once(self):
        from recistkit import evaluation, fusion, grouping, losses, targets

        assert grouping.GroupingConfig is config.GroupingConfig
        assert fusion.SoftNmsConfig is config.SoftNmsConfig
        assert losses.FocalParams is config.FocalParams
        assert evaluation.EvalConfig is config.EvalConfig
        assert targets.RenderConfig is config.RenderConfig
        for cls in config.SECTION_TYPES.values():
            assert cls.__module__ == "recistkit.config"

    def test_dir_lists_all_names_and_submodules(self):
        listed = set(dir(recistkit))
        assert set(recistkit.__all__) <= listed
        assert {"cli", "config", "grouping", "rng", "__version__"} <= listed

    def test_unknown_name_raises_attribute_error_naming_the_module(self):
        with pytest.raises(AttributeError, match="'recistkit' has no attribute 'nope'"):
            recistkit.nope  # noqa: B018
        assert not hasattr(recistkit, "nope")

    @pytest.mark.parametrize("name", ["apply_ct_window", "iou", "BBox"])
    def test_removed_name_is_not_listed_or_resolved(self, name):
        # a stale entry in the name table would resolve it from a module
        # that no longer defines it
        assert name not in dir(recistkit)
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(recistkit, name)

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from recistkit import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(recistkit.__all__)

    def test_section_keys_order_and_defaults_are_unchanged(self):
        # the config echo in every artifact is this document
        assert list(config.SECTION_TYPES) == [
            "grouping", "soft_nms", "focal", "eval", "render"
        ]
        assert json.dumps(config.DEFAULTS) == (
            '{"grouping": {"tau_e": 0.1, "tau_c": 0.1, "k1": 40, "k2": 100, '
            '"kernel": 3, "center_interp": "nearest"}, '
            '"soft_nms": {"sigma": 0.5, "score_floor": 0.001, '
            '"method": "gaussian", "linear_iou_threshold": 0.3}, '
            '"focal": {"alpha": 2.0, "beta": 4.0, "clamp_eps": 1e-12}, '
            '"eval": {"iou_threshold": 0.5, "pad": 5.0, '
            '"fp_targets": [0.5, 1.0, 2.0, 3.0, 4.0]}, '
            '"render": {"stride": 4, "input_size": 511, "min_overlap": 0.3, '
            '"sigma_divisor": 3.0}, '
            '"window_presets": [[50, 449], [-505, 1980], [446, 1960]]}'
        )
        for name, cls in config.SECTION_TYPES.items():
            assert dataclasses.asdict(cls()) == config.DEFAULTS[name]


# each int and float field's out-of-range values: a bound's far side, or the
# value that once passed unnamed; a seed may be any integer
OUT_OF_RANGE = {
    "tau_e": (1.5,), "tau_c": (-0.5,), "k1": (0,), "k2": (0,), "kernel": (2,),
    "sigma": (0.0,), "score_floor": (-0.5,), "linear_iou_threshold": (1.5,),
    "alpha": (0.0,), "beta": (-1.0,), "clamp_eps": (0.5,),
    "iou_threshold": (1.5,), "pad": (-1.0,),
    "stride": (0, 2**31), "input_size": (0, 2**31), "min_overlap": (1.5,),
    "sigma_divisor": (0.0,),
    "noise_sigma": (-0.1,), "peak_drop_prob": (1.5,), "spurious_rate": (-0.1,),
    "jitter_cells": (-1,), "seed": (),
}


class TestConfigIsTheRoot:
    # every module but cli, whose commands each import what they run
    MODULES = sorted(
        p for p in Path(recistkit.__file__).parent.glob("*.py") if p.name != "cli.py"
    )

    def test_config_imports_no_recistkit_module(self):
        tree = ast.parse(Path(config.__file__).read_text())
        assert recistkit_imports(tree) == []

    @pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
    def test_only_cli_imports_recistkit_inside_a_function(self, path):
        functions = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]
        late = [node.lineno for f in functions for node in recistkit_imports(f)]
        assert late == [], f"{path.name} imports recistkit at lines {late}"

    def test_one_error_type(self):
        from recistkit import dataio

        assert recistkit.InputFormatError is dataio.InputFormatError
        assert dataio.InputFormatError is config.InputFormatError
        assert config.load_json is dataio.load_json

    def test_sections_are_frozen_and_their_class_attributes_are_defaults(self):
        for name, cls in config.SECTION_TYPES.items():
            assert cls.__dataclass_params__.frozen, name
            assert not hasattr(cls, "__slots__"), name
            for key, value in config.DEFAULTS[name].items():
                if key != "fp_targets":  # a list, from a default factory
                    assert getattr(cls, key) == value, (name, key)
        assert config.GroupingConfig.tau_c == 0.1

    def test_effective_layers_defaults_file_and_overrides(self, tmp_path):
        cfg, sections = config.effective(None, {})
        assert cfg == config.DEFAULTS and cfg is not config.DEFAULTS
        assert sections == {
            name: cls() for name, cls in config.SECTION_TYPES.items()
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"grouping": {"k1": 7, "tau_c": 0.2}, "eval": {"pad": 1}}
        ))
        cfg, sections = config.effective(path, {"grouping": {"k1": 9}})
        assert cfg["grouping"] == {**config.DEFAULTS["grouping"], "k1": 9,
                                   "tau_c": 0.2}
        assert sections["grouping"] == config.GroupingConfig(k1=9, tau_c=0.2)
        assert sections["eval"].pad == 1
        assert list(cfg) == list(config.DEFAULTS)
        assert json.dumps(config.DEFAULTS["grouping"]) == (
            '{"tau_e": 0.1, "tau_c": 0.1, "k1": 40, "k2": 100, "kernel": 3, '
            '"center_interp": "nearest"}'
        )  # the layers never write into the defaults

    @pytest.mark.parametrize("document,overrides,message", [
        # the file is checked first, then the overrides, then the sections
        ("[1]", {"nope": 1}, "{path}: JSON root must be an object"),
        ('{"grouping": {"k1": "40"}}', {"nope": 1},
         "config key grouping.k1 must be of type int, got '40'"),
        ('{"grouping": {"kernel": 2}}', {"nope": 1}, "unknown config key: nope"),
        ('{"grouping": {"kernel": 2}}', {"eval": {"pad": -1.0}},
         "config section grouping: kernel must be odd, got 2"),
        ("{}", {"eval": {"pad": float("nan")}},
         "config key eval.pad must be finite, got nan"),
        ("{}", {"soft_nms": {"score_floor": -0.5}},
         "config section soft_nms: score_floor must lie in [0, inf), got -0.5"),
        ("{}", {"soft_nms": {"linear_iou_threshold": 1.5}},
         "config section soft_nms: linear_iou_threshold must lie in [0, 1], "
         "got 1.5"),
        ("{}", {"focal": {"beta": -1.0}},
         "config section focal: beta must lie in [0, inf), got -1.0"),
        ("{}", {"focal": {"alpha": 0.0}},
         "config section focal: alpha must lie in (0, inf), got 0.0"),
        ("{}", {"focal": {"clamp_eps": 0.5}},
         "config section focal: clamp_eps must lie in (0, 0.5), got 0.5"),
        ("{}", {"focal": {"clamp_eps": 0.0}},
         "config section focal: clamp_eps must lie in (0, 0.5), got 0.0"),
        ("{}", {"eval": []}, "config key eval must be an object"),
        ('{"eval": {"pad": NaN}}', {}, "{path}: non-finite number NaN is not JSON"),
    ])
    def test_errors_come_file_then_overrides_then_sections(
        self, tmp_path, document, overrides, message
    ):
        path = tmp_path / "cfg.json"
        path.write_text(document)
        with pytest.raises(config.InputFormatError) as excinfo:
            config.effective(path, overrides)
        assert str(excinfo.value) == message.format(path=path)

    # a refusal names its key first and the refused value last, for every
    # key; a key missing from OUT_OF_RANGE fails collection. A file or flag
    # never reaches a section with a non-finite number, a bool or a float in
    # an int field, as merge refuses it first, so each section is built
    # directly. Each of these was once accepted: a NaN or inf sigma,
    # score_floor, alpha or beta (soft_nms then dropped an overlapping
    # 0.8-scored detection under sigma NaN, and focal_loss returned NaN under
    # alpha NaN), True in every field but min_overlap and clamp_eps, and 2.5
    # in every int field but kernel. The same key at its default as a numpy
    # scalar is accepted: the rule judges a number's value, not its class
    @pytest.mark.parametrize("section,key,value", [
        (cls, f.name, value)
        for cls in (*config.SECTION_TYPES.values(), config.DegradationConfig)
        for f in dataclasses.fields(cls)
        if type(f.default) in (int, float)
        for value in (float("nan"), float("inf"), float("-inf"), True,
                      *[2.5] * (type(f.default) is int), *OUT_OF_RANGE[f.name])
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_refusal_names_its_key_and_value(self, section, key, value):
        with pytest.raises(ValueError) as excinfo:
            section(**{key: value})
        message = str(excinfo.value)
        assert message.startswith(f"{key} ") and message.endswith(f"got {value!r}")
        default = getattr(section, key)
        scalar = (np.int64 if type(default) is int else np.float64)(default)
        assert getattr(section(**{key: scalar}), key) == default
