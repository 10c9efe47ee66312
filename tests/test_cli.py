"""Command-line surface: end-to-end flows, exit codes, byte determinism,
config layering, partial-output cleanup, and re-runs into the same paths."""

import argparse
import csv
import dataclasses
import errno
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from recistkit import cli, dataio, grouping
from recistkit.cli import main
from recistkit.dataio import read_detections, read_heatmaps


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--scene-seed", 11, "--n-lesions", 3) == 0
    return out


class TestSimulate:
    def test_outputs(self, sim_dir):
        assert (sim_dir / "syn_11.rkhm").exists()
        assert (sim_dir / "annotations.csv").exists()
        config = json.loads((sim_dir / "config.json").read_text())
        assert config["simulate"]["scene_seed"] == 11
        bundle = read_heatmaps(sim_dir / "syn_11.rkhm")
        assert bundle.stride == 4

    def test_byte_determinism_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--out", out, "--scene-seed", 3,
                       "--n-lesions", 2, "--noise", 0.05) == 0
        for name in ("syn_3.rkhm", "annotations.csv", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_echo_holds_the_built_degradation(self, tmp_path):
        from recistkit.config import DegradationConfig

        out = tmp_path / "o"
        assert run("simulate", "--out", out, "--scene-seed", 5, "--n-lesions", 2,
                   "--noise", 0.05, "--drop", 0.25, "--spurious", 1.5,
                   "--jitter", 2, "--degradation-seed", 9) == 0
        block = json.loads((out / "config.json").read_text())["simulate"]
        built = DegradationConfig(noise_sigma=0.05, peak_drop_prob=0.25,
                                  spurious_rate=1.5, jitter_cells=2, seed=9)
        fields = dataclasses.asdict(built)
        fields["degradation_seed"] = fields.pop("seed")
        assert block == {"scene_seed": 5, "n_lesions": 2, "image_size": 768,
                         **fields}
        assert type(block["jitter_cells"]) is int

    def test_flipped_output(self, tmp_path):
        out, flipped = tmp_path / "o", tmp_path / "f"
        assert run("simulate", "--out", out, "--flipped-out", flipped,
                   "--scene-seed", 4, "--n-lesions", 2) == 0
        assert (flipped / "syn_4.rkhm").exists()


class TestDetectEvalFlow:
    def test_zero_noise_round_trip_perfect_sensitivity(self, sim_dir, tmp_path):
        dets_path = tmp_path / "dets.json"
        assert run("detect", "--heatmaps", sim_dir, "--out", dets_path) == 0
        report = tmp_path / "report"
        assert run("eval", "--detections", dets_path,
                   "--annotations", sim_dir / "annotations.csv",
                   "--out", report) == 0
        doc = json.loads((report.with_suffix(".json")).read_text())
        points = doc["froc"]["points"]
        assert [p["fp_target"] for p in points] == [0.5, 1.0, 2.0, 3.0, 4.0]
        assert all(p["sensitivity"] == 1.0 for p in points)
        assert points[0]["fp_per_image"] == 0.0
        assert (report.with_suffix(".txt")).exists()

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_zero_noise_stride_8_perfect_sensitivity(self, seed, tmp_path):
        sim = tmp_path / "sim"
        assert run("simulate", "--out", sim, "--scene-seed", seed,
                   "--n-lesions", 4, "--stride", 8) == 0
        assert read_heatmaps(sim / f"syn_{seed}.rkhm").stride == 8
        dets_path = tmp_path / "dets.json"
        assert run("detect", "--heatmaps", sim, "--out", dets_path) == 0
        report = tmp_path / "report"
        assert run("eval", "--detections", dets_path,
                   "--annotations", sim / "annotations.csv",
                   "--out", report) == 0
        points = json.loads(report.with_suffix(".json").read_text())["froc"]["points"]
        assert [p["sensitivity"] for p in points if p["fp_target"] == 4.0] == [1.0]

    @pytest.mark.parametrize("seed,n_lesions", [(1, 3), (60, 3), (8, 5)])
    def test_clean_scene_decodes_to_itself_under_bilinear(self, seed, n_lesions,
                                                          tmp_path):
        # simulate's clearance check groups with the run's whole grouping
        # section; with tau_c alone, seed 1 decoded to 5 detections
        config = _cfg({"grouping": {"center_interp": "bilinear"}})(tmp_path, None)
        sim, dets_path = tmp_path / "sim", tmp_path / "dets.json"
        assert run("simulate", "--out", sim, "--scene-seed", seed,
                   "--n-lesions", n_lesions, "--config", config) == 0
        assert run("detect", "--heatmaps", sim, "--config", config,
                   "--out", dets_path) == 0
        found = read_detections(dets_path)[0][f"syn_{seed}"]
        truth = dataio.parse_annotations(sim / "annotations.csv").annotations
        tight = [a.extremes() for a in truth]
        assert sorted(found.rows[:, grouping.BOX_COLUMNS].tolist()) == sorted(
            [e.left.x, e.top.y, e.right.x, e.bottom.y] for e in tight)

    def test_detect_workers_byte_identical(self, sim_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("detect", "--heatmaps", sim_dir, "--workers", 1, "--out", a) == 0
        assert run("detect", "--heatmaps", sim_dir, "--workers", 4, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_default_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        def default_workers():
            args = ["detect", "--heatmaps", "h", "--out", "o"]
            return cli.build_parser().parse_args(args).workers

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # pinned to two of the machine's eight CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        assert default_workers() == 2
        # a platform without affinity masks
        monkeypatch.delattr(os, "sched_getaffinity")
        assert default_workers() == 8

    def test_detect_flag_overrides_config_file(self, sim_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grouping": {"tau_c": 0.9}}))
        out = tmp_path / "d.json"
        assert run("detect", "--heatmaps", sim_dir, "--config", cfg_file,
                   "--tau-c", 0.05, "--out", out) == 0
        _, config = read_detections(out)
        assert config["grouping"]["tau_c"] == 0.05

    def test_eval_empty_detections_zero_sensitivity(self, sim_dir, tmp_path):
        dets_path = tmp_path / "none.json"
        dets_path.write_text(json.dumps({"config": None, "images": {}}))
        report = tmp_path / "r"
        assert run("eval", "--detections", dets_path,
                   "--annotations", sim_dir / "annotations.csv",
                   "--out", report) == 0
        doc = json.loads(report.with_suffix(".json").read_text())
        assert all(p["sensitivity"] == 0.0 for p in doc["froc"]["points"])

    def test_eval_warns_about_unknown_image_keys(self, sim_dir, tmp_path, capsys):
        dets_path = tmp_path / "dets.json"
        assert run("detect", "--heatmaps", sim_dir, "--out", dets_path) == 0
        argv = ["eval", "--detections", dets_path,
                "--annotations", sim_dir / "annotations.csv",
                "--out", tmp_path / "r"]
        capsys.readouterr()
        assert run(*argv) == 0
        assert "warning" not in capsys.readouterr().err
        doc = json.loads(dets_path.read_text())
        doc["images"]["not_in_csv"] = doc["images"]["zz"] = doc["images"]["syn_11"]
        dets_path.write_text(json.dumps(doc))
        assert run(*argv) == 0
        out, err = capsys.readouterr()
        assert err == (
            "warning: 2 detection image key(s) not in the annotation CSV: "
            "not_in_csv, zz\n"
        )
        assert "images: 3" in out  # each is scored as an image of false positives

    def test_eval_stratified(self, sim_dir, tmp_path):
        dets_path = tmp_path / "dets.json"
        run("detect", "--heatmaps", sim_dir, "--out", dets_path)
        report = tmp_path / "r"
        assert run("eval", "--detections", dets_path,
                   "--annotations", sim_dir / "annotations.csv",
                   "--stratify", "type", "--out", report) == 0
        doc = json.loads(report.with_suffix(".json").read_text())
        assert doc["strata"]["key"] == "type"
        assert len(doc["strata"]["per_stratum"]) >= 1

    def test_eval_stratified_by_interval(self, sim_dir, tmp_path):
        dets_path = tmp_path / "dets.json"
        assert run("detect", "--heatmaps", sim_dir, "--out", dets_path) == 0
        report = tmp_path / "r"
        assert run("eval", "--detections", dets_path,
                   "--annotations", sim_dir / "annotations.csv",
                   "--stratify", "interval", "--out", report) == 0
        doc = json.loads(report.with_suffix(".json").read_text())
        assert doc["strata"]["key"] == "interval"
        # the simulator writes a 1 mm slice interval
        assert list(doc["strata"]["per_stratum"]) == ["<2.5"]
        assert doc["strata"]["per_stratum"]["<2.5"]["n_lesions"] == 3

    def test_eval_fps_list(self, sim_dir, tmp_path):
        dets_path = tmp_path / "dets.json"
        assert run("detect", "--heatmaps", sim_dir, "--out", dets_path) == 0
        report = tmp_path / "r"
        assert run("eval", "--detections", dets_path,
                   "--annotations", sim_dir / "annotations.csv",
                   "--fps", "1,2", "--out", report) == 0
        doc = json.loads(report.with_suffix(".json").read_text())
        assert doc["config"]["eval"]["fp_targets"] == [1.0, 2.0]
        assert [p["fp_target"] for p in doc["froc"]["points"]] == [1.0, 2.0]
        assert "FPs/image             1        2\n" in (
            report.with_suffix(".txt").read_text())

    def test_eval_reports_excluded_rows(self, sim_dir, tmp_path, capsys):
        csv_path, exclusions = _csv_with_excluded_key(sim_dir, tmp_path)
        dets_path = tmp_path / "dets.json"
        assert run("detect", "--heatmaps", sim_dir, "--out", dets_path) == 0
        capsys.readouterr()
        report = tmp_path / "r"
        assert run("eval", "--detections", dets_path, "--annotations", csv_path,
                   "--exclusions", exclusions, "--out", report) == 0
        out = capsys.readouterr().out
        assert out.startswith("excluded 1 annotation row(s)\n")
        assert "images: 1    lesions: 3" in out


class TestFuseFlow:
    def test_tta_round_trip(self, tmp_path):
        sim, flip = tmp_path / "s", tmp_path / "f"
        run("simulate", "--out", sim, "--flipped-out", flip,
            "--scene-seed", 21, "--n-lesions", 2)
        d_orig, d_flip = tmp_path / "o.json", tmp_path / "fl.json"
        run("detect", "--heatmaps", sim, "--out", d_orig)
        run("detect", "--heatmaps", flip, "--out", d_flip)
        fused = tmp_path / "fused.json"
        assert run("fuse", "--original", d_orig, "--flipped", d_flip,
                   "--image-width", 768, "--out", fused) == 0
        report = tmp_path / "r"
        assert run("eval", "--detections", fused,
                   "--annotations", sim / "annotations.csv",
                   "--out", report) == 0
        doc = json.loads(report.with_suffix(".json").read_text())
        assert doc["froc"]["points"][0]["sensitivity"] == 1.0


class TestRenderTargets:
    def test_renders_per_image_key(self, sim_dir, tmp_path):
        out = tmp_path / "rendered"
        assert run("render-targets", "--annotations", sim_dir / "annotations.csv",
                   "--input-size", 768, "--out", out) == 0
        files = sorted(out.glob("*.rkhm"))
        assert [f.stem for f in files] == ["syn_11"]
        bundle = read_heatmaps(files[0])
        assert bundle.grid_shape == (192, 192)
        assert bundle.input_size == (768, 768)
        assert (out / "config.json").exists()
        # the clean simulation's CSV renders to its own bundle, byte for byte:
        # what the writer wrote, the reader read back unchanged
        assert files[0].read_bytes() == (sim_dir / "syn_11.rkhm").read_bytes()

    def test_default_input_size_511_gives_128_cells(self, tmp_path):
        from recistkit.dataio import write_annotations
        from recistkit.synthetic import generate_scene

        scene = generate_scene(1, image_size=(511, 511), seed=30)
        csv = tmp_path / "a.csv"
        write_annotations(scene.annotations, csv)
        out = tmp_path / "rendered"
        assert run("render-targets", "--annotations", csv, "--out", out) == 0
        bundle = read_heatmaps(next(out.glob("*.rkhm")))
        assert bundle.grid_shape == (128, 128)

    def test_reports_excluded_rows(self, sim_dir, tmp_path, capsys):
        csv_path, exclusions = _csv_with_excluded_key(sim_dir, tmp_path)
        out = tmp_path / "rendered"
        assert run("render-targets", "--annotations", csv_path,
                   "--exclusions", exclusions, "--input-size", 768,
                   "--out", out) == 0
        assert capsys.readouterr().out == (
            f"excluded 1 annotation row(s)\nwrote 1 heatmap bundle(s) to {out}\n"
        )
        assert [f.name for f in out.glob("*.rkhm")] == ["syn_11.rkhm"]

    def test_oversized_coordinates_exit_3(self, sim_dir, tmp_path):
        out = tmp_path / "rendered"
        code = run("render-targets", "--annotations", sim_dir / "annotations.csv",
                   "--input-size", 64, "--out", out)
        assert code == 3
        assert not list(out.glob("*.rkhm"))  # partial outputs removed


def _csv_with_excluded_key(sim_dir, tmp_path):
    """The simulated CSV plus a copy of its first row under the key
    ``excluded``, and an exclusion list naming that key."""
    lines = (sim_dir / "annotations.csv").read_bytes().splitlines(keepends=True)
    csv_path = tmp_path / "with_excluded.csv"
    csv_path.write_bytes(b"".join(lines) + lines[1].replace(b"syn_11", b"excluded"))
    exclusions = tmp_path / "exclusions.txt"
    exclusions.write_text("# rows to drop\nexcluded\n")
    return csv_path, exclusions


class TestErrorPaths:
    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", "--no-such-flag", "x"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_heatmap_dir_exit_3(self, tmp_path):
        assert run("detect", "--heatmaps", tmp_path / "nope",
                   "--out", tmp_path / "d.json") == 3

    @pytest.mark.parametrize("kernel", [99999, 2**31 - 1])
    def test_kernel_past_the_grid_keeps_the_whole_grid_window(self, kernel,
                                                              tmp_path, capsys):
        # such kernels used to end in a MemoryError, exit 4
        sim = tmp_path / "sim"
        assert run("simulate", "--out", sim, "--n-lesions", 1,
                   "--image-size", 128) == 0
        wide, whole = tmp_path / "wide.json", tmp_path / "whole.json"
        code = run("detect", "--heatmaps", sim, "--kernel", kernel, "--out", wide)
        assert code == 0, capsys.readouterr().err
        # the 32 x 32 output grid's whole-grid window
        assert run("detect", "--heatmaps", sim, "--kernel", 63, "--out", whole) == 0
        assert read_detections(wide)[0] == read_detections(whole)[0]

    def test_grouping_out_of_memory_exit_3(self, sim_dir, tmp_path, capsys,
                                           monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(grouping, "detect", out_of_memory)
        out = tmp_path / "d.json"
        assert run("detect", "--heatmaps", sim_dir, "--out", out) == 3
        assert "config keys grouping.kernel and grouping.k1" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_error_exit_4(self, sim_dir, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("an invariant broke")
        monkeypatch.setattr(grouping, "detect", broken)
        out = tmp_path / "d.json"
        assert run("detect", "--heatmaps", sim_dir, "--out", out) == 4
        assert capsys.readouterr().err == (
            "error: internal: RuntimeError: an invariant broke\n"
        )
        assert not out.exists()

    def test_corrupt_heatmap_exit_3_no_partial_output(self, tmp_path):
        bad_dir = tmp_path / "bundles"
        bad_dir.mkdir()
        (bad_dir / "x.rkhm").write_bytes(b"garbage")
        out = tmp_path / "d.json"
        assert run("detect", "--heatmaps", bad_dir, "--out", out) == 3
        assert not out.exists()

    def test_unknown_config_key_exit_3(self, tmp_path, sim_dir):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"groupings": {}}))
        assert run("detect", "--heatmaps", sim_dir, "--config", cfg,
                   "--out", tmp_path / "d.json") == 3

    def test_malformed_csv_exit_3(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("File_name\nonly-one-column\n")
        assert run("eval", "--detections", tmp_path / "missing.json",
                   "--annotations", csv, "--out", tmp_path / "r") == 3

    def test_simulate_out_through_a_symlink_loop_exit_3(self, tmp_path, capsys):
        # comparing --out with --flipped-out must not fail on the loop itself
        (tmp_path / "a").symlink_to("b")
        (tmp_path / "b").symlink_to("a")
        assert run("simulate", "--out", tmp_path / "a" / "x",
                   "--flipped-out", tmp_path / "flip") == 3
        assert capsys.readouterr().err.startswith("error: path: ")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "a", tmp_path / "b"]

    def test_failed_command_keeps_what_it_did_not_write(self, tmp_path,
                                                         monkeypatch, capsys):
        # while simulate writes, something else removes one of its outputs
        # and adds a file of its own to the new output directory
        out = tmp_path / "new" / "sim"

        def interfered_write_json(obj, path):
            (out / "syn_0.rkhm").unlink()
            (out / "notes.txt").write_text("not simulate's")
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(dataio, "write_json", interfered_write_json)
        assert run("simulate", "--out", out, "--n-lesions", 1,
                   "--image-size", 128) == 3
        # the command's own error, not one of the clean-up
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [
            tmp_path / "new", out, out / "notes.txt"]


# Argument builders for the exit-code table: each returns a function of
# (tmp_path, sim_dir) that writes its input file and returns the path.


def _cfg(doc):
    def build(tmp_path, sim_dir):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path
    return build


def _bundles(**header_changes):
    """A copy of the simulated bundle with some header values replaced."""
    def build(tmp_path, sim_dir):
        data = (sim_dir / "syn_11.rkhm").read_bytes()
        start = len(b"RKHM1\n")
        end = data.index(b"\n", start)
        header = json.loads(data[start:end])
        header.update(header_changes)
        out = tmp_path / "bundles"
        out.mkdir()
        (out / "syn_11.rkhm").write_bytes(
            data[:start] + json.dumps(header).encode() + data[end:]
        )
        return out
    return build


def _dets(**changes):
    """A one-detection document with some fields replaced."""
    def build(tmp_path, sim_dir):
        det = {
            "bbox": [100.0, 100.0, 150.0, 150.0],
            "extremes": {"top": [125.0, 100.0], "left": [100.0, 125.0],
                         "bottom": [125.0, 150.0], "right": [150.0, 125.0],
                         "center": [125.0, 125.0]},
            "score": 0.5,
            "source": "original",
        }
        det.update(changes)
        path = tmp_path / "dets.json"
        path.write_text(json.dumps({"config": None, "images": {"syn_11": [det]}}))
        return path
    return build


def _bundle_value(channel, value):
    """A copy of the simulated bundle with one cell of one plane replaced."""
    def build(tmp_path, sim_dir):
        data = bytearray((sim_dir / "syn_11.rkhm").read_bytes())
        start = data.index(b"\n", len(b"RKHM1\n")) + 1
        cell = start + 4 * (channel * 192 * 192 + 100 * 192 + 100)
        data[cell:cell + 4] = np.array([value], dtype="<f4").tobytes()
        out = tmp_path / "bundles"
        out.mkdir()
        (out / "syn_11.rkhm").write_bytes(bytes(data))
        return out
    return build


def _rkhm_header(line):
    """A copy of the simulated bundle whose header line is ``line``."""
    def build(tmp_path, sim_dir):
        data = (sim_dir / "syn_11.rkhm").read_bytes()
        start = len(b"RKHM1\n")
        out = tmp_path / "bundles"
        out.mkdir()
        (out / "syn_11.rkhm").write_bytes(
            data[:start] + line + data[data.index(b"\n", start):]
        )
        return out
    return build


def _renamed(build, name):
    """``build``'s input file, moved to ``name`` in the same directory."""
    def moved(tmp_path, sim_dir):
        return build(tmp_path, sim_dir).rename(tmp_path / name)
    return moved


def _dets_config(config):
    """The one-detection document with a config echo."""
    def build(tmp_path, sim_dir):
        path = _dets()(tmp_path, sim_dir)
        doc = json.loads(path.read_text())
        doc["config"] = config
        path.write_text(json.dumps(doc))
        return path
    return build


def _huge(build, digits):
    """``build``'s input with each string "<huge>" in it replaced by an
    integer literal of ``digits`` digits."""
    def wrapped(tmp_path, sim_dir):
        path = build(tmp_path, sim_dir)
        target = next(path.glob("*.rkhm")) if path.is_dir() else path
        literal = b"1" + b"0" * (digits - 1)
        target.write_bytes(target.read_bytes().replace(b'"<huge>"', literal))
        return path
    return wrapped


def _file(name, data):
    """A file ``name`` holding the bytes ``data``."""
    def build(tmp_path, sim_dir):
        path = tmp_path / name
        path.write_bytes(data)
        return path
    return build


def _header_only_csv(tmp_path, sim_dir):
    from recistkit.dataio import CSV_COLUMNS

    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n")
    return path


def _sim_dir(tmp_path, sim_dir):
    return sim_dir


def _sim_csv(tmp_path, sim_dir):
    return sim_dir / "annotations.csv"


def _sim_csv_with(column, index, value):
    """The simulated CSV with value ``index`` of ``column`` in its first row
    replaced by ``value``."""
    def build(tmp_path, sim_dir):
        with (sim_dir / "annotations.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = rows[0][column].split(", ")
        values[index] = value
        rows[0][column] = ", ".join(values)
        path = tmp_path / "edited.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return path
    return build


def _sim_csv_bytes(edit):
    """The simulated CSV's bytes passed through ``edit``."""
    def build(tmp_path, sim_dir):
        path = tmp_path / "edited.csv"
        path.write_bytes(edit((sim_dir / "annotations.csv").read_bytes()))
        return path
    return build


def _fuse(dets, *flags):
    return ["fuse", "--original", dets, "--flipped", dets,
            "--image-width", 768, *flags]


# (case, expected exit code, argv before --out)
EXIT_CODE_CASES = [
    ("detect --tau-e 2", 3, ["detect", "--heatmaps", _sim_dir, "--tau-e", 2]),
    ("detect --kernel 2", 3, ["detect", "--heatmaps", _sim_dir, "--kernel", 2]),
    ("config grouping.k1 string", 3, [
        "detect", "--heatmaps", _sim_dir,
        "--config", _cfg({"grouping": {"k1": "40"}})]),
    ("config soft_nms.sigma -1", 3, _fuse(
        _dets(), "--config", _cfg({"soft_nms": {"sigma": -1}}))),
    ("render-targets --stride 0", 3, [
        "render-targets", "--annotations", _sim_csv, "--stride", 0]),
    ("render-targets keypoints off a 64 px input", 3, [
        "render-targets", "--annotations", _sim_csv, "--input-size", 64]),
    ("simulate config render.stride 0", 3, [
        "simulate", "--config", _cfg({"render": {"stride": 0}})]),
    ("rkhm stride 0", 3, ["detect", "--heatmaps", _bundles(stride=0)]),
    ("rkhm stride string", 3, ["detect", "--heatmaps", _bundles(stride="4")]),
    ("rkhm negative height", 3, ["detect", "--heatmaps", _bundles(height=-192)]),
    ("rkhm stride 2**31", 3, ["detect", "--heatmaps", _bundles(stride=2**31)]),
    ("rkhm header a JSON list", 3, ["detect", "--heatmaps", _rkhm_header(b"[1]")]),
    # a stride past the float range used to end in an OverflowError, exit 4
    ("rkhm stride 310-digit int", 3, [
        "detect", "--heatmaps", _bundles(stride=10**309)]),
    ("render-targets --stride 2**31", 3, [
        "render-targets", "--annotations", _sim_csv, "--stride", 2**31]),
    # a grid numpy refuses to allocate at once used to end in a MemoryError
    ("render-targets --input-size 2**31-1", 3, [
        "render-targets", "--annotations", _sim_csv, "--input-size", 2**31 - 1]),
    ("simulate --image-size 2**31-1", 2, ["simulate", "--image-size", 2**31 - 1]),
    # non-finite CSV numbers: exit 4 (inf), exit 0 with a bundle (nan), and a
    # NaN-spaced lesion counted as >30 mm
    ("render-targets csv inf coordinate", 3, [
        "render-targets", "--annotations",
        _sim_csv_with("Measurement_coordinates", 0, "inf")]),
    ("render-targets csv nan coordinate", 3, [
        "render-targets", "--annotations",
        _sim_csv_with("Measurement_coordinates", 3, "nan")]),
    ("eval --stratify diameter csv nan spacing", 3, [
        "eval", "--detections", _dets(), "--stratify", "diameter",
        "--annotations", _sim_csv_with("Spacing_mm_px_", 0, "nan")]),
    # a short row and a file that is not UTF-8 used to end in exit 4, and a
    # key with a directory part put a bundle outside the output directory
    ("render-targets csv short row", 3, [
        "render-targets", "--annotations",
        _sim_csv_bytes(lambda b: b.replace(b",3\r\n", b"\r\n", 1))]),
    # a field past the header's used to be dropped, and both exited 0
    ("render-targets csv long row", 3, [
        "render-targets", "--annotations",
        _sim_csv_bytes(lambda b: b.replace(b",3\r\n", b",3,surplus\r\n", 1))]),
    ("eval csv long row", 3, [
        "eval", "--detections", _dets(), "--annotations",
        _sim_csv_bytes(lambda b: b.replace(b",3\r\n", b",3,surplus\r\n", 1))]),
    ("render-targets csv not UTF-8", 3, [
        "render-targets", "--annotations",
        _sim_csv_bytes(lambda b: b.replace(b"syn_11", b"syn_\xff", 1))]),
    ("render-targets csv key ../up", 3, [
        "render-targets", "--input-size", 768, "--annotations",
        _sim_csv_with("File_name", 0, "../up")]),
    ("render-targets csv lesion type x", 3, [
        "render-targets", "--annotations",
        _sim_csv_with("Coarse_lesion_type", 0, "x")]),
    ("render-targets csv empty key", 3, [
        "render-targets", "--input-size", 768, "--annotations",
        _sim_csv_with("File_name", 0, "")]),
    # Python 3.10's csv reader refuses the NUL itself, with its own message
    ("render-targets csv key with a NUL byte", 3, [
        "render-targets", "--input-size", 768, "--annotations",
        _sim_csv_with("File_name", 0, "syn\x001")]),
    # a field over the csv module's size limit used to end in exit 4
    ("render-targets csv field over the csv size limit", 3, [
        "render-targets", "--annotations",
        _sim_csv_with("Measurement_coordinates", 0, "1" * 200_000)]),
    ("render-targets exclusions not UTF-8", 3, [
        "render-targets", "--annotations", _sim_csv,
        "--exclusions", _sim_csv_bytes(lambda _: b"syn_\xff\n")]),
    ("config not UTF-8", 3, [
        "detect", "--heatmaps", _sim_dir,
        "--config", _file("cfg.json", b'{"grouping": {}}\xff')]),
    ("detections not UTF-8", 3, [
        "eval", "--detections", _file("dets.json", b'{"images": {"syn_\xff": []}}'),
        "--annotations", _sim_csv]),
    ("rkhm header not UTF-8", 3, [
        "detect", "--heatmaps", _rkhm_header(b'{"note": "\xff"}')]),
    # non-finite tokens in a header key the reader does not otherwise check
    # used to be accepted
    ("rkhm header NaN", 3, ["detect", "--heatmaps", _bundles(note=float("nan"))]),
    ("rkhm header Infinity", 3, [
        "detect", "--heatmaps", _bundles(note=float("inf"))]),
    # a vanishing kernel sigma used to draw NaN planes and end in exit 4
    ("render-targets config render.sigma_divisor 1e300", 3, [
        "render-targets", "--annotations", _sim_csv, "--input-size", 768,
        "--config", _cfg({"render": {"sigma_divisor": 1e300}})]),
    ("detections bbox string", 3, _fuse(
        _dets(bbox=[100.0, 100.0, 150.0, "abc"]))),
    ("detections bbox null", 3, _fuse(_dets(bbox=[100.0, 100.0, 150.0, None]))),
    ("detections score true", 3, _fuse(_dets(score=True))),
    # the message named the entry but not the file it is in
    ("fuse bad --flipped file", 3, [
        "fuse", "--original", _renamed(_dets(), "original.json"),
        "--flipped", _renamed(_dets(score=True), "flipped.json"),
        "--image-width", 768]),
    ("detections bbox off its extremes, fuse", 3, _fuse(
        _dets(bbox=[300.0, 100.0, 350.0, 150.0]))),
    ("detections bbox off its extremes, eval", 3, [
        "eval", "--detections", _dets(bbox=[300.0, 100.0, 350.0, 150.0]),
        "--annotations", _sim_csv]),
    ("detections bbox inverted 1e308, fuse", 3, _fuse(
        _dets(bbox=[1e308, 1e308, -1e308, 1e308]))),
    ("detections bbox inverted 1e308, eval", 3, [
        "eval", "--detections", _dets(bbox=[1e308, 1e308, -1e308, 1e308]),
        "--annotations", _sim_csv]),
    ("eval header-only csv", 3, [
        "eval", "--detections", _dets(), "--annotations", _header_only_csv]),
    # a config flag that parses is judged by its section, as a config file
    # value is: these exited 2 from the flag's own checks
    ("eval --fps ,", 3, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--fps", ","]),
    ("eval --fps nan", 3, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--fps", "nan"]),
    ("eval --fps -1", 3, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--fps=-1"]),
    ("fuse --sigma 0", 3, _fuse(_dets(), "--sigma", 0)),
    ("fuse --sigma -1", 3, _fuse(_dets(), "--sigma=-1")),
    ("fuse --sigma nan", 3, _fuse(_dets(), "--sigma", "nan")),
    ("fuse --method x", 3, _fuse(_dets(), "--method", "x")),
    ("detect --center-interp x", 3, [
        "detect", "--heatmaps", _sim_dir, "--center-interp", "x"]),
    ("eval --fps a", 2, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--fps", "a"]),
    ("detect --k1 x", 2, ["detect", "--heatmaps", _sim_dir, "--k1", "x"]),
    # JSON nested past the parser's recursion limit used to end in exit 4
    ("config nested 100,000 deep", 3, [
        "detect", "--heatmaps", _sim_dir,
        "--config", _file("cfg.json", b"[" * 100_000)]),
    ("detections nested 100,000 deep", 3, [
        "eval", "--detections", _file("dets.json", b"[" * 100_000),
        "--annotations", _sim_csv]),
    ("rkhm header nested 100,000 deep", 3, [
        "detect", "--heatmaps", _rkhm_header(b"[" * 100_000)]),
    # the whole line used to be read, then decoded, before it was refused
    ("rkhm header line of 2 MiB", 3, [
        "detect", "--heatmaps", _rkhm_header(b" " * (2 << 20))]),
    ("simulate --drop 2", 2, ["simulate", "--drop", 2]),
    ("simulate --drop -0.5", 2, ["simulate", "--drop=-0.5"]),
    ("simulate --noise -1", 2, ["simulate", "--noise=-1"]),
    ("simulate --spurious -1", 2, ["simulate", "--spurious=-1"]),
    ("simulate --jitter -1", 2, ["simulate", "--jitter=-1"]),
    ("simulate --n-lesions -1", 2, ["simulate", "--n-lesions=-1"]),
    ("simulate --image-size 0", 2, ["simulate", "--image-size", 0]),
    ("simulate --n-lesions 40 at 256 px", 2, [
        "simulate", "--n-lesions", 40, "--image-size", 256]),
    # no arrangement can decode to itself when grouping keeps fewer quadruples
    ("simulate --n-lesions 3 over grouping.k2 2", 2, [
        "simulate", "--n-lesions", 3, "--config", _cfg({"grouping": {"k2": 2}})]),
    # no clean rendering decodes when grouping keeps fewer peaks per map than
    # lesions, or when tau_e, a strict bound, is a clean peak's score of 1.0
    ("simulate --n-lesions 3 over grouping.k1 2", 2, [
        "simulate", "--n-lesions", 3, "--config", _cfg({"grouping": {"k1": 2}})]),
    ("simulate --n-lesions 3 over grouping.tau_e 1", 2, [
        "simulate", "--n-lesions", 3, "--config",
        _cfg({"grouping": {"tau_e": 1.0}})]),
    # both views used to be written into one directory, with exit 0
    ("simulate --flipped-out the --out directory", 2, [
        "simulate", "--flipped-out",
        lambda tmp_path, sim_dir: tmp_path / "sub" / ".." / "out"]),
    ("detect --workers 0", 2, ["detect", "--heatmaps", _sim_dir, "--workers", 0]),
    ("detect --workers -5", 2, ["detect", "--heatmaps", _sim_dir, "--workers=-5"]),
    ("check-gradients --trials -5", 2, ["check-gradients", "--trials=-5"]),
    ("check-gradients --trials 0", 2, ["check-gradients", "--trials", 0]),
    ("check-gradients --tol nan", 2, ["check-gradients", "--tol", "nan"]),
    ("check-gradients --tol -1", 2, ["check-gradients", "--tol=-1"]),
    ("check-gradients --tol inf", 2, ["check-gradients", "--tol", "inf"]),
    ("check-gradients --seed -5", 2, ["check-gradients", "--seed=-5"]),
    ("rkhm NaN offset plane", 3, ["detect", "--heatmaps", _bundle_value(7, np.nan)]),
    ("rkhm inf keypoint plane", 3, [
        "detect", "--heatmaps", _bundle_value(4, np.inf)]),
    ("config soft_nms.sigma NaN", 3, _fuse(
        _dets(), "--config", _cfg({"soft_nms": {"sigma": float("nan")}}))),
    ("config eval.pad Infinity", 3, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv,
        "--config", _cfg({"eval": {"pad": float("inf")}})]),
    ("detections config echo NaN", 3, _fuse(
        _dets_config({"soft_nms": {"sigma": float("nan")}}))),
    ("eval --pad nan", 3, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--pad", "nan"]),
    ("fuse --sigma inf", 3, _fuse(_dets(), "--sigma", "inf")),
    ("fuse --image-width inf", 2, [
        "fuse", "--original", _dets(), "--flipped", _dets(), "--image-width", "inf"]),
    ("fuse --image-width nan", 2, [
        "fuse", "--original", _dets(), "--flipped", _dets(), "--image-width", "nan"]),
    ("fuse --image-width 0", 2, [
        "fuse", "--original", _dets(), "--flipped", _dets(), "--image-width", "0"]),
    ("fuse --image-width -1", 2, [
        "fuse", "--original", _dets(), "--flipped", _dets(), "--image-width", "-1"]),
    # a removed command is a usage error
    ("removed window command", 2, [
        "window", "--level", 50, "--width", 400, "--in", "raw.f32"]),
    ("detections score 401-digit int", 3, _fuse(_huge(_dets(score="<huge>"), 401))),
    ("detections extremes 401-digit int", 3, _fuse(_huge(_dets(extremes={
        "top": [125.0, 100.0], "left": [100.0, 125.0], "bottom": [125.0, 150.0],
        "right": [150.0, 125.0], "center": ["<huge>", 125.0]}), 401))),
    ("detections 4301-digit int", 3, _fuse(_huge(_dets(score="<huge>"), 4301))),
    ("config soft_nms.sigma 401-digit int", 3, _fuse(
        _dets(), "--config", _huge(_cfg({"soft_nms": {"sigma": "<huge>"}}), 401))),
    ("config 4301-digit int", 3, _fuse(
        _dets(), "--config", _huge(_cfg({"soft_nms": {"sigma": "<huge>"}}), 4301))),
    ("rkhm header 4301-digit int", 3, [
        "detect", "--heatmaps", _huge(_bundles(stride="<huge>"), 4301)]),
    # out-of-range matching settings used to exit 0 with sensitivity 0
    ("eval --iou 1.5", 3, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--iou", 1.5]),
    ("eval --iou -0.1", 3, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--iou=-0.1"]),
    ("eval --pad -1", 3, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--pad=-1"]),
    ("config eval.iou_threshold 2", 3, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv,
        "--config", _cfg({"eval": {"iou_threshold": 2}})]),
]

# What the message of a case above or in OUTPUT_PATH_CASES must name, besides
# its flag, box path or output path.
NAMED_IN_ERROR = {
    "eval --out R, R.txt a directory": "R.txt",
    "detections score 401-digit int": "images['syn_11'][0].score",
    "detections extremes 401-digit int": "images['syn_11'][0].extremes.center",
    "detections 4301-digit int": "dets.json",
    "config 4301-digit int": "cfg.json",
    "rkhm header 4301-digit int": "syn_11.rkhm",
    "rkhm stride 2**31": "header stride must be an integer in [1, 2147483647]",
    "rkhm header a JSON list": "syn_11.rkhm: JSON root must be an object",
    "fuse bad --flipped file":
        "flipped.json: images['syn_11'][0].score: expected a finite number",
    "render-targets csv lesion type x":
        "edited.csv: row 2: column Coarse_lesion_type: invalid literal for int()",
    "rkhm stride 310-digit int": "syn_11.rkhm: header stride must be an integer",
    "render-targets --stride 2**31":
        "config section render: stride must lie in [1, 2147483647], got 2147483648",
    "render-targets keypoints off a 64 px input": "outside the 16x16 output grid",
    "render-targets --input-size 2**31-1": "render.input_size",
    "simulate --image-size 2**31-1": "cannot be allocated",
    # each refused by the library type that owns the value, not by the parser
    "simulate --drop 2": "peak_drop_prob must lie in [0, 1], got 2.0",
    "simulate --drop -0.5": "peak_drop_prob must lie in [0, 1], got -0.5",
    "simulate --noise -1": "noise_sigma must lie in [0, inf), got -1.0",
    "simulate --spurious -1": "spurious_rate must lie in [0, inf), got -1.0",
    "simulate --jitter -1": "jitter_cells must lie in [0, inf), got -1",
    # the count alone: the stride plays no part in these two refusals
    "simulate --n-lesions -1": "--n-lesions -1: n_lesions must be >= 0, got -1",
    "simulate --n-lesions 40 at 256 px": "--n-lesions 40: could not place 40 "
        "lesion(s) in 256x256: their padded boxes need",
    "simulate --n-lesions 3 over grouping.k2 2": "--n-lesions 3: grouping.k2 2 "
        "keeps fewer quadruples than the 3 lesion(s) to place",
    "simulate --n-lesions 3 over grouping.k1 2": "--n-lesions 3: grouping.k1 2 "
        "keeps fewer peaks per map than the 3 lesion(s) to place",
    "simulate --n-lesions 3 over grouping.tau_e 1": "--n-lesions 3: "
        "grouping.tau_e 1 keeps no clean peak: one scores exactly 1.0",
    "simulate --flipped-out the --out directory":
        "--out and --flipped-out are the same directory",
    "render-targets csv inf coordinate": "row 2: column Measurement_coordinates",
    "render-targets csv nan coordinate": "row 2: column Measurement_coordinates",
    "eval --stratify diameter csv nan spacing": "row 2: column Spacing_mm_px_",
    "render-targets csv short row": "row 2: fewer fields than the header",
    "render-targets csv long row": "edited.csv: row 2: more fields than the header",
    "eval csv long row": "edited.csv: row 2: more fields than the header",
    "render-targets csv not UTF-8": "edited.csv: not UTF-8 text",
    "render-targets csv key ../up": "image key '../up' is not a file name",
    "render-targets csv empty key": "image key '' is not a file name",
    "render-targets exclusions not UTF-8": "edited.csv: not UTF-8 text",
    "config not UTF-8": "cfg.json: not UTF-8 text",
    "detections not UTF-8": "dets.json: not UTF-8 text",
    "rkhm header not UTF-8": "syn_11.rkhm: not UTF-8 text",
    "rkhm header NaN": "syn_11.rkhm: non-finite number NaN is not JSON",
    "rkhm header Infinity": "syn_11.rkhm: non-finite number Infinity is not JSON",
    "render-targets csv field over the csv size limit":
        "edited.csv: line 2: field larger than field limit",
    "render-targets config render.sigma_divisor 1e300":
        "config section render: sigma_divisor must lie in (0, 2147483647], got 1e+300",
    "eval --fps ,": "config section eval: FP targets must be a non-empty list",
    "eval --fps -1": "config section eval: FP targets must be a non-empty list",
    "eval --fps nan": "config key eval.fp_targets must be finite",
    "fuse --sigma 0": "config section soft_nms: sigma must lie in (0, inf), got 0.0",
    "fuse --sigma -1": "config section soft_nms: sigma must lie in (0, inf), got -1.0",
    "fuse --sigma nan": "config key soft_nms.sigma must be finite",
    "fuse --method x": "config section soft_nms: unknown method 'x'",
    "detect --center-interp x": "config section grouping: unknown center_interp 'x'",
    "eval --fps a": "argument --fps: 'a': could not convert string to float",
    "detect --k1 x": "argument --k1: invalid int value: 'x'",
    "config nested 100,000 deep": "cfg.json: JSON nested too deeply",
    "detections nested 100,000 deep": "dets.json: JSON nested too deeply",
    "rkhm header nested 100,000 deep": "syn_11.rkhm: JSON nested too deeply",
    "rkhm header line of 2 MiB":
        "syn_11.rkhm: header line longer than 1048576 bytes",
    "eval --iou 1.5": "config section eval: iou_threshold must lie in [0, 1]",
    "eval --iou -0.1": "config section eval: iou_threshold must lie in [0, 1]",
    "eval --pad -1": "config section eval: pad must lie in [0, inf)",
    "config eval.iou_threshold 2":
        "config section eval: iou_threshold must lie in [0, 1], got 2",
    "detect --workers 0": "argument --workers: must be >= 1",
    "detect --workers -5": "argument --workers: must be >= 1",
    "check-gradients --trials -5": "argument --trials: must be >= 1",
    "check-gradients --trials 0": "argument --trials: must be >= 1",
    "check-gradients --tol nan": "argument --tol: must be finite and > 0",
    "check-gradients --tol -1": "argument --tol: must be finite and > 0",
    "check-gradients --tol inf": "argument --tol: must be finite and > 0",
    "check-gradients --seed -5": "argument --seed: must be >= 0",
    "fuse --image-width inf": "argument --image-width: must be finite and > 0",
    "fuse --image-width nan": "argument --image-width: must be finite and > 0",
    "fuse --image-width 0": "argument --image-width: must be finite and > 0",
    "fuse --image-width -1": "argument --image-width: must be finite and > 0",
    "removed window command": "argument command: invalid choice: 'window'",
}


def _a_file(tmp_path, sim_dir):
    path = tmp_path / "a_file"
    path.touch()
    return path


def _a_dir(tmp_path, sim_dir):
    path = tmp_path / "a_dir"
    path.mkdir()
    return path


def _under_a_file(name):
    return lambda tmp_path, sim_dir: _a_file(tmp_path, sim_dir) / name


def _report_with_txt_dir(tmp_path, sim_dir):
    """The ``eval --out`` stem ``R``, where ``R.txt`` is a directory."""
    (tmp_path / "R.txt").mkdir()
    return tmp_path / "R"


# Output paths that cannot be created or replaced; each ends in that path.
OUTPUT_PATH_CASES = [
    ("render-targets --out FILE", [
        "render-targets", "--annotations", _sim_csv, "--out", _a_file]),
    ("render-targets --out FILE/sub", [
        "render-targets", "--annotations", _sim_csv, "--out", _under_a_file("sub")]),
    ("simulate --out FILE", ["simulate", "--out", _a_file]),
    ("simulate --flipped-out FILE", [
        "simulate", "--out", lambda tmp_path, sim_dir: tmp_path / "out",
        "--flipped-out", _a_file]),
    ("simulate --out NEW/sim --flipped-out FILE", [
        "simulate", "--out", lambda tmp_path, sim_dir: tmp_path / "new" / "sim",
        "--flipped-out", _a_file]),
    ("detect --out DIR", ["detect", "--heatmaps", _sim_dir, "--out", _a_dir]),
    ("detect --out FILE/x.json", [
        "detect", "--heatmaps", _sim_dir, "--out", _under_a_file("x.json")]),
    ("eval --out R, R.txt a directory", [
        "eval", "--detections", _dets(), "--annotations", _sim_csv,
        "--out", _report_with_txt_dir]),
]


# A parsed config flag refused by its section, and the same value in a
# config file: (argv before the flag, flag, its text, section, key, value).
FLAG_AND_FILE_CASES = [
    (_fuse(_dets()), "--sigma", "0", "soft_nms", "sigma", 0.0),
    (_fuse(_dets()), "--method", "x", "soft_nms", "method", "x"),
    (["detect", "--heatmaps", _sim_dir], "--center-interp", "x",
     "grouping", "center_interp", "x"),
    (["detect", "--heatmaps", _sim_dir], "--kernel", "2", "grouping", "kernel", 2),
    (["eval", "--detections", _dets(), "--annotations", _sim_csv], "--fps", "-1",
     "eval", "fp_targets", [-1.0]),
    (["eval", "--detections", _dets(), "--annotations", _sim_csv], "--iou", "1.5",
     "eval", "iou_threshold", 1.5),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "case,expected,parts", EXIT_CODE_CASES,
        ids=[c[0] for c in EXIT_CODE_CASES],
    )
    def test_malformed_input_exit_code(self, case, expected, parts, sim_dir,
                                       tmp_path, capsys):
        argv = [part(tmp_path, sim_dir) if callable(part) else part
                for part in parts]
        try:
            code = run(*argv, "--out", tmp_path / "out")
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == expected, err
        if expected == 2:  # a usage error names the flag at fault
            assert case.split()[1] in err, err
        if case.startswith("detections bbox"):
            assert "images['syn_11'][0].bbox" in err, err
        assert NAMED_IN_ERROR.get(case, "") in err, err
        assert not list(tmp_path.glob("out*"))  # no partial outputs

    @pytest.mark.parametrize(
        "parts,flag,text,section,key,value", FLAG_AND_FILE_CASES,
        ids=[f"{c[1]} {c[2]}" for c in FLAG_AND_FILE_CASES],
    )
    def test_flag_refused_as_its_config_file_value(
        self, parts, flag, text, section, key, value, sim_dir, tmp_path, capsys
    ):
        argv = [part(tmp_path, sim_dir) if callable(part) else part
                for part in parts]
        config = _cfg({section: {key: value}})(tmp_path, sim_dir)
        errors = []
        for source in ([f"{flag}={text}"], ["--config", config]):
            assert run(*argv, *source, "--out", tmp_path / "out") == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: input-format: config section {section}: ")

    @pytest.mark.parametrize(
        "case,parts", OUTPUT_PATH_CASES, ids=[c[0] for c in OUTPUT_PATH_CASES]
    )
    def test_unusable_output_path_exit_code(self, case, parts, sim_dir, tmp_path,
                                            capsys):
        argv = [part(tmp_path, sim_dir) if callable(part) else part
                for part in parts]
        before = sorted(tmp_path.rglob("*"))
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert str(argv[-1]) in err, err
        assert NAMED_IN_ERROR.get(case, "") in err, err
        # no partial outputs: the files and directories present are exactly
        # those set up
        assert sorted(tmp_path.rglob("*")) == before


def _session(tmp_path):
    """Every command that writes, each into its own paths under ``tmp_path``."""
    sim, flip = tmp_path / "sim", tmp_path / "flip"
    return [
        ("simulate", "--out", sim, "--flipped-out", flip, "--scene-seed", 5,
         "--n-lesions", 2, "--noise", 0.02),
        ("render-targets", "--annotations", sim / "annotations.csv",
         "--input-size", 768, "--out", tmp_path / "rendered"),
        ("detect", "--heatmaps", sim, "--out", tmp_path / "orig.json"),
        ("detect", "--heatmaps", flip, "--out", tmp_path / "flip.json"),
        ("fuse", "--original", tmp_path / "orig.json",
         "--flipped", tmp_path / "flip.json", "--image-width", 768,
         "--out", tmp_path / "fused.json"),
        ("eval", "--detections", tmp_path / "fused.json",
         "--annotations", sim / "annotations.csv", "--out", tmp_path / "report"),
    ]


def _files(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


class TestReRuns:
    """A command re-run into its own outputs replaces each of them whole."""

    def test_rerun_writes_the_same_bytes(self, tmp_path):
        session = _session(tmp_path)
        for argv in session:
            assert run(*argv) == 0, argv
        first = _files(tmp_path)
        for argv in session:
            assert run(*argv) == 0, argv
        assert _files(tmp_path) == first
        assert not list(tmp_path.rglob("*.tmp"))

    def test_rerun_moves_each_output_onto_an_absent_path(self, tmp_path,
                                                         monkeypatch):
        # the old output is gone before the new one is renamed over its
        # path, so the rename never frees an old file's blocks
        session = _session(tmp_path)
        for argv in session:
            assert run(*argv) == 0, argv
        replace, moved = os.replace, []

        def recording_replace(src, dst):
            moved.append((Path(dst).relative_to(tmp_path).as_posix(),
                          os.path.lexists(dst)))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", recording_replace)
        for argv in session:
            assert run(*argv) == 0, argv
        assert sorted(dst for dst, _ in moved) == sorted(_files(tmp_path))
        assert [dst for dst, existed in moved if existed] == []

    @pytest.mark.parametrize("command", ["fuse", "detect"])
    def test_output_symlink_becomes_a_regular_file(self, command, sim_dir,
                                                   tmp_path):
        argv = {
            "fuse": _fuse(_dets()(tmp_path, sim_dir)),
            "detect": ["detect", "--heatmaps", sim_dir],
        }[command]
        plain, link, target = tmp_path / "plain", tmp_path / "link", tmp_path / "target"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert run(*argv, "--out", plain) == 0
        assert run(*argv, "--out", link) == 0
        assert not link.is_symlink()
        assert link.read_bytes() == plain.read_bytes()
        assert target.read_bytes() == b"old"

    def test_failing_writer_keeps_the_old_output(self, sim_dir, tmp_path,
                                                 monkeypatch, capsys):
        out = tmp_path / "dets.json"
        out.write_bytes(b"old")

        def failing_writer(detections, path, config=None):
            Path(path).write_bytes(b"partial")
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(dataio, "write_detections", failing_writer)
        assert run("detect", "--heatmaps", sim_dir, "--out", out) == 3
        assert "dets.json.tmp" in capsys.readouterr().err
        assert out.read_bytes() == b"old"
        assert not list(tmp_path.rglob("*.tmp"))


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """Any text input may start with a UTF-8 byte-order mark, as a file
    re-saved from a spreadsheet often does; the mark changes no result."""

    def test_csv_renders_the_same_bundles(self, sim_dir, tmp_path):
        plain = sim_dir / "annotations.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(BOM + plain.read_bytes())
        for csv_path, out in ((plain, "plain"), (marked, "marked")):
            assert run("render-targets", "--annotations", csv_path,
                       "--input-size", 768, "--out", tmp_path / out) == 0
        assert _files(tmp_path / "marked") == _files(tmp_path / "plain")

    def test_exclusion_list_drops_its_first_key(self, sim_dir, tmp_path, capsys):
        csv_path, _ = _csv_with_excluded_key(sim_dir, tmp_path)
        exclusions = tmp_path / "marked.txt"
        exclusions.write_bytes(BOM + b"excluded\n")
        dets = tmp_path / "dets.json"
        assert run("detect", "--heatmaps", sim_dir, "--out", dets) == 0
        for argv in (["render-targets", "--input-size", 768],
                     ["eval", "--detections", dets]):
            capsys.readouterr()
            assert run(*argv, "--annotations", csv_path, "--exclusions", exclusions,
                       "--out", tmp_path / "out") == 0
            assert capsys.readouterr().out.startswith("excluded 1 annotation row(s)\n")
        assert json.loads((tmp_path / "out.json").read_text())["froc"]["n_lesions"] == 3

    def test_config_detections_and_rkhm_header_load(self, sim_dir, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_bytes(BOM + b'{"grouping": {"k1": 7}}')
        plain = tmp_path / "plain.json"
        assert run("detect", "--heatmaps", sim_dir, "--config", config,
                   "--out", plain) == 0
        assert read_detections(plain)[1]["grouping"]["k1"] == 7
        marked = tmp_path / "marked.json"
        marked.write_bytes(BOM + plain.read_bytes())
        assert read_detections(marked) == read_detections(plain)

        data = (sim_dir / "syn_11.rkhm").read_bytes()
        start = len(dataio.HEATMAP_MAGIC)
        (tmp_path / "maps").mkdir()
        (tmp_path / "maps" / "syn_11.rkhm").write_bytes(
            data[:start] + BOM + data[start:])
        assert run("detect", "--heatmaps", tmp_path / "maps", "--config", config,
                   "--out", marked) == 0
        assert marked.read_bytes() == plain.read_bytes()


class TestHugeCoordinates:
    def test_fuse_of_finite_extremes_near_the_float_limit_is_quiet(
        self, sim_dir, tmp_path, capsys
    ):
        # box widths overflow to inf inside the IoU; no warning may escape
        dets = _dets(
            bbox=[-1e308, -1e308, 1e308, 1e308],
            extremes={"top": [0.0, -1e308], "left": [-1e308, 0.0],
                      "bottom": [0.0, 1e308], "right": [1e308, 0.0],
                      "center": [0.0, 0.0]},
        )(tmp_path, sim_dir)
        assert run(*_fuse(dets), "--out", tmp_path / "fused.json") == 0
        assert capsys.readouterr().err == ""


class TestQuietOverflow:
    """An overflow whose clipped result is the defined output exits 0 with
    nothing on stderr."""

    def test_simulate_with_a_huge_noise(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, "--n-lesions", 1, "--image-size", 128,
                   "--noise", "1e308") == 0
        assert capsys.readouterr().err == ""
        (path,) = out.glob("*.rkhm")
        planes = read_heatmaps(path).keypoint_maps
        assert ((planes >= 0.0) & (planes <= 1.0)).all()


class TestCheckGradients:
    def test_passes_with_default_settings(self, capsys):
        assert run("check-gradients", "--trials", 5) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_fail_line_names_the_cell_in_plain_ints(self, capsys):
        # no gradient is within 1e-300 of its central differences
        assert run("check-gradients", "--trials", 1, "--tol", "1e-300") == 4
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"FAIL focal: max_rel_err=\S+ at cell \(\d, \d\)", out), out

    @pytest.mark.parametrize("argv,code,stdout", [
        (["--trials", 20, "--seed", 3], 0,
         "PASS: 20 focal trials (max_rel_err=1.824e-07), 2 offset trials "
         "(max_rel_err=4.992e-09), tol=1e-05\n"),
        (["--trials", 5, "--seed", 1, "--tol", "1e-30"], 4,
         "FAIL focal: max_rel_err=6.598e-08 at cell (4, 5)\n"),
    ], ids=["pass", "fail"])
    def test_stdout_pinned(self, argv, code, stdout, capsys):
        # the draw order is focal trials first, then offset trials
        assert run("check-gradients", *argv) == code
        assert capsys.readouterr().out == stdout


class TestHelp:
    def test_readme_names_every_command_and_no_other(self):
        # the quick start runs some commands and a bullet after it names
        # each other one, so a command added or removed shows here
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text.split("\n## Quick start", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"^recistkit ([a-z-]+) ", section, re.M))
        documented |= set(re.findall(r"^- `([a-z-]+) ", section, re.M))
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert sorted(documented) == sorted(commands)

    def test_help_lists_flag_defaults(self, capsys):
        from recistkit.cli import build_parser

        parser = build_parser()
        cases = {
            "detect": ["(default: 0.1)", "(default: 40)", "(default: 100)",
                       "(default: nearest)"],
            "render-targets": ["(default: 511)", "(default: 4)", "(default: 0.3)"],
            "eval": ["(default: 0.5)", "(default: 5)", "0.5,1,2,3,4"],
            "fuse": ["(default: 0.5)", "(default: 0.001)", "(default: gaussian)"],
            "simulate": [],
        }
        # the default named in one flag's own help entry
        flag_defaults = {
            ("render-targets", "--sigma-divisor"): "(default: 3)",
            ("render-targets", "--min-overlap"): "(default: 0.3)",
            ("simulate", "--stride"): "(default: 4)",
        }
        for command, expected in cases.items():
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([command, "--help"])
            assert excinfo.value.code == 0
            text = capsys.readouterr().out
            for fragment in expected:
                assert fragment in text, (command, fragment)
            entries = {
                entry.split()[0]: " ".join(entry.split())
                for entry in re.split(r"\n(?=  -)", text)
            }
            for (flag_command, flag), fragment in flag_defaults.items():
                if flag_command == command:
                    assert fragment in entries[flag], (command, flag, entries[flag])

    def test_simulate_help_shows_degradation_defaults(self, capsys):
        from recistkit.cli import _DEGRADATION_FLAGS, build_parser
        from recistkit.config import DegradationConfig

        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert list(_DEGRADATION_FLAGS) == ["--noise", "--drop", "--spurious",
                                            "--jitter"]
        defaults = DegradationConfig()
        for flag, (field, help_text) in _DEGRADATION_FLAGS.items():
            default = getattr(defaults, field)
            shown = f"{default:g}" if isinstance(default, float) else str(default)
            expected = f"{flag} {flag[2:].upper()} {help_text} (default: {shown})"
            assert expected in text, expected


class TestConfigDefaults:
    def test_defaults_golden(self):
        from recistkit.config import DEFAULTS, SECTION_TYPES

        assert json.dumps(DEFAULTS) == (
            '{"grouping": {"tau_e": 0.1, "tau_c": 0.1, "k1": 40, "k2": 100, '
            '"kernel": 3, "center_interp": "nearest"}, '
            '"soft_nms": {"sigma": 0.5, "score_floor": 0.001, "method": "gaussian", '
            '"linear_iou_threshold": 0.3}, '
            '"focal": {"alpha": 2.0, "beta": 4.0, "clamp_eps": 1e-12}, '
            '"eval": {"iou_threshold": 0.5, "pad": 5.0, '
            '"fp_targets": [0.5, 1.0, 2.0, 3.0, 4.0]}, '
            '"render": {"stride": 4, "input_size": 511, "min_overlap": 0.3, '
            '"sigma_divisor": 3.0}, '
            '"window_presets": [[50, 449], [-505, 1980], [446, 1960]]}'
        )

        def kinds(value):
            if isinstance(value, dict):
                return {key: kinds(v) for key, v in value.items()}
            if isinstance(value, list):
                return [kinds(v) for v in value]
            return type(value).__name__

        assert kinds(DEFAULTS) == {
            "grouping": {"tau_e": "float", "tau_c": "float", "k1": "int",
                         "k2": "int", "kernel": "int", "center_interp": "str"},
            "soft_nms": {"sigma": "float", "score_floor": "float",
                         "method": "str", "linear_iou_threshold": "float"},
            "focal": {"alpha": "float", "beta": "float", "clamp_eps": "float"},
            "eval": {"iou_threshold": "float", "pad": "float",
                     "fp_targets": ["float"] * 5},
            "render": {"stride": "int", "input_size": "int",
                       "min_overlap": "float", "sigma_divisor": "float"},
            "window_presets": [["int", "int"]] * 3,
        }
        sections = [name for name, v in DEFAULTS.items() if isinstance(v, dict)]
        assert sections == list(SECTION_TYPES)

    def test_library_defaults_are_config_defaults(self):
        import inspect

        from recistkit import evaluation, synthetic, targets
        from recistkit.config import (
            DEFAULTS,
            EvalConfig,
            GroupingConfig,
            RenderConfig,
        )

        render = DEFAULTS["render"]
        kernel = {"min_overlap": render["min_overlap"],
                  "sigma_divisor": render["sigma_divisor"]}
        expected = {
            targets.gaussian_radius: {"min_overlap": render["min_overlap"]},
            targets.gaussian_kernel: {"sigma_divisor": render["sigma_divisor"]},
            targets.draw_gaussian: {"sigma_divisor": render["sigma_divisor"]},
            targets.render_targets: kernel,
            synthetic.generate_scene: {
                "render": RenderConfig(**render),
                "grouping": GroupingConfig(**DEFAULTS["grouping"])},
            synthetic.simulate_heatmaps: {"stride": render["stride"], **kernel},
            evaluation.match_detections: {"cfg": EvalConfig(**DEFAULTS["eval"])},
        }
        for func, defaults in expected.items():
            params = inspect.signature(func).parameters
            for name, value in defaults.items():
                default = params[name].default
                assert (default, type(default)) == (value, type(value)), (
                    func.__name__, name)


class TestGoldenBytes:
    """Every artifact of one closed loop, pinned by sha256.

    Covers both render paths (``simulate`` and ``render-targets``) and both
    FROC entry points (``eval --stratify``). The digests were recorded with
    numpy 2.4.6 on x86-64; the noise draws use numpy's SIMD transcendentals,
    so another CPU family may legitimately produce other bytes.
    """

    DIGESTS = {
        "sim/annotations.csv":
            "cf6515f3d54c0f201497b56a2fa825bc1e0e8f023ec06bdb7b35f860c34bd23c",
        "sim/config.json":
            "4eba2c9d95ed5315be81e11444ba1a58e3c8af98a71c289c6310716d0dddd524",
        "sim/syn_17.rkhm":
            "69ffcdcacb5af23c5ffb420e8673ebe5c3f91bd745cde66f5cfe58fb0f8afb76",
        "flip/config.json":
            "4eba2c9d95ed5315be81e11444ba1a58e3c8af98a71c289c6310716d0dddd524",
        "flip/syn_17.rkhm":
            "b2b38d22106cc49c9b6a4fc9228e49fe0540169671ccda08dd0588d43f02f9dc",
        "orig.json":
            "394c7ba86e5b3cf93a6873ba1bedd04d115ebb51a72a07886034366cf023e843",
        "flip.json":
            "52c237e953e1873f3bea5fcda67e29ba4806c564b3735f8756bb15d662f60187",
        "fused.json":
            "4754b9d7b235a3ad86d53aa8bc3f2678ce28e62f5cf604f7c8233e79288a6345",
        "report.json":
            "e08cd67c679a626e8e23dfebd40ee2324ef23eef19ab7590aff19f6733c7548f",
        "report.txt":
            "e1459ac084d4946979a0ca58a2adbba325a577a502488bfff80aed1bb31aeb23",
        "rendered/config.json":
            "a77f712c745c2809dda8c206183f46db7b81356c5fa36f1daa890573bd69fc58",
        "rendered/syn_17.rkhm":
            "84b6524bc07e2fca54cb7767037fa12d4e7a8a91b2a5c50d05df2f524ef156dc",
    }

    def test_pipeline_artifacts_match_recorded_digests(self, tmp_path):
        sim, flip = tmp_path / "sim", tmp_path / "flip"
        steps = [
            ("simulate", "--out", sim, "--flipped-out", flip,
             "--scene-seed", 17, "--noise", 0.02),
            ("detect", "--heatmaps", sim, "--out", tmp_path / "orig.json"),
            ("detect", "--heatmaps", flip, "--out", tmp_path / "flip.json"),
            ("fuse", "--original", tmp_path / "orig.json",
             "--flipped", tmp_path / "flip.json", "--image-width", 768,
             "--out", tmp_path / "fused.json"),
            ("eval", "--detections", tmp_path / "fused.json",
             "--annotations", sim / "annotations.csv", "--stratify", "diameter",
             "--out", tmp_path / "report"),
            ("render-targets", "--annotations", sim / "annotations.csv",
             "--input-size", 768, "--out", tmp_path / "rendered"),
        ]
        for argv in steps:
            assert run(*argv) == 0, argv
        written = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(
                p.read_bytes()
            ).hexdigest()
            for p in tmp_path.rglob("*")
            if p.is_file()
        }
        assert written == self.DIGESTS


class TestEvaluateIsTheEvalCommand:
    def test_library_report_matches_recorded_digests(self, tmp_path):
        # the golden closed loop up to fuse, then its report made in process
        from recistkit import config
        from recistkit.evaluation import evaluate, format_report

        sim, flip = tmp_path / "sim", tmp_path / "flip"
        steps = [
            ("simulate", "--out", sim, "--flipped-out", flip,
             "--scene-seed", 17, "--noise", 0.02),
            ("detect", "--heatmaps", sim, "--out", tmp_path / "orig.json"),
            ("detect", "--heatmaps", flip, "--out", tmp_path / "flip.json"),
            ("fuse", "--original", tmp_path / "orig.json",
             "--flipped", tmp_path / "flip.json", "--image-width", 768,
             "--out", tmp_path / "fused.json"),
        ]
        for argv in steps:
            assert run(*argv) == 0, argv
        cfg, sections = config.effective(None, {})
        detections, _ = read_detections(tmp_path / "fused.json")
        annotations = dataio.parse_annotations(sim / "annotations.csv").annotations
        report = evaluate(detections, annotations, sections["eval"], "diameter")
        dataio.write_json({"config": cfg, **report}, tmp_path / "report.json")
        text = format_report(report, sections["eval"])
        for name, data in [("report.json", (tmp_path / "report.json").read_bytes()),
                           ("report.txt", text.encode("utf-8"))]:
            digest = hashlib.sha256(data).hexdigest()
            assert digest == TestGoldenBytes.DIGESTS[name], name
