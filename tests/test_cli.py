"""Command-line surface: end-to-end flows, exit codes, byte determinism,
config layering, and partial-output cleanup."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

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

    def test_detect_workers_byte_identical(self, sim_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("detect", "--heatmaps", sim_dir, "--workers", 1, "--out", a) == 0
        assert run("detect", "--heatmaps", sim_dir, "--workers", 4, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_oversized_coordinates_exit_3(self, sim_dir, tmp_path):
        out = tmp_path / "rendered"
        code = run("render-targets", "--annotations", sim_dir / "annotations.csv",
                   "--input-size", 64, "--out", out)
        assert code == 3
        assert not list(out.glob("*.rkhm"))  # partial outputs removed


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


def _header_only_csv(tmp_path, sim_dir):
    from recistkit.dataio import CSV_COLUMNS

    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n")
    return path


def _sim_dir(tmp_path, sim_dir):
    return sim_dir


def _sim_csv(tmp_path, sim_dir):
    return sim_dir / "annotations.csv"


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
    ("simulate config render.stride 0", 3, [
        "simulate", "--config", _cfg({"render": {"stride": 0}})]),
    ("rkhm stride 0", 3, ["detect", "--heatmaps", _bundles(stride=0)]),
    ("rkhm stride string", 3, ["detect", "--heatmaps", _bundles(stride="4")]),
    ("rkhm negative height", 3, ["detect", "--heatmaps", _bundles(height=-192)]),
    ("detections bbox string", 3, _fuse(
        _dets(bbox=[100.0, 100.0, 150.0, "abc"]))),
    ("detections bbox null", 3, _fuse(_dets(bbox=[100.0, 100.0, 150.0, None]))),
    ("detections score true", 3, _fuse(_dets(score=True))),
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
    ("eval --fps ,", 2, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--fps", ","]),
    ("eval --fps nan", 2, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--fps", "nan"]),
    ("eval --fps -1", 2, [
        "eval", "--detections", _dets(), "--annotations", _sim_csv, "--fps=-1"]),
    ("simulate --drop 2", 2, ["simulate", "--drop", 2]),
    ("simulate --drop -0.5", 2, ["simulate", "--drop=-0.5"]),
    ("simulate --noise -1", 2, ["simulate", "--noise=-1"]),
    ("simulate --spurious -1", 2, ["simulate", "--spurious=-1"]),
    ("simulate --jitter -1", 2, ["simulate", "--jitter=-1"]),
    ("simulate --n-lesions -1", 2, ["simulate", "--n-lesions=-1"]),
    ("simulate --image-size 0", 2, ["simulate", "--image-size", 0]),
    ("simulate --n-lesions 40 at 256 px", 2, [
        "simulate", "--n-lesions", 40, "--image-size", 256]),
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
]

# What the message of a case above must name, besides its flag or box path.
NAMED_IN_ERROR = {
    "detections score 401-digit int": "images['syn_11'][0].score",
    "detections extremes 401-digit int": "images['syn_11'][0].extremes.center",
    "detections 4301-digit int": "dets.json",
    "config 4301-digit int": "cfg.json",
    "rkhm header 4301-digit int": "syn_11.rkhm",
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
    ("detect --out DIR", ["detect", "--heatmaps", _sim_dir, "--out", _a_dir]),
    ("detect --out FILE/x.json", [
        "detect", "--heatmaps", _sim_dir, "--out", _under_a_file("x.json")]),
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
        "case,parts", OUTPUT_PATH_CASES, ids=[c[0] for c in OUTPUT_PATH_CASES]
    )
    def test_unusable_output_path_exit_code(self, case, parts, sim_dir, tmp_path,
                                            capsys):
        argv = [part(tmp_path, sim_dir) if callable(part) else part
                for part in parts]
        files_before = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert str(argv[-1]) in err, err
        # no partial outputs: the files present are exactly those set up
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files_before


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


class TestWindow:
    def test_round_trip_values(self, tmp_path):
        raw = tmp_path / "raw.f32"
        data = np.array([-150.0, 50.0, 250.0, -1000.0, 3000.0], dtype="<f4")
        raw.write_bytes(data.tobytes())
        out = tmp_path / "norm.f32"
        assert run("window", "--level", 50, "--width", 400,
                   "--in", raw, "--out", out) == 0
        normalized = np.frombuffer(out.read_bytes(), dtype="<f4")
        assert list(normalized) == [0.0, 0.5, 1.0, 0.0, 1.0]

    def test_nonpositive_width_usage_error(self, tmp_path):
        raw = tmp_path / "raw.f32"
        raw.write_bytes(np.zeros(4, dtype="<f4").tobytes())
        with pytest.raises(SystemExit) as excinfo:
            main(["window", "--level", "50", "--width", "0",
                  "--in", str(raw), "--out", str(tmp_path / "o.f32")])
        assert excinfo.value.code == 2


class TestCheckGradients:
    def test_passes_with_default_settings(self, capsys):
        assert run("check-gradients", "--trials", 5) == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestHelp:
    def test_help_lists_flag_defaults(self, capsys):
        from recistkit.cli import build_parser

        parser = build_parser()
        cases = {
            "detect": ["(default: 0.1)", "(default: 40)", "(default: 100)",
                       "(default: nearest)"],
            "render-targets": ["(default: 511)", "(default: 4)", "(default: 0.3)"],
            "eval": ["(default: 0.5)", "(default: 5)", "0.5,1,2,3,4"],
            "fuse": ["(default: 0.5)", "(default: 0.001)", "(default: gaussian)"],
        }
        for command, expected in cases.items():
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([command, "--help"])
            assert excinfo.value.code == 0
            text = capsys.readouterr().out
            for fragment in expected:
                assert fragment in text, (command, fragment)


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
