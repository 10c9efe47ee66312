"""The bit-for-bit noise tests, the focal-loss oracle and the golden
artifacts at numpy's SIMD dispatch levels below this host's own.

numpy picks its SIMD kernels when it is imported, and
``NPY_DISABLE_CPU_FEATURES`` switches dispatch targets off for one process.
Each level below runs the named tests in a child process with that variable
set in the child's environment only. The children of all levels start at
once, from one module fixture, and each level's test waits for its own. The
simulator skips Box-Muller where the sign of cos or sin says the clip gives
0, so these runs check that reasoning against other ``cos``, ``sin`` and
``log1p`` kernels; the focal losses refuse a NaN prediction, whose result's
sign would follow the kernel. A level the host does not reach above is
skipped: the main run already covers it.

The focal losses' ``log``, ``log1p`` and ``power`` change bits with the
dispatch level too, so a training-sized loss digest is promised only at one
level: two fresh processes at the host's own level must agree on it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import recistkit

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TESTS = Path(__file__).resolve().parent
TEST_IDS = [
    "tests/test_rng_oracle.py::TestNoisePathOracle",
    "tests/test_rng_oracle.py::TestClippedNoiseBoundaries",
    "tests/test_cli.py::TestGoldenBytes",
    "tests/test_losses_oracle.py",
]
# the dispatch targets each level switches off, of those this host enables
LEVELS = {
    "AVX-512 off": lambda target: target.startswith("AVX512") or target == "X86_V4",
    "baseline": lambda target: True,
}
# the child checks that numpy left the targets off before it runs the tests
CHILD = """
import sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
off = sys.argv[1].split()
assert not any(__cpu_features__.get(target) for target in off), off
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


# the loss values and gradients of one train_targets benchmark sample: focal
# loss on (5, 192, 192) heatmaps and offset loss on (8, 192, 192) planes
LOSS_DIGEST = """
import hashlib
import numpy as np
from recistkit import (
    focal_loss, focal_loss_grad, generate_scene, offset_loss, offset_loss_grad,
    render_targets,
)
scene = generate_scene(4, image_size=(768, 768), seed=5)
extremes = [ann.extremes() for ann in scene.annotations]
targets = render_targets(extremes, 192, 192, 4, input_size=(768, 768))
planes, n = targets.bundle.keypoint_maps, targets.n_objects
rng = np.random.default_rng(0)
heat = rng.uniform(0.001, 0.5, (5, 192, 192)).astype(np.float32)
offsets = rng.uniform(0.0, 1.0, (8, 192, 192)).astype(np.float32)
losses = [focal_loss(heat, planes, n), offset_loss(offsets, targets)]
digest = hashlib.sha256(np.array(losses, dtype="<f8").tobytes())
for grad in (focal_loss_grad(heat, planes, n), offset_loss_grad(offsets, targets)):
    digest.update(np.ascontiguousarray(grad, dtype="<f8").tobytes())
print(digest.hexdigest())
"""


def _child_env(**extra: str) -> dict:
    """This process's environment plus ``extra``, with this recistkit first
    on the path."""
    env = dict(os.environ, **extra)
    src = str(Path(recistkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _start(level: str, log: Path):
    """The child run of ``level``, writing to ``log``; None with no target to
    switch off."""
    off = [t for t in __cpu_dispatch__ if __cpu_features__.get(t) and LEVELS[level](t)]
    if "X86_V3" not in __cpu_dispatch__ or not off:
        return None
    env = _child_env(NPY_DISABLE_CPU_FEATURES=" ".join(off))
    with log.open("w") as out:
        return subprocess.Popen(
            [sys.executable, "-c", CHILD, " ".join(off), "-q", "-p", "no:cacheprovider",
             *TEST_IDS],
            cwd=TESTS.parent, env=env, stdout=out, stderr=subprocess.STDOUT,
        )


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    """Every level's child run and its log, all started at once."""
    logs = tmp_path_factory.mktemp("dispatch_levels")
    started = {}
    for i, level in enumerate(LEVELS):
        log = logs / f"level{i}.log"
        started[level] = (_start(level, log), log)
    yield started
    for child, _ in started.values():
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()


@pytest.mark.parametrize("level", list(LEVELS))
def test_noise_oracles_and_golden_bytes_pass(level, children):
    child, log = children[level]
    if child is None:
        pytest.skip(f"numpy on this host dispatches no x86 target above {level}")
    child.wait(timeout=120)
    assert child.returncode == 0, log.read_text()


def test_loss_digest_is_identical_in_fresh_processes_at_the_host_level():
    children = [
        subprocess.Popen(
            [sys.executable, "-c", LOSS_DIGEST], env=_child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    digests = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        digests.append(out.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
