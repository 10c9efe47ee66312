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


def _start(level: str, log: Path):
    """The child run of ``level``, writing to ``log``; None with no target to
    switch off."""
    off = [t for t in __cpu_dispatch__ if __cpu_features__.get(t) and LEVELS[level](t)]
    if "X86_V3" not in __cpu_dispatch__ or not off:
        return None
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off))
    src = str(Path(recistkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
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
