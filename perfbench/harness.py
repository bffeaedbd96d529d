"""Shared machinery of the benchmark: paths, host fingerprint, set-up
probes, call tracing, process accounting and small statistics.

Everything here reads the program only through its public modules; the
tracer wraps public functions from the outside and restores them.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
"""Build products of the benchmark (git-ignored): the gateway's
2.0/2.0 artifact, keyed by a hash of the program sources."""

FIXTURE = ("vgg-small", "synth10", "tiny")
FIXTURE_SEED = 0
"""The pretrained fixture every workload starts from. Its seed is pinned:
a workload seed reaching ``get_pretrained`` would train a new model
inside set-up and write a checkpoint into the tracked fixture cache."""

SETUP_PROBES = 4
"""Fresh interpreters per run whose set-up is timed; the median is
``setup_s``."""


class BenchmarkError(RuntimeError):
    """The checkout cannot run the benchmark, or an output check failed."""


def require_checkout() -> None:
    """Put ``src`` on ``sys.path`` after checking the checkout is whole."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    model, dataset, scale = FIXTURE
    pattern = f"{model}-{dataset}-{scale}-{FIXTURE_SEED}-*.npz"
    if not list((ROOT / ".cache" / "pretrained").glob(pattern)):
        # get_pretrained would silently train and write a checkpoint.
        raise BenchmarkError(f"pretrained fixture .cache/pretrained/{pattern} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _openblas_threads() -> Optional[int]:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def fingerprint() -> Dict[str, object]:
    """Host settings that change the numbers (recorded, never changed).

    ``repro.data.synthetic`` generates different data with and without
    scipy, so its availability is part of every result.
    """
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    try:
        import scipy  # noqa: F401

        scipy_importable = True
    except ImportError:
        scipy_importable = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": _openblas_threads(),
        "scipy": scipy_importable,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Child interpreters: set-up probes and the gateway artifact build
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, trace: int, mode: str, timeout_s: float = 600.0):
    """Start ``run.py`` in ``mode`` in a fresh interpreter; returns its
    first line of output and the seconds until it arrived."""
    command = [
        sys.executable, str(Path(__file__).resolve().parent / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), mode,
    ]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        code = process.wait(timeout=timeout_s)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0:
        raise BenchmarkError(f"{mode} child failed (exit {code}): {line[:200]!r}")
    return line, elapsed


def stop_child_processes(timeout_s: float = 10.0) -> None:
    """Leave no process of this interpreter behind: join (or terminate)
    every multiprocessing child still alive, then stop and reap
    multiprocessing's resource tracker, which the shared-memory artifact
    of the process pool starts and which would otherwise outlive us."""
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        # Closing its pipe makes the tracker exit; _stop also waits for it.
        tracker_module._resource_tracker._stop()


def probe_setups(workload: str, seed: int, trace: int, count: int):
    """Time ``count`` fresh interpreters from spawn to their first timed
    operation; returns ``(seconds, breakdowns)``.

    Each probe runs the workload's real set-up, reports ``READY`` with
    its own per-layer breakdown, then tears down and exits.
    """
    seconds: List[float] = []
    breakdowns: List[Dict[str, float]] = []
    for _ in range(count):
        line, elapsed = run_child(workload, seed, trace, "--probe-setup", timeout_s=120.0)
        if not line.startswith(b"READY "):
            raise BenchmarkError(f"set-up probe did not report READY: {line[:200]!r}")
        seconds.append(elapsed)
        breakdowns.append(json.loads(line[len(b"READY "):]))
    return seconds, breakdowns


# ----------------------------------------------------------------------
# Tracing: wrap public functions, accumulate self time per layer
# ----------------------------------------------------------------------
class Tracer:
    """Times calls into public functions by wrapping them in place.

    Each layer keeps its inclusive time and its self time (inclusive
    minus the time of traced calls nested inside it). Counts and
    computed byte totals accumulate next to the times. ``restore`` puts
    every original back.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self.seconds: Dict[str, float] = defaultdict(float)  # guarded-by: _lock
        self.self_seconds: Dict[str, float] = defaultdict(float)  # guarded-by: _lock
        self.cpu_seconds: Dict[str, float] = defaultdict(float)  # guarded-by: _lock
        self.calls: Dict[str, int] = defaultdict(int)  # guarded-by: _lock
        self.nbytes: Dict[str, int] = defaultdict(int)  # guarded-by: _lock

    def wrap(
        self,
        owner,
        attribute: str,
        layer: str,
        nbytes: Optional[Callable[[object], int]] = None,
        cpu: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a timing wrapper.

        ``nbytes(result)`` computes the bytes a call produced; ``cpu``
        also charges the process CPU time the call used.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            cpu_started = time.process_time() if cpu else 0.0
            started = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - started
                cpu_used = time.process_time() - cpu_started if cpu else 0.0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                produced = nbytes(result) if nbytes is not None and result is not None else 0
                with tracer._lock:
                    tracer.seconds[layer] += elapsed
                    tracer.self_seconds[layer] += elapsed - nested
                    tracer.calls[layer] += 1
                    tracer.nbytes[layer] += produced
                    if cpu:
                        tracer.cpu_seconds[layer] += cpu_used

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def total_ms(self, layer: str) -> float:
        with self._lock:
            return self.seconds.get(layer, 0.0) * 1e3

    def self_ms(self, layer: str) -> float:
        with self._lock:
            return self.self_seconds.get(layer, 0.0) * 1e3


# ----------------------------------------------------------------------
# Program-facing helpers shared by the workloads
# ----------------------------------------------------------------------
def load_fixture(tracer: Optional["Tracer"]):
    """The pretrained fixture ``(model, dataset)``. ``tracer`` (left
    installed for the rest of set-up) splits data synthesis from
    checkpoint loading."""
    from repro.experiments import presets

    if tracer is not None:
        tracer.wrap(presets, "get_dataset", "data.synth")
        tracer.wrap(presets, "get_pretrained", "experiments.fixture")
    model, dataset, _ = presets.get_pretrained(*FIXTURE[:2], scale=FIXTURE[2], seed=FIXTURE_SEED)
    return model, dataset


def artifact_avg_bits(artifact) -> float:
    """Weight-weighted mean bit-width of an artifact's quantized layers."""
    import numpy as np

    layers = artifact.export.layers.values()
    weights = sum(int(np.prod(layer.weight_shape)) for layer in layers)
    return sum(layer.payload_bits for layer in layers) / weights


def predictions(model, images):
    """Class predictions of ``model`` in eval mode, without gradients."""
    from repro.tensor.tensor import Tensor, no_grad

    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model(Tensor(images)).data.argmax(axis=1)
    finally:
        model.train(was_training)


def wrap_tensor_kernels(tracer: "Tracer") -> None:
    """Trace im2col/col2im (with the bytes they write) and conv2d."""
    from repro.quant import integer
    from repro.tensor import functional

    def written(array) -> int:
        return int(array.nbytes)

    tracer.wrap(functional, "im2col", "tensor.im2col", nbytes=written)
    tracer.wrap(integer, "im2col", "tensor.im2col", nbytes=written)
    tracer.wrap(functional, "col2im", "tensor.col2im", nbytes=written)
    tracer.wrap(functional, "conv2d", "tensor.conv2d")


def tensor_kernel_layers(tracer: "Tracer", per: float) -> Dict[str, float]:
    """Kernel self times, calls and MB written, divided by ``per`` units
    of work (conv2d's self time excludes the im2col it calls)."""
    out = {}
    for kernel in ("im2col", "col2im"):
        layer = f"tensor.{kernel}"
        out[f"{layer}_ms"] = tracer.self_ms(layer) / per
        out[f"{layer}_calls"] = tracer.calls.get(layer, 0) / per
        out[f"{layer}_mb"] = tracer.nbytes.get(layer, 0) / 1e6 / per
    out["tensor.conv2d_ms"] = tracer.self_ms("tensor.conv2d") / per
    return out


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def check(condition: bool, message: str) -> None:
    """An output check; a failure fails the run."""
    if not condition:
        raise BenchmarkError(f"output check failed: {message}")
