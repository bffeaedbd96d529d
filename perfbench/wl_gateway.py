"""``gateway``: a loopback ``GatewayServer`` serving the paper's 2.0/2.0
artifact (2-bit weights, calibrated 2-bit activations) with the integer
backend from a process pool of 2 workers.

Two keep-alive ``GatewayClient`` connections drive it closed loop with
8-row requests, the way ``repro predict --url`` callers wait for each
reply. The float forward and the thread pool are not on this path.

The artifact comes from one run of the pipeline (fixture seed, refine
seed 0), built once per program version and kept under ``.work/``.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

import numpy as np

from harness import (
    FIXTURE,
    FIXTURE_SEED,
    SRC,
    WORK,
    artifact_avg_bits,
    check,
    median,
    own_peak_rss_mb,
    percentile,
    process_cpu_s,
    process_peak_rss_mb,
)
from wl_quantize import pipeline_config
from wl_serve import KEPT_ROWS, Traffic, batches_of, pooled, verify_sample

NAME = "cq"
BLOCKS = 3
CLIENTS = 2
REQUEST_ROWS = 8
VERIFY_ROWS = 128
"""Rows of timed traffic re-executed by the gate (whole batches chosen
by the seed): an integer-backend replay costs ~7 ms a row, because each
batch is also run through the float reference for the rescale bound."""


def artifact_path():
    """Where this program version's 2.0/2.0 artifact is kept."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    digest.update(repr(pipeline_config(0)).encode())
    return WORK / f"gateway-{digest.hexdigest()[:16]}.cqw"


def build_artifact() -> None:
    """Run the pipeline once and keep its artifact, if not already kept."""
    path = artifact_path()
    if path.exists():
        return
    from repro.core.pipeline import ClassBasedQuantizer
    from repro.experiments.presets import get_pretrained
    from repro.serve import artifact_from_result

    model, dataset, _ = get_pretrained(*FIXTURE[:2], scale=FIXTURE[2], seed=FIXTURE_SEED)
    result = ClassBasedQuantizer(pipeline_config(0)).quantize(model, dataset)
    artifact = artifact_from_result(
        result, FIXTURE[0], FIXTURE[1], dataset, scale=FIXTURE[2], seed=FIXTURE_SEED
    )
    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob("gateway-*.cqw"):
        stale.unlink()
    partial = path.with_suffix(".part")
    partial.write_bytes(bytes(artifact.data))
    os.replace(partial, path)


class Gateway:
    name = "gateway"

    def __init__(self, seed: int, setup_tracer=None):
        started = time.perf_counter()
        from repro.experiments import presets
        from repro.gateway import ArtifactRegistry, ArtifactSpec, GatewayClient, GatewayServer
        from repro.serve import load_artifact_bytes

        self.breakdown = {"setup.import_ms": (time.perf_counter() - started) * 1e3}
        self.seed = seed
        self._client_class = GatewayClient
        started = time.perf_counter()
        self.dataset = presets.get_dataset(FIXTURE[1], scale=FIXTURE[2], seed=FIXTURE_SEED)
        self.breakdown["data.synth_ms"] = (time.perf_counter() - started) * 1e3
        started = time.perf_counter()
        self.artifact = load_artifact_bytes(artifact_path().read_bytes())
        self.breakdown["experiments.fixture_ms"] = (time.perf_counter() - started) * 1e3
        started = time.perf_counter()
        self.registry = ArtifactRegistry()
        self.registry.register(
            ArtifactSpec(name=NAME, source=self.artifact, backend="integer",
                         pool="process", workers=2, record_batches=True),
            preload=True,
        )
        self.breakdown["gateway.preload_ms"] = (time.perf_counter() - started) * 1e3
        self.server = GatewayServer(self.registry).start()
        with GatewayClient(self.server.url) as client:
            client.healthz()
        self.session = self.registry.session(NAME)
        self.images = np.asarray(self.dataset.test_images, dtype=self.session.input_dtype)
        self.traffic = Traffic()

    def _worker_pids(self):
        return [engine.process.pid for engine in self.session.engines]

    def _workers_cpu_s(self) -> float:
        return sum(process_cpu_s(pid) for pid in self._worker_pids())

    def _decode(self, document, rows):
        """Per-row identities and answers of one predict response."""
        from repro.gateway import wire

        outputs = wire.decode_tensor(document["outputs"])
        return list(zip(document["engine_indices"], document["request_ids"], rows, outputs,
                        document["latency_s"], document["service_s"]))

    def closed_loop(self, seconds: float, seed: int):
        from repro.gateway import GatewayHTTPError

        # Per request: client latency and each row's server latency and
        # service time (seconds).
        results = [[] for _ in range(CLIENTS)]
        refused = [0] * CLIENTS
        failed = [0] * CLIENTS
        stop = time.perf_counter() + seconds

        def client(index: int) -> None:
            rng = np.random.default_rng([seed, index])
            with self._client_class(self.server.url) as http:
                while time.perf_counter() < stop:
                    rows = [int(r) for r in rng.integers(0, len(self.images), size=REQUEST_ROWS)]
                    started = time.perf_counter()
                    try:
                        document = http.predict_raw(NAME, self.images[rows])
                    except GatewayHTTPError:
                        refused[index] += 1
                        continue
                    except Exception:  # noqa: BLE001 - a failed request is counted
                        failed[index] += 1
                        continue
                    answers = self._decode(document, rows)
                    elapsed = time.perf_counter() - started
                    for engine, rid, row, output, _, _ in answers:
                        self.traffic.add(engine, rid, row, output)
                    results[index].append(
                        (elapsed, document["latency_s"], document["service_s"])
                    )

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        workers_before = self._workers_cpu_s()
        cpu_started = time.process_time()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        own_cpu = time.process_time() - cpu_started
        workers_cpu = self._workers_cpu_s() - workers_before
        answered = [r for per_client in results for r in per_client]
        return {
            "answered": answered, "refused": sum(refused), "failed": sum(failed),
            "wall": wall, "own_cpu": own_cpu, "workers_cpu": workers_cpu,
        }

    def measure(self, seconds: int, tracer=None) -> dict:
        if tracer is not None:
            from repro.gateway import client as client_module
            from repro.gateway import wire

            tracer.wrap(client_module, "encode_tensor", "gateway.client_encode")
            tracer.wrap(client_module, "canonical_dumps", "gateway.client_encode")
            tracer.wrap(client_module, "canonical_loads", "gateway.client_decode")
            tracer.wrap(wire, "decode_tensor", "gateway.client_decode")
        before = self.session.stats
        admission_before = self.registry.admission_stats(NAME)
        try:
            blocks = []
            for block in range(BLOCKS):
                self.traffic.keep(KEPT_ROWS)
                blocks.append(self.closed_loop(seconds / BLOCKS, self.seed * BLOCKS + block))
        finally:
            if tracer is not None:
                tracer.restore()
        after = self.session.stats
        answered = pooled(blocks, "answered")
        refused = sum(b["refused"] for b in blocks)
        failed = sum(b["failed"] for b in blocks)
        attempted = len(answered) + refused + failed
        # Each figure is the median over consecutive blocks, so one block
        # caught by a stall of the shared host does not move the result.
        block_ms = [np.array([a[0] for a in b["answered"]]) * 1e3 for b in blocks]
        block_rows = [len(b["answered"]) * REQUEST_ROWS for b in blocks]
        worker_rss = [process_peak_rss_mb(pid) for pid in self._worker_pids()]
        metrics = {
            "setup_s": None,
            "p50_ms": median([percentile(ms, 50) for ms in block_ms]),
            "p99_ms": median([percentile(ms, 99) for ms in block_ms]),
            "rows_per_s": median([rows / b["wall"] for rows, b in zip(block_rows, blocks)]),
            "cpu_ms_per_row": median([(b["own_cpu"] + b["workers_cpu"]) * 1e3 / rows
                                      for rows, b in zip(block_rows, blocks)]),
            "accuracy": None,
            "avg_bits": artifact_avg_bits(self.artifact),
            "artifact_bytes": self.artifact.nbytes,
            "peak_rss_mb": own_peak_rss_mb() + sum(worker_rss),
            "ok_ratio": len(answered) / attempted,
        }
        notes = {
            "requests": [len(b["answered"]) + b["refused"] + b["failed"] for b in blocks],
            "refused": refused, "failed": failed,
            "p50_ms": [round(percentile(ms, 50), 4) for ms in block_ms],
            "p99_ms": [round(percentile(ms, 99), 4) for ms in block_ms],
            "rows_per_s": [round(rows / b["wall"], 2) for rows, b in zip(block_rows, blocks)],
        }
        layers = {}
        if tracer is not None:
            forwards = after.forwards - before.forwards
            admission = self.registry.admission_stats(NAME)
            shm = self.session.pool.shm_stats()
            requests = len(answered)
            layers = {
                "serve.queue_wait_ms": float(np.mean(
                    [lat - svc for _, lats, svcs in answered for lat, svc in zip(lats, svcs)]
                )) * 1e3,
                "serve.service_ms": float(np.mean([svc for _, _, svcs in answered for svc in svcs]))
                                    * 1e3,
                "serve.mean_batch_rows": (after.served - before.served) / forwards,
                "serve.coalesced_ratio":
                    (after.coalesced_forwards - before.coalesced_forwards) / forwards,
                "gateway.overhead_ms": median([client - max(lats) for client, lats, _ in answered])
                                       * 1e3,
                "gateway.client_encode_ms": tracer.total_ms("gateway.client_encode") / requests,
                "gateway.client_decode_ms": tracer.total_ms("gateway.client_decode") / requests,
                "integer.acc_bits_used": after.acc_bits_used,
                "artifact.shared_mb": shm["nbytes"] / 1e6,
                "artifact.private_mb": self.registry.cache.stats.private_nbytes / 1e6,
                "procpool.worker_cpu_s": sum(b["workers_cpu"] for b in blocks),
                "procpool.worker_peak_rss_mb": max(worker_rss),
                "procpool.engine_deaths": after.engine_deaths,
                "gateway.rejected": (admission["rejected"] - admission_before["rejected"])
                                    + (after.rejected - before.rejected),
            }
        return {"metrics": metrics, "attempted": attempted,
                "failed": refused + failed, "layers": layers, "notes": notes}

    def gate(self, measured: dict) -> dict:
        """Served accuracy over the fixed test set through the socket;
        bit-exact self-parity and the integer rescale bound on those rows
        and on a seed-chosen sample of the timed traffic."""
        labels = self.dataset.test_labels
        keys, correct = [], 0
        self.traffic.keep(len(self.images))
        with self._client_class(self.server.url) as http:
            for row in range(len(self.images)):
                document = http.predict_raw(NAME, self.images[row:row + 1])
                engine, rid, _, output, _, _ = self._decode(document, [row])[0]
                self.traffic.add(engine, rid, row, output)
                keys.append((engine, rid))
                correct += int(output.argmax() == labels[row])
        accuracy = correct / len(self.images)
        measured["metrics"]["accuracy"] = accuracy
        check(self.session.stats.acc_bits_used > 0, "the int x int path did not run")
        verified = verify_sample(
            self.session, self.images, self.traffic, batches_of(self.session, keys),
            VERIFY_ROWS, self.seed,
        )
        return {"verified_rows": verified}

    def close(self) -> None:
        self.server.close(drain=True)

