"""``serve``: an in-process ``ServingSession`` (thread pool of 2 engines,
float backend) serving a uniform 2-bit weight-only artifact.

Two phases alternate in 3 blocks, so that each spans the whole run:

* open loop (two thirds of ``--seconds``): seeded Poisson arrivals at a
  fixed rate; most requests carry one row, a minority 8 or 32 rows.
  Latency runs from the *scheduled* arrival, so a stalled generator
  counts against the server, and the generator's own lateness is
  reported next to it;
* closed loop: 2 clients each submitting 32-row requests back to back,
  which saturates the engines and gives the throughput.

The gateway, the process pool, the integer backend and autograd are not
on this path.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from harness import (
    FIXTURE,
    FIXTURE_SEED,
    artifact_avg_bits,
    check,
    load_fixture,
    median,
    own_peak_rss_mb,
    percentile,
    tensor_kernel_layers,
    wrap_tensor_kernels,
)

RATE_RPS = 150.0
"""About a quarter of saturation for this mix on a 2-CPU host: latency
grows without bound between 500 and 700 requests/s."""
OPEN_SHARE = 2 / 3
"""Share of each block spent open loop: the closed-loop throughput is
steady within seconds, while a block's p99 needs ~1000 requests."""
BATCH_SIZES = (1, 8, 32)
BATCH_WEIGHTS = (0.85, 0.1, 0.05)
BLOCKS = 3
CLIENTS = 2
CLOSED_ROWS = 32
KEPT_ROWS = 1024
"""Answers kept per phase for the parity gate. A fixed number, so the
benchmark's own memory does not grow with the program's throughput
(``peak_rss_mb`` measures the program)."""
VERIFY_ROWS = 512
"""Rows of timed traffic re-executed by the parity gate, as whole
executed batches chosen by the seed (``verify_replay`` costs about as
much as serving, so all of it would double the run)."""

LEAF_KINDS = {
    "Conv2d": "conv2d", "QConv2d": "conv2d",
    "BatchNorm2d": "batchnorm", "BatchNorm1d": "batchnorm",
    "MaxPool2d": "maxpool", "ReLU": "relu",
    "Linear": "linear", "QLinear": "linear",
}


def pooled(blocks, key) -> list:
    """One list of ``key`` over every block."""
    return [value for block in blocks for value in block[key]]


class Traffic:
    """Identity, input row and answer of served rows, for the gate: the
    first ``budget`` rows answered after each :meth:`keep` call."""

    def __init__(self):
        self.lock = threading.Lock()
        self.rows = {}  # (engine_index, request_id) -> (input row, output)  guarded-by: lock
        self.budget = 0  # guarded-by: lock

    def keep(self, rows: int) -> None:
        with self.lock:
            self.budget = rows

    def add(self, engine_index: int, request_id: int, row: int, output) -> None:
        with self.lock:
            if self.budget > 0:
                self.budget -= 1
                self.rows[(engine_index, request_id)] = (row, output)

    def record(self, pending, row: int) -> bool:
        """Wait for ``pending``; False if it was refused or failed."""
        if pending is None:
            return False
        try:
            output = pending.result(timeout=120)
        except Exception:  # noqa: BLE001 - a failed request is counted, not raised
            return False
        self.add(pending.engine_index, pending.request_id, row, output)
        return True


def verify_sample(session, images, traffic: Traffic, batches, limit: int, seed: int) -> int:
    """Bit-exact parity of a seed-chosen set of whole executed batches
    plus every batch in ``batches`` (the fixed accuracy set)."""
    from repro.serve import ReplayRun, verify_replay

    known = []
    for engine_index, engine, _model in session.engine_records():
        for batch in engine.executed_batches():
            keys = [(engine_index, rid) for rid in batch]
            if all(key in traffic.rows for key in keys):
                known.append(keys)
    rng = np.random.default_rng(seed)
    chosen, rows = [], 0
    for index in rng.permutation(len(known)):
        if rows >= limit:
            break
        chosen.append(known[index])
        rows += len(known[index])
    chosen.extend(batches)
    keys = sorted({key for batch in chosen for key in batch})
    inputs = np.stack([images[traffic.rows[key][0]] for key in keys])
    run = ReplayRun(
        payload={},
        outputs=np.stack([traffic.rows[key][1] for key in keys]),
        request_ids=[key[1] for key in keys],
        engine_indices=[key[0] for key in keys],
    )
    return verify_replay(session, inputs, run, expected=len(keys))


def batches_of(session, keys) -> list:
    """The executed batches that served exactly the rows in ``keys``."""
    wanted = set(keys)
    found = []
    for engine_index, engine, _model in session.engine_records():
        for batch in engine.executed_batches():
            batch_keys = [(engine_index, rid) for rid in batch]
            if batch_keys and all(key in wanted for key in batch_keys):
                found.append(batch_keys)
    check(sum(len(b) for b in found) == len(wanted), "accuracy rows shared a batch with other traffic")
    return found


class Serve:
    name = "serve"

    def __init__(self, seed: int, setup_tracer=None):
        started = time.perf_counter()
        from repro.serve import ServeConfig, ServingSession
        from repro.serve import replay

        self.breakdown = {"setup.import_ms": (time.perf_counter() - started) * 1e3}
        self.seed = seed
        _model, self.dataset = load_fixture(setup_tracer)
        if setup_tracer is not None:
            setup_tracer.wrap(replay, "build_uniform_artifact", "serve.compile")
        self.artifact = replay.build_uniform_artifact(
            *FIXTURE[:2], scale=FIXTURE[2], seed=FIXTURE_SEED, bits=2
        )
        started = time.perf_counter()
        self.session = ServingSession(
            self.artifact,
            config=ServeConfig(engines=2, max_batch_size=CLOSED_ROWS, record_batches=True),
        )
        self.session.warmup(count=2)
        self.breakdown["serve.session_start_ms"] = (time.perf_counter() - started) * 1e3
        self.images = np.asarray(self.dataset.test_images, dtype=self.session.input_dtype)
        self.traffic = Traffic()

    # -- phases ---------------------------------------------------------
    def _submit(self, row: int):
        """Submit one row; ``None`` when the session refuses it."""
        try:
            return self.session.submit(self.images[row])
        except Exception:  # noqa: BLE001 - a refusal is counted, the run goes on
            return None

    def open_loop(self, seconds: float, seed: int):
        from repro.serve.trace import TraceConfig, generate_trace

        trace = generate_trace(TraceConfig(
            kind="poisson", requests=max(1, int(RATE_RPS * seconds)), rate_rps=RATE_RPS,
            seed=seed, batch_sizes=BATCH_SIZES, batch_weights=BATCH_WEIGHTS,
        ))
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, len(self.images), size=int(trace.batch_sizes.sum()))
        requests, lag = [], []
        cursor = 0
        started = time.perf_counter()
        for arrival, size in zip(trace.arrivals_s, trace.batch_sizes):
            due = started + float(arrival)
            while True:
                delay = due - time.perf_counter()
                if delay <= 0:
                    break
                time.sleep(min(delay, 0.05))
            lag.append(time.perf_counter() - due)
            sent = []
            for row in rows[cursor:cursor + int(size)]:
                stamp = time.perf_counter()
                sent.append((self._submit(int(row)), int(row), stamp))
            cursor += int(size)
            requests.append((due, sent))
        latencies, queue_waits, services, failed = [], [], [], 0
        for due, sent in requests:
            finish, ok = due, True
            for pending, row, stamp in sent:
                if not self.traffic.record(pending, row):
                    ok = False
                    continue
                finish = max(finish, stamp + pending.latency_s)
                services.append(pending.service_s)
                queue_waits.append(pending.latency_s - pending.service_s)
            if ok:
                latencies.append(finish - due)
            else:
                failed += 1
        return {
            "requests": len(requests), "failed": failed, "latencies": latencies,
            "lag": lag, "queue_wait": queue_waits, "service": services,
        }

    def closed_loop(self, seconds: float, seed: int):
        counts = [[0, 0, 0] for _ in range(CLIENTS)]  # requests, failed, rows
        stop = time.perf_counter() + seconds

        def client(index: int) -> None:
            rng = np.random.default_rng([seed, index])
            tally = counts[index]
            while time.perf_counter() < stop:
                rows = [int(row) for row in rng.integers(0, len(self.images), size=CLOSED_ROWS)]
                sent = [(self._submit(row), row) for row in rows]
                tally[0] += 1
                answered = [self.traffic.record(pending, row) for pending, row in sent]
                if all(answered):
                    tally[2] += len(sent)
                else:
                    tally[1] += 1

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        cpu_started = time.process_time()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        requests, failed, rows = (sum(c[i] for c in counts) for i in range(3))
        return {"requests": requests, "failed": failed, "rows": rows, "wall": wall, "cpu": cpu}

    # -- the run --------------------------------------------------------
    def measure(self, seconds: int, tracer=None) -> dict:
        if tracer is not None:
            wrap_tensor_kernels(tracer)
        before = self.session.stats
        opened_blocks, closed_blocks = [], []
        block_s = seconds / BLOCKS
        try:
            for block in range(BLOCKS):
                self.traffic.keep(KEPT_ROWS)
                opened_blocks.append(
                    self.open_loop(block_s * OPEN_SHARE, self.seed * BLOCKS + block)
                )
                self.traffic.keep(KEPT_ROWS)
                closed_blocks.append(
                    self.closed_loop(block_s * (1 - OPEN_SHARE), self.seed * BLOCKS + block)
                )
        finally:
            if tracer is not None:
                tracer.restore()
        after = self.session.stats
        attempted = sum(b["requests"] for b in opened_blocks + closed_blocks)
        failed = sum(b["failed"] for b in opened_blocks + closed_blocks)
        # Each figure is the median over the blocks, so one block caught
        # by a stall of the shared host does not move the run's result.
        block_ms = [np.asarray(b["latencies"]) * 1e3 for b in opened_blocks]
        metrics = {
            "setup_s": None,
            "p50_ms": median([percentile(ms, 50) for ms in block_ms]),
            "p99_ms": median([percentile(ms, 99) for ms in block_ms]),
            "rows_per_s": median([b["rows"] / b["wall"] for b in closed_blocks]),
            "cpu_ms_per_row": median([b["cpu"] * 1e3 / b["rows"] for b in closed_blocks]),
            "accuracy": None,
            "avg_bits": artifact_avg_bits(self.artifact),
            "artifact_bytes": self.artifact.nbytes,
            "peak_rss_mb": own_peak_rss_mb(),
            "ok_ratio": (attempted - failed) / attempted,
        }
        lag_ms = np.asarray(pooled(opened_blocks, "lag")) * 1e3
        notes = {
            "open_loop": {"requests": [b["requests"] for b in opened_blocks],
                          "failed": [b["failed"] for b in opened_blocks],
                          "rate_rps": RATE_RPS,
                          "p50_ms": [round(percentile(ms, 50), 4) for ms in block_ms],
                          "p99_ms": [round(percentile(ms, 99), 4) for ms in block_ms],
                          "lag_ms_p50": percentile(lag_ms, 50),
                          "lag_ms_p99": percentile(lag_ms, 99)},
            "closed_loop": {"requests": [b["requests"] for b in closed_blocks],
                            "failed": [b["failed"] for b in closed_blocks],
                            "rows_per_s": [round(b["rows"] / b["wall"], 2) for b in closed_blocks]},
        }
        layers = {}
        if tracer is not None:
            forwards = after.forwards - before.forwards
            served = after.served - before.served
            services = pooled(opened_blocks, "service")
            rows_served = len(services) + sum(b["rows"] for b in closed_blocks)
            layers = {
                "serve.queue_wait_ms": float(np.mean(pooled(opened_blocks, "queue_wait"))) * 1e3,
                "serve.service_ms": float(np.mean(services)) * 1e3,
                "serve.mean_batch_rows": served / forwards,
                "serve.coalesced_ratio":
                    (after.coalesced_forwards - before.coalesced_forwards) / forwards,
                "serve.dispatch_lag_ms": percentile(lag_ms, 99),
            }
            layers.update(tensor_kernel_layers(tracer, per=rows_served / 1000))
            layers.update(self.forward_layers())
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "layers": layers, "notes": notes}

    def forward_layers(self) -> dict:
        """Batch-1 and batch-32 forwards of a clone of the served model,
        then the batch-32 forward's split over leaf-module kinds."""
        from repro.tensor.tensor import Tensor, no_grad

        model = self.artifact.clone_model()
        model.eval()
        batch1 = Tensor(self.images[:1])
        batch32 = Tensor(self.images[np.arange(32) % len(self.images)])

        def timed(x, repeats):
            samples = []
            with no_grad():
                for _ in range(repeats):
                    started = time.perf_counter()
                    model(x)
                    samples.append(time.perf_counter() - started)
            return median(samples) * 1e3

        layers = {"serve.forward_b1_ms": timed(batch1, 200),
                  "serve.forward_b32_ms": timed(batch32, 50)}
        spent = {kind: 0.0 for kind in set(LEAF_KINDS.values())}

        def wrap(module, kind):
            forward = module.forward

            def traced(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return forward(*args, **kwargs)
                finally:
                    spent[kind] += time.perf_counter() - started
            module.forward = traced

        for _name, module in model.named_modules():
            kind = LEAF_KINDS.get(type(module).__name__)
            if kind is not None:
                wrap(module, kind)
        with no_grad():
            started = time.perf_counter()
            for _ in range(50):
                model(batch32)
            total = time.perf_counter() - started
        for kind, seconds in spent.items():
            layers[f"nn.{kind}_share"] = seconds / total
        return layers

    def gate(self, measured: dict) -> dict:
        """Served accuracy over the fixed test set, then bit-exact parity
        of those rows and of a seed-chosen sample of the timed traffic."""
        labels = self.dataset.test_labels
        keys, correct = [], 0
        self.traffic.keep(len(self.images))
        for row in range(len(self.images)):
            pending = self.session.submit(self.images[row])
            check(self.traffic.record(pending, row), f"accuracy row {row} was not answered")
            keys.append((pending.engine_index, pending.request_id))
            correct += int(pending.result().argmax() == labels[row])
        accuracy = correct / len(self.images)
        measured["metrics"]["accuracy"] = accuracy
        verified = verify_sample(
            self.session, self.images, self.traffic, batches_of(self.session, keys),
            VERIFY_ROWS, self.seed,
        )
        return {"verified_rows": verified}

    def close(self) -> None:
        self.session.close()
