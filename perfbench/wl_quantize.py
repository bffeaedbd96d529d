"""``quantize``: the paper's CQ pipeline at 2.0/2.0, ending in a packed
CQW1 artifact.

Importance scoring, the threshold search, conversion and KD refine run
on the pinned vgg-small/synth10/tiny fixture; the pipeline seeds (refine
shuffling) come from the workload seed. No serving code runs.
"""

from __future__ import annotations

import hashlib
import time

from harness import (
    FIXTURE,
    FIXTURE_SEED,
    artifact_avg_bits,
    check,
    load_fixture,
    median,
    own_peak_rss_mb,
    predictions,
    tensor_kernel_layers,
    wrap_tensor_kernels,
)

TARGET_BITS = 2.0
ACT_BITS = 2
REFINE_EPOCHS = 8
SECONDS_PER_PIPELINE = 10
"""One pipeline per this many seconds of ``--seconds``. The count is
fixed by the arguments, never by speed, so the run's mean accuracy
repeats exactly for a seed whatever the program's speed."""


def pipeline_config(seed: int):
    from repro.core.config import CQConfig

    return CQConfig(
        target_avg_bits=TARGET_BITS, act_bits=ACT_BITS, refine_epochs=REFINE_EPOCHS, seed=seed
    )


class Quantize:
    name = "quantize"

    def __init__(self, seed: int, setup_tracer=None):
        started = time.perf_counter()
        from repro.core import pipeline
        from repro.serve import artifact_from_result, serialize_artifact

        self.breakdown = {"setup.import_ms": (time.perf_counter() - started) * 1e3}
        self._pipeline = pipeline
        self._artifact_from_result = artifact_from_result
        self._serialize = serialize_artifact
        self.seed = seed
        self.model, self.dataset = load_fixture(setup_tracer)
        self.runs = []

    def _run_pipeline(self, seed: int):
        result = self._pipeline.ClassBasedQuantizer(pipeline_config(seed)).quantize(
            self.model, self.dataset
        )
        packed = time.perf_counter()
        artifact = self._artifact_from_result(
            result, FIXTURE[0], FIXTURE[1], self.dataset, scale=FIXTURE[2], seed=FIXTURE_SEED
        )
        blob = self._serialize(result.model, artifact.manifest)
        return result, artifact, blob, time.perf_counter() - packed

    def measure(self, seconds: int, tracer=None) -> dict:
        if tracer is not None:
            quantizer = self._pipeline.ClassBasedQuantizer
            tracer.wrap(quantizer, "compute_importance", "core.importance")
            tracer.wrap(quantizer, "search_bit_widths", "core.search")
            tracer.wrap(quantizer, "build_quantized_model", "quant.build")
            tracer.wrap(self._pipeline, "refine_quantized_model", "core.refine", cpu=True)
            tracer.wrap(self._pipeline, "evaluate_model", "train.eval")
            wrap_tensor_kernels(tracer)
        count = max(1, seconds // SECONDS_PER_PIPELINE)
        walls, cpus, packs, runs = [], [], [], []
        try:
            for index in range(count):
                cpu_started = time.process_time()
                started = time.perf_counter()
                result, artifact, blob, pack_s = self._run_pipeline(self.seed * 16 + index)
                walls.append(time.perf_counter() - started)
                cpus.append(time.process_time() - cpu_started)
                packs.append(pack_s)
                runs.append((result, artifact, blob))
        finally:
            if tracer is not None:
                tracer.restore()
        self.runs = runs
        test, labels = self.dataset.test_images, self.dataset.test_labels
        # The artifact is what gets deployed, so its accuracy is reported.
        # The refined model in memory can disagree with its own saved
        # state (see the gate); the count is reported next to it.
        served = [predictions(artifact.model(), test) for _, artifact, _ in runs]
        in_memory = [predictions(result.model, test) for result, _, _ in runs]
        mismatches = [int((s != m).sum()) for s, m in zip(served, in_memory)]
        rows = REFINE_EPOCHS * len(self.dataset.train_images)
        metrics = {
            "setup_s": None,
            "p50_ms": median(walls) * 1e3,
            "p99_ms": max(walls) * 1e3,
            "rows_per_s": rows / median(walls),
            "cpu_ms_per_row": median(cpus) * 1e3 / rows,
            "accuracy": sum(float((s == labels).mean()) for s in served) / count,
            "avg_bits": max(result.average_bits for result, _, _ in runs),
            "artifact_bytes": median([len(blob) for _, _, blob in runs]),
            "peak_rss_mb": own_peak_rss_mb(),
            "ok_ratio": len(runs) / count,
        }
        notes = {
            "pipelines": count,
            "pipeline_s": [round(w, 4) for w in walls],
            "cpu_s": [round(c, 4) for c in cpus],
            "pipeline_reported_accuracy": [r.accuracy_after_refine for r, _, _ in runs],
            "in_memory_vs_artifact_mismatched_rows": mismatches,
            "refine_rows_per_pipeline": rows,
        }
        layers = {}
        if tracer is not None:
            stats = runs[-1][0].search.eval_stats
            layers = {
                "core.importance_ms": tracer.total_ms("core.importance") / count,
                "core.search_ms": tracer.total_ms("core.search") / count,
                "quant.build_ms": tracer.total_ms("quant.build") / count,
                "core.refine_ms": tracer.total_ms("core.refine") / count,
                "core.refine_cpu_s": tracer.cpu_seconds.get("core.refine", 0.0) / count,
                "train.eval_ms": tracer.total_ms("train.eval") / count,
                "serve.pack_ms": median(packs) * 1e3,
                "core.search_evaluations": stats.evaluations,
                "core.search_memo_hits": stats.memo_hits,
                "core.search_layers_executed": stats.layers_executed,
                "core.search_filters_quantized": stats.filters_quantized,
                "core.search_segments_skipped": stats.segments_skipped,
                "quant.in_memory_mismatch_rows": sum(mismatches) / count,
            }
            layers.update(tensor_kernel_layers(tracer, per=count))
        return {"metrics": metrics, "attempted": count, "failed": count - len(runs),
                "layers": layers, "notes": notes}

    def _from_state(self, result):
        """A fresh model of the preset loaded from the refined state."""
        from repro.experiments.presets import build_preset_model
        from repro.quant.qmodules import quantize_model

        model = build_preset_model(
            FIXTURE[0], self.dataset.num_classes, self.dataset.config.image_size,
            scale=FIXTURE[2], seed=FIXTURE_SEED,
        )
        quantize_model(model, max_bits=result.config.max_bits, act_bits=result.config.act_bits)
        model.load_state_dict(result.model.state_dict())
        return model

    def gate(self, measured: dict) -> dict:
        """Bit budget met; packing is deterministic; the packed bytes
        reload to identical predictions; and the artifact is the refined
        model's state, narrowed once.

        The default sidecar stores the non-payload state as float32, so
        the deployed model may differ from the float64 state in the last
        bits, and a 2-bit activation at a rounding boundary can turn
        that into another prediction. The state is therefore checked
        through the same model packed with the lossless float64 sidecar
        (identical predictions), and the deployed sidecar must be exactly
        that lossless state narrowed to its dtype, next to the same
        CQW1 payload.
        """
        import numpy as np

        from repro.serve import artifact as artifact_module
        from repro.serve import load_artifact_bytes, serialize_artifact

        test = self.dataset.test_images
        for result, artifact, blob in self.runs:
            check(result.average_bits <= TARGET_BITS,
                  f"average bits {result.average_bits} exceed {TARGET_BITS}")
            check(abs(artifact_avg_bits(artifact) - result.average_bits) < 1e-12,
                  "artifact bit-width disagrees with the search's bit map")
            check(bytes(blob) == bytes(artifact.data), "re-serialization is not byte-identical")
            served = predictions(load_artifact_bytes(bytes(blob)).model(), test)
            check(bool((served == predictions(artifact.model(), test)).all()),
                  "reloading the packed bytes changed the predictions")
            lossless = load_artifact_bytes(
                serialize_artifact(result.model, artifact.manifest, sidecar_dtype="float64")
            )
            check(bool((predictions(lossless.model(), test)
                        == predictions(self._from_state(result), test)).all()),
                  "the lossless artifact predicts differently from the refined model's state")
            payload = artifact.payload_nbytes
            check(bytes(artifact.data[:payload]) == bytes(lossless.data[:lossless.payload_nbytes]),
                  "the artifact's CQW1 payload differs from the lossless packing's")
            narrow = artifact_module.SIDECAR_DTYPES[artifact.sidecar_dtype]
            check(sorted(artifact.state) == sorted(lossless.state) and all(
                np.array_equal(artifact.state[name], value.astype(narrow).astype(value.dtype))
                for name, value in lossless.state.items()
            ), "the artifact's sidecar is not the refined state narrowed once")
        return {"artifact_sha256": [hashlib.sha256(bytes(b)).hexdigest()[:16]
                                    for _, _, b in self.runs]}

    def close(self) -> None:
        self.runs = []
