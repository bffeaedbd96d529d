"""Activation-range observers.

The paper obtains the activation upper bound ``b`` "by performing
inference ... the maximum absolute value of activations in the layer"
(Sec. II-A). :class:`MinMaxObserver` tracks that running maximum during
calibration / training and freezes it for evaluation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class MinMaxObserver:
    """Tracks the running min/max of activations flowing through a layer.

    Parameters
    ----------
    percentile:
        If set (e.g. ``99.0``), the per-batch range comes from that
        percentile of the absolute values instead of the hard maximum.
        At very low bit-widths (the paper's 2-bit activations) a single
        outlier would otherwise stretch the uniform grid so far that
        almost all activations collapse into the zero bucket; clipping
        to a high percentile keeps the levels where the mass is. The
        hard-max behaviour of Sec. II-A is the ``None`` default.
    """

    def __init__(self, percentile: Optional[float] = None):
        if percentile is not None and not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        self.percentile = percentile
        self.min_value = float("inf")
        self.max_value = float("-inf")
        self.num_batches = 0

    def observe(self, values: np.ndarray) -> None:
        """Fold a batch of activations into the running range."""
        if values.size == 0:
            return
        if self.percentile is None:
            low = float(values.min())
            high = float(values.max())
        else:
            bounds = [100.0 - self.percentile, self.percentile]
            low, high = np.percentile(values, bounds).tolist()
        self.min_value = min(self.min_value, low)
        self.max_value = max(self.max_value, high)
        self.num_batches += 1

    @property
    def initialized(self) -> bool:
        return self.num_batches > 0

    def range_for_relu(self) -> tuple:
        """Quantization range for post-ReLU activations: ``[0, max]``."""
        if not self.initialized:
            raise RuntimeError(
                "observer has seen no data; run a calibration pass first"
            )
        return 0.0, max(self.max_value, 0.0)

    def reset(self) -> None:
        self.min_value = float("inf")
        self.max_value = float("-inf")
        self.num_batches = 0

    def state_dict(self) -> dict:
        return {
            "min_value": self.min_value,
            "max_value": self.max_value,
            "num_batches": self.num_batches,
            "percentile": self.percentile,
        }

    def load_state_dict(self, state: dict) -> None:
        self.min_value = float(state["min_value"])
        self.max_value = float(state["max_value"])
        self.num_batches = int(state["num_batches"])
        if "percentile" in state:
            self.percentile = state["percentile"]

    def __repr__(self) -> str:
        if not self.initialized:
            return "MinMaxObserver(uninitialized)"
        return f"MinMaxObserver([{self.min_value:.4g}, {self.max_value:.4g}])"
