"""What the benchmark measures: workloads, metrics, units, bounds.

`python3 bench/run.py --write-spec` writes BENCHMARK.json at the repository
root from these tables, so the file and the running code cannot disagree.
Bounds were set from the spread of ten seeds per workload; see README.md.
"""

from __future__ import annotations

import json
import os

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 40

# name -> one-line reason the workload is in the benchmark
WORKLOADS = {
    "mlp-schedulers": "GMP, RigL and AC/DC on an MLP plus mask, sharpness and interpolation "
    "analyses: pure-Python RNG in dataset builds and model rebuilds dominates; masked SGD, "
    "mask updates and checkpoint I/O also run",
    "cnn-acdc": "AC/DC micro-CNN at two weight decays plus channel sparsity: conv forward and "
    "backward dominate, RNG and masks barely run",
    "transformer-transfer": "tiny-transformer GMP pre-train and gradual sparse transfer with "
    "dropout: the RNG runs inside every step, set-up is cheap",
}

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("train_samples_per_s", "samples/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# (name, unit, better); times are self times unless README.md says otherwise
PER_LAYER = [
    ("rng.s", "s", "lower"),
    ("rng.draws", "count", "lower"),
    ("rng.draws_per_s", "draws/s", "higher"),
    ("data.build_s", "s", "lower"),
    ("data.builds", "count", "lower"),
    ("models.build_s", "s", "lower"),
    ("models.builds", "count", "lower"),
    ("models.loss_and_grad_s", "s", "lower"),
    ("models.loss_and_grad_calls", "count", "lower"),
    ("models.step_ms", "ms", "lower"),
    ("models.forward_s", "s", "lower"),
    ("models.forward_calls", "count", "lower"),
    ("autodiff.backward_s", "s", "lower"),
    ("autodiff.conv2d_s", "s", "lower"),
    ("optim.sgd_step_s", "s", "lower"),
    ("optim.sgd_step_calls", "count", "lower"),
    ("optim.sgd_step_ms", "ms", "lower"),
    ("sparsify.mask_update_s", "s", "lower"),
    ("sparsify.mask_updates", "count", "lower"),
    ("sparsify.weights_scored", "count", "lower"),
    ("runner.evaluate_s", "s", "lower"),
    ("runner.loop_self_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.bytes_written", "bytes", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes_read", "bytes", "lower"),
    ("checkpoint.rebuild_model_s", "s", "lower"),
    ("diagnostics.mask_iou_s", "s", "lower"),
    ("landscape.hvp_s", "s", "lower"),
    ("landscape.hvp_calls", "count", "lower"),
    ("transfer.train_s", "s", "lower"),
    ("transfer.steps", "count", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.analyze_masks_s", "s", "lower"),
    ("cli.sharpness_s", "s", "lower"),
    ("cli.interpolate_s", "s", "lower"),
    ("cli.transfer_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: str) -> str:
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
