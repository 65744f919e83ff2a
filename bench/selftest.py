"""Shows that every output check can fail: runs one round of each workload,
then corrupts one output at a time in a copy and requires the checks to
reject it.

    python3 bench/selftest.py [--seed N]

Exits 0 when the clean outputs pass and every corrupted copy is rejected.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import struct
import sys

import numpy as np

import run
from splb import CheckFailed, read_splb
from workloads import WORKLOADS


def poke(path: str, kind: str, name: str, index: int, value: float) -> None:
    """Overwrite one f32 entry of a tensor inside an .splb file."""
    with open(path, "rb") as f:
        raw = bytearray(f.read())
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16 : 16 + header_len])
    [rec] = [r for r in header["tensors"] if r["kind"] == kind and r["name"] == name]
    struct.pack_into("<f", raw, 16 + header_len + rec["offset"] + 4 * index, value)
    with open(path, "wb") as f:
        f.write(raw)


def edit_csv(path: str, row: int, column: str, value: str) -> None:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def last_val_row(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        rows = f.read().splitlines()[1:]
    return max(i for i, r in enumerate(rows) if r.split(",")[1] == "val")


def unmask_beyond_budget(path: str) -> None:
    """Turn on masked-out weights (mask 1, weight 0.5) until the non-zero
    count exceeds the target's budget; masked entries stay consistent."""
    ck = read_splb(path)
    name = max(ck.masks, key=lambda n: int((ck.masks[n] == 0).sum()))
    dead = np.flatnonzero(ck.masks[name].reshape(-1) == 0.0)
    cfg = ck.meta["config"]
    size = sum(w.size for n, w in ck.weights.items() if n in ck.masks
               and n not in cfg["sparsity"]["keep_dense"])
    nonzero = sum(int(np.count_nonzero(ck.weights[n])) for n in ck.masks
                  if n not in cfg["sparsity"]["keep_dense"])
    extra = int((1 - cfg["sparsity"]["target"]) * size) - nonzero + 2
    for i in dead[:extra]:
        poke(path, "mask", name, int(i), 1.0)
        poke(path, "weights", name, int(i), 0.5)


def masked_weight_nonzero(path: str) -> None:
    ck = read_splb(path)
    name = next(n for n, m in ck.masks.items() if (m == 0.0).any())
    i = int(np.flatnonzero(ck.masks[name].reshape(-1) == 0.0)[0])
    poke(path, "weights", name, i, 1e-3)


def on_files(edit):
    """A corruption that edits the copied files only."""
    return lambda d, stdout, datasets: (edit(d), stdout, datasets)[1:]


def relabel(op: str):
    """A corruption that flips one validation label of `op`'s datasets."""

    def corrupt(d, stdout, datasets):
        out = []
        for o, spec, ds in datasets:
            if o == op:
                ds = copy.deepcopy(ds)
                ds.y_val[0] = 1 - ds.y_val[0]
            out.append((o, spec, ds))
        return stdout, out

    return corrupt


def printed_sharpness(text: str):
    return lambda d, stdout, datasets: ({**stdout, "sharpness": text}, datasets)


# workload -> [(what is corrupted, function(copy dir, stdout, datasets) -> (stdout, datasets))]
CORRUPTIONS = {
    "mlp-schedulers": [
        ("one masked-out weight set non-zero",
         on_files(lambda d: masked_weight_nonzero(f"{d}/acdc/ckpt_00007.splb"))),
        ("weights unmasked past the sparsity budget",
         on_files(lambda d: unmask_beyond_budget(f"{d}/acdc/ckpt_00003.splb"))),
        ("one IoU row altered",
         on_files(lambda d: edit_csv(f"{d}/rigl/masks/iou.csv", 0, "iou", "0.5"))),
        ("interpolation loss at alpha 0 altered",
         on_files(lambda d: edit_csv(f"{d}/interp/interpolation.csv", 0, "loss", "1.5"))),
        ("sharpness 0, as when Hv vanishes", printed_sharpness("sharpness 0 (epoch 10)")),
        ("sharpness not finite", printed_sharpness("sharpness nan (epoch 10)")),
        ("final val top-1 at chance",
         on_files(lambda d: edit_csv(f"{d}/gmp/metrics.csv", last_val_row(f"{d}/gmp/metrics.csv"),
                                     "top1", "0.1"))),
    ],
    "cnn-acdc": [
        ("one channel-sparsity row altered",
         on_files(lambda d: edit_csv(f"{d}/wd1e-3/masks/channel_sparsity.csv", 1,
                                     "zero_channel_fraction", "0.96875"))),
        ("one masked-out conv weight set non-zero",
         on_files(lambda d: masked_weight_nonzero(f"{d}/wd1e-4/ckpt_00011.splb"))),
    ],
    "transformer-transfer": [
        ("one sequence label flipped", relabel("transfer")),
        ("a transfer stage not restarting at the peak learning rate",
         on_files(lambda d: edit_csv(f"{d}/transfer/run_000_stages.csv", 2, "lr_first", "0.04"))),
        ("one masked-out weight set non-zero",
         on_files(lambda d: masked_weight_nonzero(f"{d}/pretrain/ckpt_00008.splb"))),
    ],
}


def flip_metrics_byte(d: str) -> None:
    """Change the last digit of one metrics.csv."""
    path = next(os.path.join(r, "metrics.csv") for r, _, fs in sorted(os.walk(d))
                if "metrics.csv" in fs)
    with open(path, "r+b") as f:
        f.seek(-2, os.SEEK_END)
        last = f.read(1)
        f.seek(-2, os.SEEK_END)
        f.write(b"1" if last != b"1" else b"2")


def rejection(work, clean: str, bad: str, stdout, datasets, corrupt) -> str | None:
    """Why the corrupted copy is rejected, or None if it is accepted. Without
    a corruption function, one byte is flipped and the digests must differ."""
    if corrupt is None:
        flip_metrics_byte(bad)
        key = f"selftest-{os.getpid()}"
        run.compare_with_earlier_runs(key, run.digest_outputs(clean, stdout))
        try:
            return run.compare_with_earlier_runs(key, run.digest_outputs(bad, stdout))
        finally:
            os.remove(os.path.join(run.OUT_ROOT, "digests", key + ".json"))
    stdout, datasets = corrupt(bad, stdout, datasets)
    try:
        work.check(bad, stdout, datasets)
    except CheckFailed as e:
        return str(e)
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    cli = run.import_program()
    base = os.path.join(run.OUT_ROOT, f"selftest-p{os.getpid()}")
    accepted = 0
    try:
        for name, make in WORKLOADS.items():
            cfg_dir = os.path.join(base, name, "configs")
            os.makedirs(cfg_dir)
            work = make(args.seed, cfg_dir)
            clean = os.path.join(base, name, "clean")
            rec, results = run.execute_round(cli, work, clean, traced=False, keep_datasets=True)
            stdout = {op.command: text for op, _, _, text in results}
            work.check(clean, stdout, rec.kept_datasets)
            print(f"{name}: clean outputs pass")
            for what, corrupt in CORRUPTIONS[name] + [("one byte of metrics.csv", None)]:
                bad = os.path.join(base, name, "corrupt")
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(clean, bad)
                why = rejection(work, clean, bad, stdout, rec.kept_datasets, corrupt)
                if why is None:
                    accepted += 1
                    print(f"  NOT DETECTED: {what}")
                else:
                    print(f"  rejected {what}: {why[:150]}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("selftest " + ("passed" if not accepted else f"FAILED: {accepted} corruptions accepted"))
    return 1 if accepted else 0


if __name__ == "__main__":
    sys.exit(main())
