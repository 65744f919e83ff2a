"""sparselab: a deterministic desk-scale laboratory for sparse training.

Cross-compares GMP, RigL and AC/DC style schedulers on a small model zoo
with a full diagnostic suite: entropy and confidence, mask IoU, structured
channel sparsity, FLOPs accounting, Hessian sharpness, and loss-path
interpolation, plus sparse-transfer recipes with gradual unfreezing.
"""

__version__ = "0.1.0"
