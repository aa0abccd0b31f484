"""Convolutional sequence-to-sequence human motion prediction.

A self-contained library: tensor core with reverse-mode differentiation,
long/short-term convolutional encoders with a residual spatial decoder,
adversarially regularized training, motion-capture ingestion, and the
Euler-angle evaluation protocol.
"""

__version__ = "0.1.0"

from .autodiff import GradTape, Tensor, backward  # noqa: F401
