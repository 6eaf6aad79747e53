"""Numerically stable functional operations with explicit backward passes.

Each operation comes as a ``*_forward`` / ``*_backward`` pair (or a combined helper
returning a cache) so that the module layer in :mod:`repro.nn` can implement exact
manual backpropagation without an autograd engine.  Keeping the math explicit is
important for this reproduction: the paper's lazy-error-propagation analysis
(Section 5.1) reasons directly about the activation-gradient tensors that flow
between pipeline stages, so we need full control over them.
"""

from __future__ import annotations

import functools

import numpy as np

# ---------------------------------------------------------------------------
# Softmax / log-softmax
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    One buffer carries the shift, the exponential and the normalisation;
    ``out=logits`` makes the whole chain in place.
    """
    # Integer logits promote to float64; float logits keep their width.
    dtype = np.result_type(logits, np.float16)
    out = np.subtract(logits, np.max(logits, axis=axis, keepdims=True), out=out, dtype=dtype)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax_backward(grad_output: np.ndarray, softmax_output: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward pass of softmax given upstream gradient and cached output."""
    grad = grad_output * softmax_output
    inner = np.sum(grad, axis=axis, keepdims=True)
    np.subtract(grad_output, inner, out=grad)
    grad *= softmax_output
    return grad


# ---------------------------------------------------------------------------
# GeLU (tanh approximation, as used by GPT-2 / Megatron-LM)
# ---------------------------------------------------------------------------

_GELU_CONST = np.sqrt(2.0 / np.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """GeLU activation using the tanh approximation (GPT-2 convention).

    Written with in-place ufuncs (and ``x*x*x`` instead of ``x**3``, which NumPy
    routes through the much slower ``power`` ufunc): this function sits on the
    functional trainer's critical path and dominated its profile.
    """
    inner = x * x
    inner *= x  # x^3
    inner *= 0.044715
    inner += x
    inner *= _GELU_CONST
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= 0.5 * x
    return inner


def gelu_backward(grad_output: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-approximated GeLU, applied to the upstream gradient."""
    x_squared = x * x
    inner = x_squared * x  # x^3
    inner *= 0.044715
    inner += x
    inner *= _GELU_CONST
    tanh_inner = np.tanh(inner, out=inner)
    sech2 = tanh_inner * tanh_inner
    np.subtract(1.0, sech2, out=sech2)
    d_inner = x_squared
    d_inner *= 3.0 * 0.044715
    d_inner += 1.0
    d_inner *= _GELU_CONST
    sech2 *= d_inner
    sech2 *= 0.5 * x
    derivative = 0.5 * (1.0 + tanh_inner)
    derivative += sech2
    derivative *= grad_output
    return derivative


# ---------------------------------------------------------------------------
# LayerNorm
# ---------------------------------------------------------------------------


def layer_norm_forward(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, dict]:
    """LayerNorm over the last dimension.

    Returns the normalised output and a cache for the backward pass.
    """
    # The variance is spelled out (sum of squared deviations over the count,
    # exactly what ``np.var`` does) so that the mean is computed once and the
    # squares land in the buffer that then becomes the output.
    normalised = x - np.mean(x, axis=-1, keepdims=True)
    output = np.square(normalised)
    var = np.sum(output, axis=-1, keepdims=True)
    var /= x.shape[-1]
    inv_std = 1.0 / np.sqrt(var + eps)
    normalised *= inv_std
    np.multiply(normalised, gamma, out=output)
    output += beta
    cache = {"normalised": normalised, "inv_std": inv_std, "gamma": gamma}
    return output, cache


def layer_norm_backward(grad_output: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of LayerNorm.

    Returns ``(grad_input, grad_gamma, grad_beta)``.
    """
    normalised = cache["normalised"]
    inv_std = cache["inv_std"]
    gamma = cache["gamma"]

    leading_axes = tuple(range(grad_output.ndim - 1))
    scratch = grad_output * normalised
    grad_gamma = np.sum(scratch, axis=leading_axes)
    grad_beta = np.sum(grad_output, axis=leading_axes)

    grad_input = grad_output * gamma
    mean_grad = np.mean(grad_input, axis=-1, keepdims=True)
    np.multiply(grad_input, normalised, out=scratch)
    mean_grad_times_norm = np.mean(scratch, axis=-1, keepdims=True)
    grad_input -= mean_grad
    np.multiply(normalised, mean_grad_times_norm, out=scratch)
    grad_input -= scratch
    grad_input *= inv_std
    return grad_input, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Dropout (inverted dropout, deterministic given an RNG)
# ---------------------------------------------------------------------------


def dropout_forward(
    x: np.ndarray, rate: float, rng: np.random.Generator, training: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; returns output and the mask (``None`` when inactive)."""
    if not training or rate <= 0.0:
        return x, None
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep_prob = 1.0 - rate
    mask = (rng.random(x.shape) < keep_prob).astype(x.dtype) / keep_prob
    return x * mask, mask


def dropout_backward(grad_output: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Backward pass of inverted dropout."""
    if mask is None:
        return grad_output
    return grad_output * mask


# ---------------------------------------------------------------------------
# Cross entropy over token logits
# ---------------------------------------------------------------------------


def cross_entropy_forward(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean token-level cross entropy.

    Parameters
    ----------
    logits:
        Array of shape ``(..., vocab)``.
    targets:
        Integer array of shape ``(...,)`` with values in ``[0, vocab)``.

    Returns
    -------
    (loss, cache):
        ``loss`` is the mean negative log-likelihood; ``cache`` holds the softmax
        probabilities needed by :func:`cross_entropy_backward`.
    """
    if logits.shape[:-1] != targets.shape:
        raise ValueError(
            f"logits batch shape {logits.shape[:-1]} does not match targets shape {targets.shape}"
        )
    log_probs = log_softmax(logits, axis=-1)
    flat_log_probs = log_probs.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1).astype(np.int64)
    picked = flat_log_probs[np.arange(flat_targets.size), flat_targets]
    loss = float(-np.mean(picked))
    cache = np.exp(log_probs)
    return loss, cache


def cross_entropy_backward(probabilities: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross entropy with respect to the logits."""
    grad = probabilities.copy()
    flat = grad.reshape(-1, grad.shape[-1])
    flat_targets = targets.reshape(-1).astype(np.int64)
    flat[np.arange(flat_targets.size), flat_targets] -= 1.0
    return grad / flat_targets.size


# ---------------------------------------------------------------------------
# Misc small helpers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def causal_mask(sequence_length: int) -> np.ndarray:
    """Lower-triangular boolean mask of shape ``(seq, seq)`` (True = attend).

    Built once per sequence length and shared, hence read-only.
    """
    mask = np.tril(np.ones((sequence_length, sequence_length), dtype=bool))
    mask.flags.writeable = False
    return mask


def masked_fill(
    scores: np.ndarray, mask: np.ndarray, value: float = -1e9, out: np.ndarray | None = None
) -> np.ndarray:
    """``scores`` with positions where ``mask`` is False replaced by ``value``.

    ``out=scores`` overwrites the disallowed positions in place.
    """
    if out is None:
        out = np.empty_like(scores)
    if out is not scores:
        np.copyto(out, scores)
    np.copyto(out, value, where=np.logical_not(mask))
    return out
