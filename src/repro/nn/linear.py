"""Dense (affine) layer with explicit backward pass."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import init
from repro.tensor.parameter import Parameter


class LinearCache:
    """Activation cache for :class:`Linear`.

    ``input`` is stored by the forward pass; ``grad_output`` is stashed by
    :meth:`Linear.backward_input` so the weight-gradient work can run later as a
    deferred :meth:`Linear.backward_weight` pass (zero-bubble scheduling).
    """

    __slots__ = ("input", "grad_output")

    def __init__(self, input_activation: np.ndarray) -> None:
        self.input = input_activation
        self.grad_output: np.ndarray | None = None


class Linear(Module):
    """``y = x @ W + b`` over the last dimension of ``x``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Whether to include the additive bias term.
    init_std:
        Standard deviation of the normal weight initialisation.
    output_layer_num_layers:
        When set, uses the Megatron residual-output scaling
        ``std / sqrt(2 * num_layers)`` instead of plain ``std``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        init_std: float = 0.02,
        output_layer_num_layers: int | None = None,
    ) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        if output_layer_num_layers is None:
            weight = init.normal_init((in_features, out_features), rng, std=init_std)
        else:
            weight = init.scaled_output_init(
                (in_features, out_features), rng, num_layers=output_layer_num_layers, std=init_std
            )
        self.weight = self.register_parameter("weight", Parameter(weight))
        self.bias: Parameter | None
        if bias:
            self.bias = self.register_parameter("bias", Parameter(init.zeros_init((out_features,))))
        else:
            self.bias = None

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, LinearCache]:
        """Apply the affine map; returns output and cache.

        Leading dimensions are flattened so the product is one 2-D GEMM
        whatever the batch shape.
        """
        output = x.reshape(-1, self.in_features) @ self.weight.data
        if self.bias is not None:
            output += self.bias.data
        return output.reshape(*x.shape[:-1], self.out_features), LinearCache(x)

    def backward(self, grad_output: np.ndarray, cache: LinearCache) -> np.ndarray:
        """Accumulate parameter gradients and return the input gradient.

        Equivalent to :meth:`backward_input` immediately followed by
        :meth:`backward_weight` (the same arithmetic on the same arrays, so the
        fused and split spellings are bit-for-bit identical).
        """
        grad_input = self.backward_input(grad_output, cache)
        self.backward_weight(cache)
        return grad_input

    def backward_input(self, grad_output: np.ndarray, cache: LinearCache) -> np.ndarray:
        """B pass: return the input gradient, stash ``grad_output`` for the W pass."""
        cache.grad_output = grad_output
        grad_input = grad_output.reshape(-1, self.out_features) @ self.weight.data.T
        return grad_input.reshape(cache.input.shape)

    def backward_weight(self, cache: LinearCache) -> None:
        """W pass: accumulate the weight/bias gradients stashed by the B pass."""
        if cache.grad_output is None:
            raise RuntimeError("backward_weight called before backward_input")
        flat_x = cache.input.reshape(-1, self.in_features)
        flat_grad = cache.grad_output.reshape(-1, self.out_features)
        self.weight.accumulate_grad(flat_x.T @ flat_grad)
        if self.bias is not None:
            self.bias.accumulate_grad(flat_grad.sum(axis=0))
        cache.grad_output = None
