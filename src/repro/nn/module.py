"""Base class for all NumPy modules.

The contract is deliberately stateless with respect to activations: ``forward``
returns a cache object that must be passed back to ``backward``.  Parameter
gradients, in contrast, are *accumulated* into :class:`repro.tensor.Parameter`
buffers, matching how gradient accumulation over micro-batches works in
pipeline-parallel training.
"""

from __future__ import annotations

import copy
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.tensor.parameter import Parameter


class Module:
    """Base class providing parameter registration and traversal."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # -- registration -------------------------------------------------------

    def register_parameter(self, name: str, parameter: Parameter) -> Parameter:
        """Register a parameter under ``name`` and return it."""
        self._parameters[name] = parameter
        return parameter

    def register_module(self, name: str, module: "Module") -> "Module":
        """Register a child module under ``name`` and return it."""
        self._modules[name] = module
        return module

    # -- traversal ----------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, parameter in self._parameters.items():
            qualified = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            yield qualified, parameter
        for name, module in self._modules.items():
            child_prefix = name if not prefix else f"{prefix}.{name}"
            yield from module.named_parameters(prefix=child_prefix)

    def parameters(self) -> list[Parameter]:
        """Return all parameters as a flat list (stable order)."""
        return [parameter for _, parameter in self.named_parameters()]

    def num_parameters(self, trainable_only: bool = True) -> int:
        """Total number of scalar parameters."""
        return sum(
            parameter.size
            for parameter in self.parameters()
            if parameter.requires_grad or not trainable_only
        )

    # -- state --------------------------------------------------------------

    def zero_grad(self) -> None:
        """Zero every parameter gradient in the subtree."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Switch training mode (affects dropout) for the whole subtree."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode."""
        return self.train(False)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name → weight-copy mapping for checkpointing/cloning."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load weights from :meth:`state_dict` output (names must match exactly)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            if state[name].shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': {state[name].shape} vs {parameter.data.shape}"
                )
            parameter.data[...] = state[name]

    # -- naming -------------------------------------------------------------

    def assign_parameter_names(self, prefix: str = "") -> None:
        """Write fully-qualified names into each :class:`Parameter`.

        Fused embedding synchronisation identifies the tied embedding by its name,
        so names must be assigned before building the training engines.
        """
        for name, parameter in self.named_parameters(prefix=prefix):
            parameter.name = name

    # -- forward/backward interface ------------------------------------------

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def replicate_sharing_weights(modules: Sequence[Module]) -> list[Module]:
    """A structural copy of ``modules`` whose parameters hold the originals' arrays.

    Every module and :class:`Parameter` object is new, with the same names and
    shapes, but each copy's ``data`` and ``grad`` *are* the original's arrays:
    nothing is drawn or allocated, so the copy starts bit-identical by
    construction.  How a data-parallel replica is built from the group's one
    model: binding the copy into an arena of the original's group
    (``ParameterArena(..., weights_of=...)``) keeps the shared weights and
    gives it a gradient buffer of its own.
    """
    shared = {
        id(array): array
        for module in modules
        for parameter in module.parameters()
        for array in (parameter.data, parameter.grad)
    }
    return copy.deepcopy(list(modules), shared)


def flatten_gradients(parameters: Iterable[Parameter]) -> np.ndarray:
    """Concatenate the gradients of ``parameters`` into a single flat vector."""
    grads = [parameter.grad.reshape(-1) for parameter in parameters]
    if not grads:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(grads)


def unflatten_to_gradients(flat: np.ndarray, parameters: Iterable[Parameter]) -> None:
    """Write a flat vector back into the gradient buffers of ``parameters``."""
    offset = 0
    for parameter in parameters:
        count = parameter.size
        parameter.grad[...] = flat[offset : offset + count].reshape(parameter.shape)
        offset += count
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} elements but parameters use {offset}")
