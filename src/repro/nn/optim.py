"""Gradient-descent optimizers for the numpy NN library."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

__all__ = ["SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Clip the global gradient norm in place; returns the pre-clip norm."""
    # Sums of squares, not np.dot: a threaded BLAS ddot is slow after small
    # GEMMs and its last bits depend on the BLAS thread count.
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float(np.square(param.grad.ravel()).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        scale = max_norm / (norm + 1e-12)
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm


class Optimizer:
    def __init__(self, params: list[Tensor]):
        self.params = [p for p in params if p.requires_grad]

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    def __init__(self, params: list[Tensor], lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam with optional decoupled weight decay (AdamW when ``decoupled=True``).

    The moment buffers live in one flat array per kind; when every parameter
    has a gradient (the common case) the whole update runs as a handful of
    vectorized operations over the flat buffers instead of a Python loop of
    small per-parameter kernels.  Elementwise math is identical either way.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        sizes = [p.data.size for p in self.params]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self._slices = [(int(offsets[i]), int(offsets[i + 1]))
                        for i in range(len(self.params))]
        # Optimizer state lives in the parameters' dtype: a float32 model
        # (the fast precision tier) trains with float32 moments, halving the
        # optimizer's memory traffic along with the model's.
        dtype = (np.result_type(*[p.data.dtype for p in self.params])
                 if self.params else np.float64)
        self._m_flat = np.zeros(int(offsets[-1]), dtype=dtype)
        self._v_flat = np.zeros(int(offsets[-1]), dtype=dtype)
        self._grad_flat = np.empty(int(offsets[-1]), dtype=dtype)
        self._scratch = np.empty(int(offsets[-1]), dtype=dtype)
        self._rebind_data()
        # Per-parameter views of the flat state (used by the fallback loop).
        self._m = [self._m_flat[s:e].reshape(p.data.shape)
                   for p, (s, e) in zip(self.params, self._slices)]
        self._v = [self._v_flat[s:e].reshape(p.data.shape)
                   for p, (s, e) in zip(self.params, self._slices)]
        self._t = 0

    def _rebind_data(self) -> None:
        """Re-home parameter data into one flat buffer (views per param).

        Lets the fused update write ``flat -= update`` in one pass instead
        of a Python scatter loop.  Parameters whose ``.data`` is reassigned
        elsewhere (e.g. ``load_state_dict`` or a ``Module.to`` precision
        switch) are detected per step and re-homed — including a dtype
        change, which also re-casts the optimizer state — before the next
        fused update.
        """
        self._data_flat = np.concatenate(
            [param.data.ravel() for param in self.params]) if self.params \
            else np.zeros(0)
        for param, (start, stop) in zip(self.params, self._slices):
            param.data = self._data_flat[start:stop].reshape(param.data.shape)
        self._data_views = [param.data for param in self.params]
        dtype = self._data_flat.dtype
        if getattr(self, "_m_flat", None) is not None \
                and self._m_flat.dtype != dtype:
            self._m_flat = self._m_flat.astype(dtype)
            self._v_flat = self._v_flat.astype(dtype)
            self._grad_flat = np.empty(len(self._grad_flat), dtype=dtype)
            self._scratch = np.empty(len(self._scratch), dtype=dtype)
            self._m = [self._m_flat[s:e].reshape(p.data.shape)
                       for p, (s, e) in zip(self.params, self._slices)]
            self._v = [self._v_flat[s:e].reshape(p.data.shape)
                       for p, (s, e) in zip(self.params, self._slices)]

    def step(self, grad_clip: float | None = None) -> None:
        """One update; ``grad_clip`` folds global-norm clipping into the
        flat-gradient gather (same math as ``clip_grad_norm`` + ``step``)."""
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        grads = [param.grad for param in self.params]
        if self.params and all(grad is not None for grad in grads):
            flat_grad = self._grad_flat
            for grad, (start, stop) in zip(grads, self._slices):
                flat_grad[start:stop] = grad.ravel()
            if grad_clip is not None:
                # Not np.dot, as in clip_grad_norm.
                squares = np.multiply(flat_grad, flat_grad, out=self._scratch)
                norm = float(np.sqrt(squares.sum()))
                if norm > grad_clip > 0:
                    flat_grad *= grad_clip / (norm + 1e-12)
            if self.weight_decay:
                for param, (start, stop) in zip(self.params, self._slices):
                    flat_grad[start:stop] += self.weight_decay * param.data.ravel()
            m, v = self._m_flat, self._v_flat
            m *= self.beta1
            m += (1.0 - self.beta1) * flat_grad
            v *= self.beta2
            flat_grad *= flat_grad
            v += (1.0 - self.beta2) * flat_grad
            # denom = sqrt(v / bias2) + eps, update = (m / bias1) * lr / denom,
            # built in preallocated scratch to avoid per-step temporaries.
            denom = np.divide(v, bias2, out=self._scratch)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update = np.divide(m, bias1, out=flat_grad)
            update *= self.lr
            update /= denom
            for param, view in zip(self.params, self._data_views):
                if param.data is not view:
                    # Someone reassigned .data (state load) — re-home first.
                    self._rebind_data()
                    break
            self._data_flat -= update
            return
        if grad_clip is not None:
            clip_grad_norm(self.params, grad_clip)
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
