"""Minimal dense tensor engine with reverse-mode differentiation.

Values are float64.
Tensors record their parents and a backward closure; ``backward`` replays the
implicit tape in reverse topological order once, freeing interior gradients
and forward values as it walks. Single-threaded per tape.
"""

from __future__ import annotations

import io
import math
import zipfile
from pathlib import Path

import numpy as np

_DTYPES = (np.dtype(np.float64), np.dtype(np.float32), np.dtype(np.uint8))


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:  # a copy: ``g`` may be a view of another gradient
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# -- arithmetic -------------------------------------------------------------


def _broadcast(op, a: Tensor, b: Tensor, name: str) -> np.ndarray:
    """``op`` of the two values; shapes that do not broadcast raise ``ShapeError``."""
    try:
        return op(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.add, a, b, "add")

    def backward(out):
        a.accumulate(_unbroadcast(out.grad, a.shape))
        b.accumulate(_unbroadcast(out.grad, b.shape))

    return _result(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.subtract, a, b, "sub")

    def backward(out):
        a.accumulate(_unbroadcast(out.grad, a.shape))
        b.accumulate(_unbroadcast(-out.grad, b.shape))

    return _result(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.multiply, a, b, "mul")

    def backward(out):
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(out.grad * a.data, b.shape))

    return _result(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(out):
        a.accumulate(c * out.grad)

    return _result(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading batch axes broadcast.

    A 2-d right operand (a weight) is applied to every row of ``a`` as one
    flat product.
    """
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if b.data.ndim == 2:
        k, m = b.shape
        data = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (m,))

        def backward(out):
            g = out.grad.reshape(-1, m)
            if a.requires_grad:
                a.accumulate((g @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                b.accumulate(a.data.reshape(-1, k).T @ g)

        return _result(data, (a, b), backward)
    data = _broadcast(np.matmul, a, b, "matmul")

    def backward(out):
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ out.grad, b.shape))

    return _result(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""

    def backward(out):
        a.accumulate(np.swapaxes(out.grad, -1, -2))

    return _result(np.swapaxes(a.data, -1, -2), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(out):
        a.accumulate(out.grad.reshape(a.shape))

    return _result(a.data.reshape(shape), (a,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * out.grad.ndim
            idx[axis] = slice(start, stop)
            t.accumulate(out.grad[tuple(idx)])

    return _result(data, tuple(tensors), backward)


def gather(a: Tensor, indices: list[int], axis: int = 0) -> Tensor:
    """Entries of ``a`` at ``indices`` along ``axis`` (repeats allowed)."""
    idx = np.asarray(indices, dtype=np.intp)
    data = np.take(a.data, idx, axis=axis)

    def backward(out):
        if a.requires_grad:
            # out.grad is (before, len(idx), after); bincount adds into each
            # flat slot of a in input order, as np.add.at does
            shape = a.data.shape
            ax = axis % len(shape)
            n, after = shape[ax], math.prod(shape[ax + 1 :])
            rows = np.arange(math.prod(shape[:ax]))[:, None] * n + idx % n
            bins = (rows.reshape(-1, 1) * after + np.arange(after)).ravel()
            a.accumulate(np.bincount(bins, out.grad.ravel(), a.data.size).reshape(shape))

    return _result(data, (a,), backward)


def select_rows(a: Tensor, indices: list[int]) -> Tensor:
    """Row gather (embedding select): rows of ``a`` at ``indices``."""
    if a.data.ndim != 2:
        raise ShapeError(f"select_rows expects a 2-d tensor, got {a.shape}")
    return gather(a, indices, axis=0)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    data = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.shape[axis]

    def backward(out):
        g = out.grad if axis is None else np.expand_dims(out.grad, axis)
        a.accumulate(np.broadcast_to(g / count, a.shape))

    return _result(data, (a,), backward)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(out):
        g = out.grad if axis is None else np.expand_dims(out.grad, axis)
        a.accumulate(np.broadcast_to(g, a.shape))

    return _result(data, (a,), backward)


# -- nonlinearities ----------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(out):
        a.accumulate(out.grad * mask)

    return _result(np.where(mask, a.data, 0.0), (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # numerically stable in both tails
    x = a.data
    tail = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + tail), tail / (1.0 + tail))

    def backward(out):
        a.accumulate(out.grad * y * (1.0 - y))

    return _result(y, (a,), backward)


def tlog(a: Tensor) -> Tensor:
    def backward(out):
        a.accumulate(out.grad / a.data)

    return _result(np.log(a.data), (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = (a.data > lo) & (a.data < hi)

    def backward(out):
        a.accumulate(out.grad * mask)

    return _result(np.clip(a.data, lo, hi), (a,), backward)


_SHORT_AXIS = 8  # numpy's add-reduce adds a shorter last axis one entry at a time


def _max_last(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` to the bit; a short last axis is
    reduced as a running maximum of its slices, which is faster than numpy's
    per-row loop. A view of ``x`` when the axis has one entry."""
    n = x.shape[-1]
    if not 0 < n < _SHORT_AXIS:
        return x.max(axis=-1, keepdims=True)
    top = x[..., :1]
    for i in range(1, n):
        top = np.maximum(top, x[..., i : i + 1])
    return top


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)`` to the bit; a short last axis is
    added slice by slice, left to right from +0.0 as numpy does, so a row of
    -0.0 sums to +0.0."""
    n = x.shape[-1]
    if not 0 < n < _SHORT_AXIS:
        return x.sum(axis=-1, keepdims=True)
    total = x[..., :1] + 0.0
    for i in range(1, n):
        # not in place: numpy's in-place add keeps the other operand's NaN when both are NaN
        total = total + x[..., i : i + 1]
    return total


def _masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The values of :func:`softmax`: 0 where ``mask`` is False, a row with no
    True entry all zeros."""
    x = np.where(mask, x, -np.inf)
    top = _max_last(x)
    e = np.exp(x - np.where(np.isneginf(top), 0.0, top))
    total = _sum_last(e)
    return e / np.where(total > 0, total, 1.0)


def _softmax_grad(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The gradient of softmax scores, given its output ``y`` and output gradient ``dy``."""
    return y * (dy - _sum_last(dy * y))


def softmax(a: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis under a required boolean ``mask``
    (broadcastable to ``a``): entries where it is False get probability 0 and
    no gradient; a row with no True entry is all zeros rather than NaN.
    """
    if np.broadcast_shapes(np.shape(mask), a.shape) != a.shape:
        raise ShapeError(f"softmax: mask of shape {np.shape(mask)} does not fit {a.shape}")
    y = _masked_softmax(a.data, mask)

    def backward(out):
        a.accumulate(_softmax_grad(y, out.grad))

    return _result(y, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    # the steps of np.mean and np.var, with the mean taken once
    d = x.shape[-1]
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gamma.data + beta.data

    def backward(out):
        dy = out.grad
        beta.accumulate(_unbroadcast(dy, beta.shape))
        gamma.accumulate(_unbroadcast(dy * xhat, gamma.shape))
        dxhat = dy * gamma.data
        x.accumulate(
            inv
            * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d
            )
        )

    return _result(data, (x, gamma, beta), backward)


# -- tape -------------------------------------------------------------------


def backward(out: Tensor) -> None:
    """Reverse-mode accumulation from ``out`` through its tape, walked once:
    each interior node drops its gradient, closure and parent links once it
    has passed its gradient on, freeing the forward values they held; leaves
    keep their gradients. An ``out`` with no tape raises ``ValueError``."""
    if out._backward is None:
        raise ValueError("output has no tape: it needs no gradient, is a leaf, or backward has walked it")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    out.grad = np.ones_like(out.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node)
            node.grad, node._backward, node._parents = None, None, ()


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()


# -- verification harness -----------------------------------------------------


def grad_check(
    f,
    params: dict[str, Tensor],
    eps: float = 1e-5,
    n_samples: int = 100,
    seed: int = 0,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` is a nullary closure over ``params`` returning a scalar Tensor.
    Coordinates are sampled uniformly across all parameters.
    """
    if not (1e-7 <= eps <= 1e-4):
        raise ValueError("eps must lie in [1e-7, 1e-4]")
    zero_grads(params)
    out = f()
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    if not np.isfinite(out.data).all():
        raise FloatingPointError("non-finite forward value")
    backward(out)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
        if p.requires_grad
    }

    coords = [(name, idx) for name in sorted(analytic) for idx in range(params[name].data.size)]
    rng = np.random.default_rng(seed)
    if len(coords) > n_samples:
        chosen = rng.choice(len(coords), size=n_samples, replace=False)
        coords = [coords[i] for i in sorted(chosen)]

    max_rel = 0.0
    for name, idx in coords:
        flat = params[name].data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + eps
        f_plus = float(f().data)
        flat[idx] = orig - eps
        f_minus = float(f().data)
        flat[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError("non-finite value during finite differencing")
        fd = (f_plus - f_minus) / (2.0 * eps)
        an = float(analytic[name].reshape(-1)[idx])
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel


# -- optimizer ----------------------------------------------------------------


class AdamState:
    def __init__(self) -> None:
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float | np.ndarray) -> None:
    """In-place Adam update with bias correction; parameters without a
    gradient are treated as zero-gradient (unchanged moments still decay).
    An array ``lr`` broadcasts against every parameter, so stacked lanes can
    take different rates; a lane at rate 0 with finite moments keeps its values."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    for name in sorted(params):
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


# -- checkpoint container ------------------------------------------------------


def save_arrays(arrays: dict[str, np.ndarray], path: str | Path) -> None:
    """Write a stored zip of one ``<name>.npy`` member per array, in name order,
    that ``numpy.load`` reads; other dtypes than float64, float32 and uint8 are
    stored as float64. Members are dated 1980-01-01 and marked as made on Unix,
    so the bytes depend only on the arrays, on any platform."""
    with zipfile.ZipFile(path, "w") as zf:
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], order="C")
            arr = arr if arr.dtype in _DTYPES else arr.astype(np.float64)
            info = zipfile.ZipInfo(f"{name}.npy")
            info.create_system = 3
            # zip64 fields only for a member that may pass 2 GiB; a .npy 1.0 header is under 64 KiB
            with zf.open(info, "w", force_zip64=arr.nbytes + (1 << 16) > zipfile.ZIP64_LIMIT) as fh:
                np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(arr))
                fh.write(arr)  # the values go in without a copy


def load_arrays(path: str | Path, data: bytes | None = None) -> dict[str, np.ndarray]:
    """Read a :func:`save_arrays` file, or parse ``data``, bytes already read
    from ``path``; anything else raises ``ValueError`` naming the file."""
    data = Path(path).read_bytes() if data is None else data
    end, arrays = data[-22:], {}  # with no comment, the end record is the last 22 bytes
    try:
        if data.startswith(b"ELLACKPT v1\n"):
            raise ValueError("it has the older ELLACKPT v1 layout")
        if end[:4] != b"PK\x05\x06" or end[-2:] != b"\0\0":
            raise ValueError("no end record at the end of the file")
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            if min((info.header_offset for info in zf.infolist()), default=zf.start_dir):
                raise ValueError("bytes before the first member")
            for info in zf.infolist():
                name = info.filename
                if not name.endswith(".npy") or info.compress_type != zipfile.ZIP_STORED:
                    raise ValueError(f"member {name!r} is not a stored .npy file")
                with zf.open(info) as fh:  # reading a member to its end checks its CRC-32
                    if np.lib.format.read_magic(fh) != (1, 0):  # save_arrays writes version 1.0 headers only
                        raise ValueError(f"member {name!r} is not a .npy file of version 1.0")
                    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
                    size = math.prod(shape) * dtype.itemsize
                    if fortran_order or dtype not in _DTYPES or info.file_size - fh.tell() != size or size > len(data):
                        raise ValueError(f"member {name!r} is not {shape} values of float64, float32 or uint8 in C order")
                    # 64 KiB steps: no second copy, and each step is copied and checksummed while in cache
                    raw = np.empty(size, np.uint8)
                    if sum(fh.readinto(raw[i : i + (1 << 16)]) for i in range(0, size, 1 << 16)) != size:
                        raise ValueError(f"member {name!r} does not hold its {size} bytes")
                arrays[name[:-4]] = raw.view(dtype).reshape(shape)
        if (count := int.from_bytes(end[10:12], "little")) != len(arrays):
            raise ValueError(f"its end record counts {count} members")
    except (zipfile.BadZipFile, EOFError, RuntimeError, ValueError) as exc:
        # zipfile raises RuntimeError or NotImplementedError for flag and version bits it cannot read
        raise ValueError(f"{path}: not a zip of .npy arrays ({exc})") from None
    return arrays


def save_checkpoint(params: dict[str, Tensor], path: str | Path) -> None:
    save_arrays({name: p.data for name, p in params.items()}, path)


def load_checkpoint(path: str | Path, data: bytes | None = None) -> dict[str, Tensor]:
    return {name: Tensor(arr, requires_grad=True) for name, arr in load_arrays(path, data).items()}
