"""Dense-tensor primitives: activations, dropout, parameter widening,
finiteness guard.

``DTYPE`` (float32) is the one compute dtype: parameters, Adam moments,
batch features and every activation and gradient are float32, as in the
reference implementations of the networks.  Each kernel follows the dtype
of its inputs, so the gradient checks run the same kernels on float64
tensors.  Gradients elsewhere are hand-derived, so the forward formulas
here are the single source of truth for their derivatives.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError

DTYPE = np.dtype(np.float32)

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class Params(dict):
    """A network's parameter tensors by name, in the layout order of
    ``network._tensor_shapes``; ``params.w0`` reads ``params["w0"]``.

    A missing name raises ``AttributeError`` (``copy.deepcopy`` and
    ``hasattr`` rely on it).  The first tensor's rows are the input width and
    the last tensor's last dimension is the class count."""

    __slots__ = ()

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def n_in(self) -> int:
        return next(iter(self.values())).shape[0]

    @property
    def n_classes(self) -> int:
        return next(reversed(self.values())).shape[-1]

    @property
    def dtype(self) -> np.dtype:
        """The dtype every tensor shares, and every step computes in."""
        return next(iter(self.values())).dtype

    @property
    def layers(self) -> list[np.ndarray]:
        """The ``w<i>`` tensors, in order: a GCN's message-passing layers."""
        return [t for name, t in self.items() if name[0] == "w" and name[1:].isdigit()]


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); ``out=x`` applies it in place.  Its derivative is the gate
    ``relu(x) > 0``, which a backward pass reads off the output."""
    return np.maximum(x, 0.0, out=out)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU: 0.5*x*(1 + tanh(c*(x + a*x^3)))."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * x**3)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    u = _GELU_C * (x + _GELU_A * x**3)
    t = np.tanh(u)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)


# bytes of the float64 scratch dropout_mask and widen draw their uniforms through
_DRAW_BYTES = 1 << 16


def dropout_mask(
    rng: np.random.Generator | None, shape: tuple[int, int], rate: float, rows: np.ndarray | None = None
) -> np.ndarray | None:
    """Boolean keep mask of inverted dropout over ``shape``: False with
    probability ``rate``, in [0, 1) as ``Hyper`` checks; None at rate 0,
    where nothing is dropped.

    The mask is ``rng.random(shape) >= rate`` cut to the sorted, distinct
    ``rows`` (every row when None), and the rng is left where that full draw
    leaves it, so the stream does not depend on ``rows``.  Only those rows
    are drawn: a PCG64 stream skips each gap with ``advance``, one step per
    double, and gets back the buffered 32-bit half that ``advance`` clears.
    The uniforms pass through a float64 scratch of ``_DRAW_BYTES``, a few
    rows at a time, across runs, and each full scratch is compared at once,
    so the draw holds no float64 array of the mask's size.
    """
    if rng is None:  # every train-mode forward pass draws here: never unseeded
        raise ValueError("train mode needs a seeded rng for its dropout mask")
    if rate <= 0.0:
        return None
    n, width = shape
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows[0] < 0 or rows[-1] >= n or (np.diff(rows) <= 0).any()):
            raise ValueError("dropout rows must be sorted, distinct and below the row count")
    keep = np.empty((n if rows is None else len(rows), width), dtype=bool)
    scratch = np.empty((max(1, min(len(keep), _DRAW_BYTES // (8 * max(width, 1)))), width))
    held = written = 0  # rows drawn into the scratch, rows of keep written

    def draw(count: int) -> None:  # the stream's next ``count`` rows, as the next rows of keep
        nonlocal held, written
        while count:
            take = min(count, len(scratch) - held)
            rng.random(out=scratch[held : held + take])
            held, count = held + take, count - take
            if held == len(scratch) or written + held == len(keep):  # full, or the last rows
                np.greater_equal(scratch[:held], rate, out=keep[written : written + held])
                written, held = written + held, 0

    if rows is None:
        draw(n)
        return keep
    bits = rng.bit_generator  # PCG64 (default_rng): one advance step per double
    before = bits.state
    done = 0  # rows of the full draw consumed so far
    starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()  # runs of consecutive rows
    for a, b in zip(starts, [*starts[1:], len(rows)]):
        first = int(rows[a])
        bits.advance((first - done) * width)
        draw(b - a)
        done = first + b - a
    bits.advance((n - done) * width)
    bits.state = {**bits.state, "has_uint32": before["has_uint32"], "uinteger": before["uinteger"]}
    return keep


def apply_dropout(h: np.ndarray, keep: np.ndarray | None, rate: float) -> np.ndarray:
    """Inverted dropout in place: ``h *= keep``, then ``h *= 1/(1-rate)``;
    returns ``h``.  A dropped unit becomes a zero of its own sign, and ``h`` is
    left as it is at rate 0.  The backward pass of ReLU then dropout is this
    same call on the output gradient, with the gate ``output > 0`` as ``keep``."""
    if keep is not None:
        h *= keep
    if rate > 0.0:
        h *= 1.0 / (1.0 - rate)
    return h


def widen(
    rng: np.random.Generator, t: np.ndarray, shape: tuple[int, ...], zero_init: bool
) -> np.ndarray:
    """``t`` padded into one new array of ``shape`` and of ``t``'s dtype, its
    entries kept bit-exactly: how every parameter tensor is made, from an
    empty one by ``Network.create`` and from the current one by ``grow``.

    A vector (a bias) is padded with zeros.  A matrix gets its new rows, then
    its new columns, drawn Glorot-uniform with the fans of the full ``shape``
    (zero with ``zero_init``) in float64, ``_DRAW_BYTES`` of rows at a time,
    and cast into place.  Row-chunked draws make the stream of one draw, and
    a zero-size draw none, so an empty matrix widens to exactly a fresh draw.
    """
    out = np.zeros(shape, dtype=t.dtype)
    out[tuple(slice(n) for n in t.shape)] = t
    if t.ndim == 2 and not zero_init:
        (r, c), (rows, cols) = t.shape, shape
        bound = math.sqrt(6.0 / (rows + cols))
        step = max(1, _DRAW_BYTES // (8 * max(cols, 1)))
        for block in (out[r:, :c], out[:, c:]):
            for i in range(0, len(block), step):
                chunk = block[i : i + step]
                chunk[...] = rng.uniform(-bound, bound, size=chunk.shape)
    return out


# flat-index entries scatter_add builds at a time (128 KiB of int64)
_SCATTER_BLOCK = 1 << 14


def scatter_add(
    out: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
    take: np.ndarray | None = None,
    weight: np.ndarray | None = None,
) -> None:
    """``out[rows[i]] += vals[i]`` for every i in order, in place; ``out`` is 2-D.
    With ``take`` the i-th term is gathered, ``vals[take[i]]``, and with
    ``weight`` it is scaled by ``weight[i]``.

    Bit-identical to ``np.add.at(out, rows, terms)``, ``terms`` being
    ``vals``, or ``vals[take] * weight[:, None]``: it runs ``np.add.at`` on
    the flat view of ``out`` with index ``row * d + col``, so each element
    still receives its terms in the order of ``rows``, while numpy's fast
    1-D path does the work instead of its per-row 2-D loop.  The index and
    the terms are built for a block of ``rows`` at a time, in order, so
    neither ever takes the size of the whole term array.
    """
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous output")
    d = out.shape[1]
    flat, cols = out.reshape(-1), np.arange(d)
    rows = np.asarray(rows, dtype=np.int64)
    step = max(1, _SCATTER_BLOCK // max(d, 1))
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        terms = vals[block] if take is None else vals[take[block]]
        if weight is not None:
            terms = terms * weight[block, None]
        idx = rows[block, None] * d + cols
        np.add.at(flat, idx.ravel(), terms.ravel())


def scatter_rows(d: np.ndarray, rows: np.ndarray | None, n: int) -> np.ndarray:
    """The n-row array whose row ``r`` sums the rows of ``d`` that ``rows``
    sends to ``r`` and is zero where none does: a gradient over every row from
    that of the computed rows.  ``d`` itself when ``rows`` is None (all rows)."""
    if rows is None:
        return d
    out = np.zeros((n, d.shape[1]), dtype=d.dtype)
    scatter_add(out, rows, d)
    return out


def matrix_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` through BLAS's matrix-matrix product, a one-row ``a`` included.

    numpy hands a one-row product to a vector kernel, which rounds otherwise
    than the matrix kernel does for the same row among many, so a single row
    is computed twice in one product instead.
    """
    if len(a) == 1:
        return (np.vstack([a, a]) @ b)[:1]
    return a @ b


def assert_finite(name: str, arr: np.ndarray | float) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values in {name}")
