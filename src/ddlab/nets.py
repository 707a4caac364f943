"""Small residual networks over token sequences.

A Denoiser maps (z_t, t) to per-position logits over the data vocabulary
(MASK is input-only: it has an embedding row but no output slot). With
n_noise > 0 (a generator) it adds a zero-initialized linear projection of a
Gaussian noise input to the hidden state after the input embedding, so that
at init it equals its teacher bit for bit.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .autodiff import ParamStore
from .numerics import RngState, one_hot, softmax


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    seq_len: int
    vocab: int  # data vocabulary K; +1 input slot is added when masked
    masked: bool
    emb: int = 16
    hidden: int = 32
    depth: int = 2
    time_width: int = 8
    n_noise: int = 0

    def __post_init__(self):
        if min(self.seq_len, self.vocab, self.emb, self.hidden, self.depth, self.time_width) < 1:
            raise ModelError("all widths and depth must be >= 1")
        if self.n_noise < 0:
            raise ModelError("n_noise must be >= 0")
        if self.time_width % 2:
            raise ModelError("time_width must be even")

    @property
    def vocab_in(self) -> int:
        return self.vocab + 1 if self.masked else self.vocab


def time_features(t, width: int, batch: int) -> np.ndarray:
    """Sinusoidal features of a scalar (or per-example) time in [0, 1]."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        t = np.full(batch, float(t))
    freqs = np.pi * 2.0 ** np.arange(width // 2)
    angles = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def _init_params(config: ModelConfig, rng: RngState) -> dict[str, np.ndarray]:
    """Freshly drawn weights, by name, in the store's layout order."""
    params = {
        "embed": rng.normal((config.vocab_in, config.emb)) / np.sqrt(config.emb),
        "time_w": rng.normal((config.time_width, config.emb)) / np.sqrt(config.time_width),
    }
    if config.n_noise > 0:
        # zero init: the generator starts exactly at its teacher
        params["noise_w"] = np.zeros((config.n_noise, config.emb))
    for b in range(config.depth):
        params[f"blk{b}_ch_w1"] = rng.normal((config.emb, config.hidden)) / np.sqrt(config.emb)
        params[f"blk{b}_ch_b1"] = np.zeros(config.hidden)
        params[f"blk{b}_ch_w2"] = rng.normal((config.hidden, config.emb)) / np.sqrt(config.hidden)
        params[f"blk{b}_ch_b2"] = np.zeros(config.emb)
        params[f"blk{b}_pos_w"] = rng.normal((config.seq_len, config.seq_len)) / np.sqrt(config.seq_len)
        params[f"blk{b}_pos_b"] = np.zeros(config.seq_len)
    # zero head: the untrained model is exactly a uniform predictor
    params["head_w"] = np.zeros((config.emb, config.vocab))
    params["head_b"] = np.zeros(config.vocab)
    return params


# Byte budget of the (rows, D, hidden) activation, the largest temporary of
# one row block of a no-grad forward. Below glibc's 128 KiB mmap threshold,
# so block temporaries reuse heap memory instead of faulting in fresh
# mmapped pages on every call (256 KiB blocks took ~1,600 page faults per
# 1,024-row forward at D=5; 64 KiB took none).
FORWARD_BLOCK_BYTES = 64 * 1024


def _block_rows(config: ModelConfig) -> int:
    """Rows of one no-grad block, a multiple of 8.

    BLAS rounds the trailing rows of a product (past a multiple of its
    unroll width) differently, so blocks start on rows where the rounding
    is that of one product over the whole batch.
    """
    rows = FORWARD_BLOCK_BYTES // (8 * config.seq_len * config.hidden)
    return max(8, rows - rows % 8)


def _check_inputs(config: ModelConfig, params, z, noise):
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] != config.seq_len:
        raise ModelError(f"tokens must have shape (batch, {config.seq_len})")
    if z.min() < 0 or z.max() >= config.vocab_in:
        raise ModelError(f"token id out of range for vocab_in={config.vocab_in}")
    batch = z.shape[0]
    if "noise_w" in params:
        if noise is None:
            noise = np.zeros((batch, config.n_noise))
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (batch, config.n_noise):
            raise ModelError(f"noise must have shape ({batch}, {config.n_noise})")
    elif noise is not None:
        raise ModelError("model has no noise projection")
    return z, noise


def _fused_forward(config: ModelConfig, params, z, tfeat, noise, cache=None):
    """The network's forward on plain arrays.

    Matrix products run as one 2-D product over (rows, width) arrays: numpy
    rounds a stack of matrices differently from one product over the same
    rows. The tape oracle of the tests runs the same ops in the same order
    and gives the same logits bit for bit. With a `cache` dict it keeps the
    activations `_fused_backward` reads.
    """
    B, D = z.shape
    E = config.emb
    h = params["embed"][z]
    h = h + (tfeat @ params["time_w"])[:, None, :]
    if noise is not None:
        h = h + (noise @ params["noise_w"])[:, None, :]
    blocks = []
    for b in range(config.depth):
        # in-place bias and tanh on fresh products: same values, fewer allocations
        u = h.reshape(-1, E) @ params[f"blk{b}_ch_w1"]
        u += params[f"blk{b}_ch_b1"]
        np.tanh(u, out=u)
        m = u @ params[f"blk{b}_ch_w2"]
        m += params[f"blk{b}_ch_b2"]
        h_in, h = h, h + m.reshape(B, D, E)
        ht = np.swapaxes(h, 1, 2).reshape(-1, D)  # (B*E, D): mix across positions
        p = ht @ params[f"blk{b}_pos_w"]
        p += params[f"blk{b}_pos_b"]
        np.tanh(p, out=p)
        h = h + np.swapaxes(p.reshape(B, E, D), 1, 2)
        blocks.append((h_in, u, ht, p))
    h = h.reshape(-1, E)
    if cache is not None:
        cache.update(z=z, tfeat=tfeat, noise=noise, blocks=blocks, h=h)
    return (h @ params["head_w"] + params["head_b"]).reshape(B, D, config.vocab)


def _fused_backward(config: ModelConfig, params, cache, dlogits, store: ParamStore) -> None:
    """Hand-derived backward of `_fused_forward` from d(loss)/d(logits).

    Overwrites every block of `store.grads` with this one loss's gradient.
    """
    z, h = cache["z"], cache["h"]
    B, D = z.shape
    E = config.emb
    g = store.grad_arrays()
    colsum = np.add.reduce
    d2 = dlogits.reshape(-1, config.vocab)
    np.matmul(h.T, d2, out=g["head_w"])
    colsum(d2, axis=0, out=g["head_b"])
    # products with a transposed weight run faster on a contiguous copy
    dh = d2 @ params["head_w"].T.copy()  # (B*D, E)
    for b in reversed(range(config.depth)):
        h_in, u, ht, p = cache["blocks"][b]
        # position mix: h += swap(tanh(swap(h) @ pos_w + pos_b))
        dpre = np.swapaxes(dh.reshape(B, D, E), 1, 2).reshape(-1, D) * (1.0 - p * p)
        np.matmul(ht.T, dpre, out=g[f"blk{b}_pos_w"])
        # two stages: one reduction over B*E rows of width D is slow for small D
        colsum(colsum(dpre.reshape(B, E * D), axis=0).reshape(E, D), axis=0,
               out=g[f"blk{b}_pos_b"])
        dht = dpre @ params[f"blk{b}_pos_w"].T.copy()
        dh = dh + np.swapaxes(dht.reshape(B, E, D), 1, 2).reshape(-1, E)
        # channel MLP: h += tanh(h @ w1 + b1) @ w2 + b2
        np.matmul(u.T, dh, out=g[f"blk{b}_ch_w2"])
        colsum(dh, axis=0, out=g[f"blk{b}_ch_b2"])
        da = (dh @ params[f"blk{b}_ch_w2"].T.copy()) * (1.0 - u * u)
        np.matmul(h_in.reshape(-1, E).T, da, out=g[f"blk{b}_ch_w1"])
        colsum(da, axis=0, out=g[f"blk{b}_ch_b1"])
        dh = dh + da @ params[f"blk{b}_ch_w1"].T.copy()
    # input: embed[z] + time and noise projections broadcast over positions
    dpos = colsum(dh.reshape(B, D, E), axis=1)
    np.matmul(cache["tfeat"].T, dpos, out=g["time_w"])
    if "noise_w" in g:
        np.matmul(cache["noise"].T, dpos, out=g["noise_w"])
    # embedding rows: a one-hot product, not a scatter (np.add.at is slow)
    np.matmul(one_hot(z.reshape(-1), config.vocab_in).T, dh, out=g["embed"])


class Denoiser:
    """Predicts per-position logits over clean tokens given a noised sequence.

    With `config.n_noise > 0` it also takes a Gaussian noise input through a
    learned projection (a generator); a zero projection leaves its output
    identical to the same weights without one.
    """

    def __init__(self, config: ModelConfig, rng: RngState | None = None,
                 store: ParamStore | None = None):
        self.config = config
        self.store = store if store is not None else ParamStore(_init_params(config, rng))

    def forward(self, z, t, noise=None, params=None, cache=None):
        """Logits (batch, D, K). `params` maps names to weight arrays (the
        store's by default); `cache` keeps the activations for `backward`."""
        params = self.store.arrays() if params is None else params
        z, noise = _check_inputs(self.config, params, z, noise)
        tfeat = time_features(t, self.config.time_width, z.shape[0])
        rows = _block_rows(self.config)
        n_blocks = z.shape[0] // rows
        if cache is not None or n_blocks < 2:
            return _fused_forward(self.config, params, z, tfeat, noise, cache)
        # the last block takes the remainder, so no block is short
        bounds = [i * rows for i in range(n_blocks)] + [z.shape[0]]
        out = np.empty(z.shape + (self.config.vocab,))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out[lo:hi] = _fused_forward(self.config, params, z[lo:hi], tfeat[lo:hi],
                                        None if noise is None else noise[lo:hi])
        return out

    def probs(self, z, t, noise=None) -> np.ndarray:
        return softmax(self.forward(z, t, noise=noise))

    def backward(self, cache: dict, dlogits: np.ndarray) -> None:
        """Write d(loss)/d(params) into `store.grads`, given d(loss)/d(logits).

        `cache` is the dict filled by the forward that produced the logits.
        """
        _fused_backward(self.config, self.store.arrays(), cache, dlogits, self.store)


class Generator(Denoiser):
    """Not a second model (a generator is a Denoiser with n_noise > 0) and never built:
    the name stays because perfbench/tracer.py looks up `Generator.forward`."""


def init_from_teacher(teacher: Denoiser, n_noise: int) -> tuple[Denoiser, Denoiser]:
    """Warm-start a generator and an auxiliary model from teacher weights.

    The generator gains a zero-initialized noise projection (so it starts at
    the teacher exactly); the auxiliary is a plain parameter copy.
    """
    gen_cfg = replace(teacher.config, n_noise=n_noise)
    gen_store = ParamStore({**_init_params(gen_cfg, RngState(0)), **teacher.store.arrays()})
    aux = Denoiser(teacher.config, store=teacher.store.copy())
    return Denoiser(gen_cfg, store=gen_store), aux


CHECKPOINT_MAGIC = "ddlab-checkpoint v1"


def save_checkpoint(path, config: ModelConfig, store: ParamStore, extra: dict | None = None) -> None:
    """Versioned binary: text header (config + extras) then raw f64 LE params."""
    header = io.StringIO()
    header.write(CHECKPOINT_MAGIC + "\n")
    for key, val in sorted(asdict(config).items()):
        header.write(f"config.{key} = {val}\n")
    for key, val in sorted((extra or {}).items()):
        header.write(f"extra.{key} = {val}\n")
    header.write(f"params = {store.values.size}\n")
    header.write("---\n")
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        fh.write(store.values.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, np.ndarray, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.index(b"---\n") + 4
    lines = blob[:sep].decode("utf-8").splitlines()
    if lines[0] != CHECKPOINT_MAGIC:
        raise ModelError(f"bad checkpoint magic: {lines[0]!r}")
    raw, extra, n_params = {}, {}, None
    for line in lines[1:]:
        if not line or line == "---":
            continue
        key, _, val = line.partition(" = ")
        if key == "params":
            n_params = int(val)
        elif key.startswith("config."):
            raw[key[len("config."):]] = val
        elif key.startswith("extra."):
            extra[key[len("extra."):]] = val
    # every field is an int but `masked`
    cfg = ModelConfig(**{f.name: raw[f.name] == "True" if f.name == "masked" else int(raw[f.name])
                         for f in fields(ModelConfig)})
    values = np.frombuffer(blob[sep:], dtype="<f8").astype(np.float64)
    if n_params is not None and values.size != n_params:
        raise ModelError(f"checkpoint declares {n_params} params, found {values.size}")
    return cfg, values, extra


def model_from_checkpoint(path):
    """Rebuild a Denoiser (with a noise input when n_noise > 0) from a checkpoint file."""
    cfg, values, extra = load_checkpoint(path)
    model = Denoiser(cfg, RngState(0))
    if model.store.values.size != values.size:
        raise ModelError("checkpoint parameter count does not match config")
    model.store.values[:] = values
    return model, extra
