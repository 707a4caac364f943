"""Small residual networks over token sequences.

A Denoiser maps (z_t, t) to per-position logits over the data vocabulary
(MASK is input-only: it has an embedding row but no output slot). A
Generator is a Denoiser plus a zero-initialized linear projection of a
Gaussian noise input, added to the hidden state after the input embedding,
so that at init it equals its teacher bit for bit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore
from .numerics import RngState, one_hot


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


def _init_params(config: ModelConfig, rng: RngState, with_noise_proj: bool) -> ParamStore:
    store = ParamStore()
    store.add("embed", rng.normal((config.vocab_in, config.emb)) / np.sqrt(config.emb))
    store.add("time_w", rng.normal((config.time_width, config.emb)) / np.sqrt(config.time_width))
    if with_noise_proj:
        # zero init: the generator starts exactly at its teacher
        store.add("noise_w", np.zeros((config.n_noise, config.emb)))
    for b in range(config.depth):
        store.add(f"blk{b}_ch_w1", rng.normal((config.emb, config.hidden)) / np.sqrt(config.emb))
        store.add(f"blk{b}_ch_b1", np.zeros(config.hidden))
        store.add(f"blk{b}_ch_w2", rng.normal((config.hidden, config.emb)) / np.sqrt(config.hidden))
        store.add(f"blk{b}_ch_b2", np.zeros(config.emb))
        store.add(f"blk{b}_pos_w", rng.normal((config.seq_len, config.seq_len)) / np.sqrt(config.seq_len))
        store.add(f"blk{b}_pos_b", np.zeros(config.seq_len))
    # zero head: the untrained model is exactly a uniform predictor
    store.add("head_w", np.zeros((config.emb, config.vocab)))
    store.add("head_b", np.zeros(config.vocab))
    return store


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


def _tape_forward(config: ModelConfig, params, z, t, noise=None):
    """The forward on the autodiff tape; `params` maps names to Vars.

    The gradient oracle for `_fused_forward`/`_fused_backward`, which run
    the same ops in the same order.
    """
    z, noise = _check_inputs(config, params, z, noise)
    h = ad.take_rows(params["embed"], z)  # (B, D, E)
    tfeat = time_features(t, config.time_width, z.shape[0])
    h = ad.add(h, ad.expand_dims(ad.matmul(tfeat, params["time_w"]), 1))
    if noise is not None:
        h = ad.add(h, ad.expand_dims(ad.matmul(noise, params["noise_w"]), 1))

    for b in range(config.depth):
        u = ad.tanh(ad.add(ad.matmul(h, params[f"blk{b}_ch_w1"]), params[f"blk{b}_ch_b1"]))
        h = ad.add(h, ad.add(ad.matmul(u, params[f"blk{b}_ch_w2"]), params[f"blk{b}_ch_b2"]))
        ht = ad.swap_last_axes(h)  # (B, E, D): mix across positions
        p = ad.tanh(ad.add(ad.matmul(ht, params[f"blk{b}_pos_w"]), params[f"blk{b}_pos_b"]))
        h = ad.add(h, ad.swap_last_axes(p))

    return ad.add(ad.matmul(h, params["head_w"]), params["head_b"])


def _fused_forward(config: ModelConfig, params, z, tfeat, noise, cache=None):
    """Array-only forward: the ops of `_tape_forward`, in its order.

    Matrix products run on (rows, width) arrays, as `autodiff.matmul` does,
    so the logits equal the tape's bit for bit. With a `cache` dict it keeps
    the activations `_fused_backward` reads.
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

    Overwrites every segment of `store.grads` with this one loss's gradient.
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


class _ResidualNet:
    """The forward paths and the fused backward shared by Denoiser and Generator."""

    config: ModelConfig
    store: ParamStore

    def _run(self, z, t, noise, params, cache):
        params = self.store.arrays() if params is None else params
        if isinstance(params["embed"], ad.Var):
            return _tape_forward(self.config, params, z, t, noise)
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

    def backward(self, cache: dict, dlogits: np.ndarray) -> None:
        """Write d(loss)/d(params) into `store.grads`, given d(loss)/d(logits).

        `cache` is the dict filled by the forward that produced the logits.
        """
        _fused_backward(self.config, self.store.arrays(), cache, dlogits, self.store)


class Denoiser(_ResidualNet):
    """Predicts per-position logits over clean tokens given a noised sequence."""

    def __init__(self, config: ModelConfig, rng: RngState | None = None,
                 store: ParamStore | None = None):
        if config.n_noise != 0:
            raise ModelError("a plain denoiser takes no noise input")
        self.config = config
        self.store = store if store is not None else _init_params(config, rng, False)

    def forward(self, z, t, params=None, cache=None):
        """Logits (batch, D, K). `params` of Vars runs the tape (an `embed`
        Var selects it); `cache` keeps the activations for `backward`."""
        return self._run(z, t, None, params, cache)

    def probs(self, z, t) -> np.ndarray:
        return ad.softmax(self.forward(z, t))


class Generator(_ResidualNet):
    """A Denoiser with a learned projection of Gaussian input noise.

    With n_noise=0 it degenerates to a plain denoiser; with a zero noise
    projection its output is identical to the underlying denoiser.
    """

    def __init__(self, config: ModelConfig, rng: RngState | None = None,
                 store: ParamStore | None = None):
        self.config = config
        self.store = store if store is not None else _init_params(config, rng, config.n_noise > 0)

    def forward(self, z, t, noise=None, params=None, cache=None):
        if self.config.n_noise == 0 and noise is not None:
            raise ModelError("generator configured with n_noise=0")
        return self._run(z, t, noise, params, cache)

    def probs(self, z, t, noise=None) -> np.ndarray:
        return ad.softmax(self.forward(z, t, noise=noise))


def init_from_teacher(teacher: Denoiser, n_noise: int) -> tuple["Generator", "Denoiser"]:
    """Warm-start a generator and an auxiliary model from teacher weights.

    The generator gains a zero-initialized noise projection (so it starts at
    the teacher exactly); the auxiliary is a plain parameter copy.
    """
    cfg = teacher.config
    gen_cfg = ModelConfig(cfg.seq_len, cfg.vocab, cfg.masked, cfg.emb, cfg.hidden,
                          cfg.depth, cfg.time_width, n_noise)
    gen_store = _init_params(gen_cfg, RngState(0), n_noise > 0)
    gen_store.copy_values_from(teacher.store)
    aux = Denoiser(cfg, store=teacher.store.copy())
    return Generator(gen_cfg, store=gen_store), aux


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
    fields, extra, n_params = {}, {}, None
    for line in lines[1:]:
        if not line or line == "---":
            continue
        key, _, val = line.partition(" = ")
        if key == "params":
            n_params = int(val)
        elif key.startswith("config."):
            fields[key[len("config."):]] = val
        elif key.startswith("extra."):
            extra[key[len("extra."):]] = val
    cfg = ModelConfig(
        seq_len=int(fields["seq_len"]), vocab=int(fields["vocab"]),
        masked=fields["masked"] == "True", emb=int(fields["emb"]),
        hidden=int(fields["hidden"]), depth=int(fields["depth"]),
        time_width=int(fields["time_width"]), n_noise=int(fields["n_noise"]))
    values = np.frombuffer(blob[sep:], dtype="<f8").astype(np.float64)
    if n_params is not None and values.size != n_params:
        raise ModelError(f"checkpoint declares {n_params} params, found {values.size}")
    return cfg, values, extra


def model_from_checkpoint(path):
    """Rebuild a Denoiser or Generator (by n_noise) from a checkpoint file."""
    cfg, values, extra = load_checkpoint(path)
    store = _init_params(cfg, RngState(0), cfg.n_noise > 0)
    if store.values.size != values.size:
        raise ModelError("checkpoint parameter count does not match config")
    store.values[:] = values
    model = Generator(cfg, store=store) if cfg.n_noise > 0 else Denoiser(cfg, store=store)
    return model, extra
