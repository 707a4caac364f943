"""Small residual networks over token sequences.

A Denoiser maps (z_t, t) to per-position logits over the data vocabulary
(MASK is input-only: it has an embedding row but no output slot). With
n_noise > 0 (a generator) it adds a zero-initialized linear projection of a
Gaussian noise input to the hidden state after the input embedding, so that
at init it equals its teacher bit for bit.
"""

from __future__ import annotations

import io
import os
import threading
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
    elif t.shape != (batch,):
        raise ModelError(f"t must be a scalar or have shape ({batch},), got {t.shape}")
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
# one row block of a no-grad forward. With the CLI's malloc pin its blocks
# reuse heap pages: 256 KiB blocks took 0 page faults per 1,024-row forward
# at D=5 (1,038 under glibc's default 128 KiB mmap threshold).
FORWARD_BLOCK_BYTES = 256 * 1024
# No-grad calls from this activation size on try `_input_table`; smaller
# ones (a training batch of 64 rows) skip its run search.
TABLE_MIN_BYTES = 64 * 1024


def _block_rows(config: ModelConfig, nbytes: int | None = None) -> int:
    """Rows whose (rows, D, hidden) activation fills `nbytes` (by default
    `FORWARD_BLOCK_BYTES`), a multiple of 8.

    BLAS rounds the trailing rows of a product (past a multiple of its
    unroll width) differently, so blocks start on rows where the rounding
    is that of one product over the whole batch.
    """
    rows = (nbytes or FORWARD_BLOCK_BYTES) // (8 * config.seq_len * config.hidden)
    return max(8, rows - rows % 8)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_split(run, blocks) -> None:
    """run(blocks[0::2]) here and run(blocks[1::2]) on one helper thread, which
    is joined before this returns; an exception in it re-raises here.

    numpy drops the GIL in the blocks' products and tanh, so on two CPUs the
    halves overlap. Each block writes only its own rows, so the result is
    that of running every block here.
    """
    failed = []

    def helper():
        try:
            run(blocks[1::2])
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            failed.append(exc)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        run(blocks[0::2])
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _check_inputs(config: ModelConfig, params, z, noise):
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] != config.seq_len:
        raise ModelError(f"tokens must have shape (batch, {config.seq_len})")
    if z.shape[0] == 0:
        raise ModelError("tokens hold no row")
    if z.dtype.kind not in "iu":
        raise ModelError(f"tokens must be integers, got dtype {z.dtype}")
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


def _embed(params, z, tfeat, noise):
    """Block 0's input (B, D, E): embed[z] plus each row's time and noise projections."""
    h = params["embed"][z]
    h += (tfeat @ params["time_w"])[:, None, :]
    if noise is not None:
        h += (noise @ params["noise_w"])[:, None, :]
    return h


def _channel_mlp(params, b, h):
    """Block b's channel MLP on rows h (n, E): (its tanh activation, h + MLP(h)).

    Bias, tanh and residual act in place on fresh products, so h is left as it was.
    """
    u = h @ params[f"blk{b}_ch_w1"]
    u += params[f"blk{b}_ch_b1"]
    np.tanh(u, out=u)
    m = u @ params[f"blk{b}_ch_w2"]
    m += params[f"blk{b}_ch_b2"]
    m += h
    return u, m


def _input_table(config: ModelConfig, params, z, t, tfeat, noise):
    """(table, index) for rows that fall in few runs sharing (t, noise), else None.

    Block 0's channel MLP runs before any position mixing, so it reads only
    embed[token] plus the row's time and noise projections. Row r * V + v
    of `table` holds its output for token v in run r of consecutive rows
    with equal t and noise, and `table[index]` is block 0's output for
    every row. Taken for at most B * D / (2 * V) runs, when the table holds
    at most half the rows of the per-position product it replaces.
    """
    B, D = z.shape
    V = config.vocab_in
    most = B * D // (2 * V)
    t = np.asarray(t)
    starts = np.zeros(B, dtype=bool)  # row i opens a run
    if t.ndim:
        np.not_equal(t[1:], t[:-1], out=starts[1:])
        if np.count_nonzero(starts) >= most:  # per-row times: no need to read the noise
            return None
    starts[0] = True
    if noise is not None:
        starts[1:] |= (noise[1:] != noise[:-1]).any(axis=1)
    first = np.flatnonzero(starts)
    if len(first) > most:
        return None
    # products of fewer than 8 rows round differently (see `_fused_forward`):
    # pad with repeats of the last run
    first = np.append(first, np.full(max(0, 8 - len(first)), first[-1]))
    tokens = np.broadcast_to(np.arange(V), (len(first), V))
    h = _embed(params, tokens, tfeat[first], None if noise is None else noise[first])
    _, table = _channel_mlp(params, 0, h.reshape(-1, config.emb))
    return table, (np.cumsum(starts) - 1)[:, None] * V + z


def _fused_forward(config: ModelConfig, params, h, out, cache=None, mixed=False):
    """The network's forward on plain arrays, from block 0's input h (B, D, E)
    to the logits, written into out (B, D, K).

    Matrix products run as one 2-D product over (rows, width) arrays: numpy
    rounds a stack of matrices differently from one product over the same
    rows. The tape oracle of the tests runs the same ops in the same order
    and gives the same logits bit for bit. With `mixed`, h is already block
    0's channel-MLP output (read from `_input_table`), which then starts at
    block 0's position mix. With a `cache` dict it keeps the activations
    `_fused_backward` reads.

    The table's rows equal the per-position rows only under a rounding
    condition, measured on numpy 2.4 with OpenBLAS 0.3 (x86-64): a 1-row
    product rounds differently from the same row inside a larger product,
    for every shape tried; the channel-MLP and projection products matched
    row for row from 2 rows on; and the 2-column head of K = 2 rounds its
    trailing rows differently. So every table product has at least 8 rows,
    and the head runs per row.
    """
    B, D, E = h.shape
    blocks = []
    for b in range(config.depth):
        h_in, u = h, None
        if b or not mixed:
            u, h = _channel_mlp(params, b, h.reshape(-1, E))
            h = h.reshape(B, D, E)
        # a copy even where a view would do (D = 1): the residual add below writes h
        ht = np.swapaxes(h, 1, 2).copy().reshape(-1, D)  # (B*E, D): mix across positions
        p = ht @ params[f"blk{b}_pos_w"]
        p += params[f"blk{b}_pos_b"]
        np.tanh(p, out=p)
        h += np.swapaxes(p.reshape(B, E, D), 1, 2)
        if cache is not None:
            blocks.append((h_in, u, ht, p))
    h = h.reshape(-1, E)
    logits = out.reshape(-1, config.vocab)
    np.matmul(h, params["head_w"], out=logits)
    logits += params["head_b"]
    if cache is not None:
        cache.update(blocks=blocks, h=h)


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
        store's by default); `cache` keeps the activations for `backward`.

        Without a cache the rows run in blocks of `_block_rows`, split
        between this thread and one helper when there are several blocks and
        more than one CPU (`_run_split`; the logits are the same bit for bit).
        A call of at least `TABLE_MIN_BYTES` whose rows share (t, noise) in
        few runs reads block 0 from `_input_table`."""
        config = self.config
        params = self.store.arrays() if params is None else params
        z, noise = _check_inputs(config, params, z, noise)
        B = z.shape[0]
        tfeat = time_features(t, config.time_width, B)
        out = np.empty((B, config.seq_len, config.vocab))
        if cache is not None:
            cache.update(z=z, tfeat=tfeat, noise=noise)
            _fused_forward(config, params, _embed(params, z, tfeat, noise), out, cache)
            return out
        runs = None
        if B >= _block_rows(config, TABLE_MIN_BYTES):
            runs = _input_table(config, params, z, t, tfeat, noise)
        rows = _block_rows(config)
        # the last block takes the remainder, so no block is short
        bounds = [i * rows for i in range(max(1, B // rows))] + [B]
        blocks = list(zip(bounds[:-1], bounds[1:]))

        def run(part):
            for lo, hi in part:
                if runs is None:
                    h = _embed(params, z[lo:hi], tfeat[lo:hi],
                               None if noise is None else noise[lo:hi])
                else:
                    table, index = runs
                    h = table[index[lo:hi]]
                _fused_forward(config, params, h, out[lo:hi], mixed=runs is not None)

        if len(blocks) > 1 and _cpus() > 1:
            _run_split(run, blocks)
        else:
            run(blocks)
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
    if missing := [f.name for f in fields(ModelConfig) if f.name not in raw]:
        raise ModelError(f"checkpoint header lacks {', '.join('config.' + m for m in missing)}")
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
