"""Alternating moment-matching distillation of a discrete diffusion teacher.

Even steps update the few-step generator, odd steps the auxiliary model that
tracks the generator's conditional expectation. Teacher logits pass through
optional temperature scaling and a finite-shift nucleus cutoff before use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import AdamState, adam_step
from .data import SyntheticDataset
from .nets import Denoiser, init_from_teacher
from .numerics import RngState, categorical_sample, log_softmax, one_hot, softmax
from .process import DiffusionProcess, Posterior, diffuse, posterior_sample
from .teacher import cross_entropy_head, loss_weight, position_mask

# added inside the logs of posterior-transformed rows, which may hold exact zeros
POSTERIOR_LOG_FLOOR = 1e-30


class DistillError(ValueError):
    pass


class DistillDivergence(RuntimeError):
    """`max_logit` is the largest |teacher log-probability| of the diverging step's batch."""

    def __init__(self, step: int, tau: float, top_p: float, max_logit: float, loss: float):
        self.step, self.tau, self.top_p, self.max_logit, self.loss = step, tau, top_p, max_logit, loss
        super().__init__(
            f"distillation diverged at step {step}: loss={loss:.6g}, "
            f"tau={tau}, top_p={top_p}, max|teacher logp|={max_logit:.6g}")


@dataclass
class DistillConfig:
    k: int = 1
    tau: float = 1.0
    top_p: float = 1.0
    delta: float = 2.0
    soft_targets: bool = False  # masked processes only
    loss_variant: str = "cross_entropy"  # cross_entropy | posterior_kl
    weighting: str = "unit"
    steps: int = 8000
    batch: int = 64
    gen_lr: float = 1e-3
    aux_lr: float = 2e-3
    ds: float = 1.0 / 64.0  # discretization gap of the posterior_kl variant
    aux_per_gen: int = 1  # auxiliary updates per generator update
    eval_every: int = 1000
    noise_marginal_draws: int = 64

    def __post_init__(self):
        if self.k < 1:
            raise DistillError("k must be >= 1")
        if not (0.0 < self.tau <= 1.0) or not (0.0 < self.top_p <= 1.0):
            raise DistillError("tau and top_p must lie in (0, 1]")
        if not 0.0 <= self.delta < np.inf:
            raise DistillError("delta must be finite and >= 0")
        if not (0.0 < self.gen_lr < np.inf and 0.0 < self.aux_lr < np.inf):
            raise DistillError("gen_lr and aux_lr must be finite and > 0")
        if self.loss_variant not in ("cross_entropy", "posterior_kl"):
            raise DistillError(f"unknown loss variant {self.loss_variant!r}")
        if self.weighting not in ("unit", "mdlm"):
            raise DistillError(f"unknown weighting {self.weighting!r}")
        if min(self.aux_per_gen, self.batch, self.eval_every, self.noise_marginal_draws) < 1:
            raise DistillError("aux_per_gen, batch, eval_every and noise_marginal_draws "
                               "must be >= 1")
        if self.steps < 0:
            raise DistillError("steps must be >= 0")
        if not 0.0 < self.ds <= 1.0:
            raise DistillError("ds must lie in (0, 1]")

    @property
    def keeps_teacher(self) -> bool:
        """Whether `teacher_logits` leaves the model's distribution as it is
        (tau = 1, no nucleus), up to rounding."""
        return self.tau == 1.0 and self.top_p >= 1.0


def sample_times(rng: RngState, k: int, size=None):
    """s ~ U(0,1), t = min(1, s + U(0, 1/k)); always 0 <= s <= t <= 1, t-s <= 1/k.

    With `size` set, draws one (s, t) pair per example (lower gradient
    variance at small batch sizes than a shared scalar pair).
    """
    s = rng.uniform(size=size)
    dt = rng.uniform(size=size, low=0.0, high=1.0 / k)
    t = np.minimum(1.0, s + dt)
    if size is None:
        return float(s), float(t)
    return s, t


def teacher_logits(model, cfg: DistillConfig):
    """logits(z_s, s): `model`'s logits after `cfg`'s temperature scaling and
    nucleus shift, unnormalized, for a scalar s or one time per row.

    Temperature first: logits = log-probs / tau. The nucleus is the minimal
    prefix of the tau-scaled distribution (probability descending, index
    ascending on ties) with cumulative mass >= top_p; out-of-nucleus logits
    are lowered by the constant delta. A finite shift keeps training stable;
    delta = 1e20 is naive -1e20 masking, the negative control that diverges.
    """
    tau, top_p, delta = cfg.tau, cfg.top_p, cfg.delta

    def logits(z_s: np.ndarray, s) -> np.ndarray:
        scaled = log_softmax(model.forward(z_s, s)) / tau
        if top_p >= 1.0:
            return scaled
        probs = softmax(scaled)
        order = np.argsort(-probs, axis=-1, kind="stable")
        sorted_p = np.take_along_axis(probs, order, axis=-1)
        cum = np.cumsum(sorted_p, axis=-1)
        keep_sorted = np.zeros_like(probs, dtype=bool)
        keep_sorted[..., 0] = True
        keep_sorted[..., 1:] = cum[..., :-1] < top_p
        keep = np.zeros_like(keep_sorted)
        np.put_along_axis(keep, order, keep_sorted, axis=-1)
        return np.where(keep, scaled, scaled - delta)
    return logits


def _head_weights(weight, pos_mask: np.ndarray) -> np.ndarray:
    """Per-row loss factors: weight * pos_mask over the number of kept rows,
    so that each head returns a weighted mean over the positions that carry signal."""
    return weight * pos_mask / max(pos_mask.sum(), 1.0)


def generator_loss_head(gen_probs: np.ndarray, teacher_logp: np.ndarray,
                        aux_logp: np.ndarray, weight: np.ndarray):
    """sum(weight * -sum_c xhat_c (log teacher - log aux)_c) for xhat = softmax(logits),
    and its gradient wrt the generator's logits, in closed form.

    The log-probability arguments are constants (stop-gradient by
    construction). `weight` holds one factor per row (`_head_weights`).
    Returns (loss, dlogits).
    """
    diff = aux_logp - teacher_logp
    per_pos = np.sum(gen_probs * diff, axis=-1)
    dlogits = (weight[..., None] * gen_probs) * (diff - per_pos[..., None])
    return float(np.sum(weight * per_pos)), dlogits


def auxiliary_loss_head(target, teacher_probs: np.ndarray, aux_logits: np.ndarray,
                        process: DiffusionProcess, weight: np.ndarray):
    """CE(target | aux) + CE(teacher | aux) for aux = softmax(aux_logits), weighted
    per row, and its gradient wrt the auxiliary logits, in closed form.

    `target` is hard tokens or soft rows. Soft targets are only valid for
    masked diffusion: a masked z_s slot gives no information about x, so the
    generator's soft vector is as valid a target as the hard sample. For
    uniform diffusion z_s is correlated with the hard x that produced it, so
    only hard targets are unbiased. Both cross-entropies share the aux
    log-probabilities, so they are one cross-entropy against the sum of the
    two target rows.
    """
    target = np.asarray(target)
    if target.dtype.kind == "f":
        if not process.masked:
            raise DistillError("soft auxiliary targets are only valid for masked diffusion")
    else:
        target = one_hot(target, teacher_probs.shape[-1])
    return cross_entropy_head(aux_logits, target + teacher_probs, weight)


def posterior_kl_head(gen_probs: np.ndarray, teacher_probs: np.ndarray,
                      aux_probs: np.ndarray, z_s: np.ndarray, s, ds: float,
                      process: DiffusionProcess, weight: np.ndarray, gen_phase: bool):
    """The posterior-KL losses of softmax rows, with d/d(logits) in closed form.

    All three rows are pushed through the analytic posterior from s to s - ds
    at z_s before matching (log-floored at `POSTERIOR_LOG_FLOOR`). The
    generator phase returns

        sum(weight * sum_c post(gen)_c (log post(aux) - log post(teacher))_c)

    and the gradient wrt the generator's logits; the auxiliary phase returns
    CE(post(gen) | post(aux)) + CE(post(teacher) | post(aux)), weighted the
    same way, and the gradient wrt the auxiliary logits. The fixed point
    (aux = teacher) gives an exactly zero generator loss.
    """
    post = Posterior(z_s, np.maximum(0.0, np.asarray(s, dtype=np.float64) - ds), s, process)
    q_gen, q_aux, q_teacher = post(gen_probs), post(aux_probs), post(teacher_probs)
    log_aux = np.log(q_aux + POSTERIOR_LOG_FLOOR)
    if gen_phase:
        diff = log_aux - np.log(q_teacher + POSTERIOR_LOG_FLOOR)
        loss = float(np.sum(weight * np.sum(q_gen * diff, axis=-1)))
        probs, q, dq = gen_probs, q_gen, weight[..., None] * diff
    else:
        target = q_gen + q_teacher
        loss = -float(np.sum(weight * np.sum(target * log_aux, axis=-1)))
        probs, q, dq = aux_probs, q_aux, -weight[..., None] * target / (q_aux + POSTERIOR_LOG_FLOOR)
    dprobs = post.vjp(probs, q, dq)
    return loss, probs * (dprobs - np.sum(probs * dprobs, axis=-1, keepdims=True))


# the state file's array for each field of a log row
LOG_ARRAYS = {"step": "log_step", "phase": "log_phase", "loss": "log_loss",
              "gen_output_entropy": "log_entropy", "eval_kl": "log_eval_kl"}


class Distiller:
    """Owns the generator, the auxiliary model and the alternating optimization
    state. `teacher(z_s, s)` returns the teacher's logits (`teacher_logits`
    builds them for a network); `model`'s weights initialise the generator
    and the auxiliary model."""

    def __init__(self, model: Denoiser, teacher, dataset: SyntheticDataset,
                 process: DiffusionProcess, config: DistillConfig,
                 rng: RngState, n_noise: int = 0):
        if config.soft_targets and not process.masked:
            raise DistillError("soft targets require a masked process")
        self.teacher = teacher
        self.dataset = dataset
        self.process = process
        self.config = config
        self.rng = rng
        self.generator, self.auxiliary = init_from_teacher(model, n_noise)
        self.gen_opt = AdamState.for_store(self.generator.store)
        self.aux_opt = AdamState.for_store(self.auxiliary.store)
        self.step_index = 0
        self.log_rows: list[dict] = []

    def step(self) -> tuple[str, float]:
        """One alternating update: the generator at every (1 + aux_per_gen)-th
        index, the auxiliary model at the others.

        Both phases draw z_s from the generator and score it with the teacher
        and the auxiliary model. Positions already revealed in z_s (masked
        processes) carry no matching signal, since the teacher was never
        trained there; both losses skip them.
        """
        i = self.step_index
        cfg = self.config
        gen_phase = i % (1 + cfg.aux_per_gen) == 0
        model, opt, lr = ((self.generator, self.gen_opt, cfg.gen_lr) if gen_phase
                          else (self.auxiliary, self.aux_opt, cfg.aux_lr))
        cache = {}

        def forward(net, z, time, noise=None):
            # the trained model's forward carries gradient: it takes params and keeps `cache`
            if net is not model:
                return net.forward(z, time, noise=noise)
            return net.forward(z, time, noise=noise, params=net.store.arrays(), cache=cache)

        s, t = sample_times(self.rng, cfg.k, size=cfg.batch)
        x_data = self.dataset.sample(cfg.batch, self.rng)
        z_t = diffuse(x_data, t, self.process, self.rng)
        n_noise = self.generator.config.n_noise
        eps = self.rng.normal((cfg.batch, n_noise)) if n_noise else None
        w = loss_weight(s, self.process, cfg.weighting)[:, None]
        gen_logits = forward(self.generator, z_t, t, eps)
        xhat = softmax(gen_logits)
        x = categorical_sample(xhat, self.rng)
        z_s = posterior_sample(x, z_t, s, t, self.process, self.rng)
        pos_mask = position_mask(z_s, self.process)
        teacher_logp = log_softmax(self.teacher(z_s, s))
        aux_logits = forward(self.auxiliary, z_s, s)

        weight = _head_weights(w, pos_mask)
        if cfg.loss_variant == "posterior_kl":
            loss, dlogits = posterior_kl_head(xhat, np.exp(teacher_logp), softmax(aux_logits),
                                              z_s, s, cfg.ds, self.process, weight, gen_phase)
        elif gen_phase:
            loss, dlogits = generator_loss_head(xhat, teacher_logp, log_softmax(aux_logits),
                                                weight)
        else:
            target = xhat if cfg.soft_targets else x
            loss, dlogits = auxiliary_loss_head(target, np.exp(teacher_logp), aux_logits,
                                                self.process, weight)
        self._check_loss(loss, i, teacher_logp)
        model.backward(cache, dlogits)
        adam_step(model.store, opt, lr=lr)
        self.step_index += 1
        return ("gen" if gen_phase else "aux"), loss

    def _check_loss(self, val: float, i: int, teacher_logp: np.ndarray) -> None:
        if not np.isfinite(val) or abs(val) > 1e15:
            cfg = self.config
            raise DistillDivergence(i, cfg.tau, cfg.top_p, float(np.max(np.abs(teacher_logp))),
                                    val)

    def run(self, steps: int, eval_fn=None) -> list[dict]:
        """Run `steps` alternating updates, recording a CSV-ready log.

        The log holds a row every `eval_every` steps and one for the last
        step, so runs of a and then b steps log what one run of a + b does.
        """
        cfg = self.config
        end = self.step_index + steps
        if steps > 0 and self.log_rows and self.log_rows[-1]["step"] % cfg.eval_every:
            self.log_rows.pop()  # an earlier run's last step, no longer the last
        for _ in range(steps):
            phase, loss = self.step()
            i = self.step_index - 1
            if i % cfg.eval_every == 0 or i == end - 1:
                from .metrics import generator_output_entropy

                ent = generator_output_entropy(self.generator, self.process, 64,
                                               self.rng.child(10_000 + i))
                row = {"step": i, "phase": phase, "loss": loss,
                       "gen_output_entropy": ent, "eval_kl": float("nan")}
                if eval_fn is not None:
                    row["eval_kl"] = eval_fn(self)
                self.log_rows.append(row)
        return self.log_rows

    def _state_arrays(self) -> dict[str, np.ndarray]:
        return {"gen_values": self.generator.store.values,
                "aux_values": self.auxiliary.store.values,
                "gen_m": self.gen_opt.m, "gen_v": self.gen_opt.v,
                "aux_m": self.aux_opt.m, "aux_v": self.aux_opt.v}

    def save_state(self, path, config_key: str | None = None) -> None:
        """Write the resumable state, recording `config_key` if given."""
        rng = self.rng.state()
        log = {key: np.array([row[field] for row in self.log_rows])
               for field, key in LOG_ARRAYS.items()}
        key = {} if config_key is None else {"config_key": config_key}
        np.savez(path, step_index=self.step_index, **self._state_arrays(),
                 gen_step=self.gen_opt.step, aux_step=self.aux_opt.step,
                 rng_seed=rng["seed"], rng_path=np.asarray(rng["path"], dtype=np.int64),
                 rng_counter=rng["counter"], **log, **key)

    def load_state_file(self, path, config_key: str | None = None) -> None:
        """Restore a `save_state` file in place, the log included (a file
        written before the log was saved restores an empty one).

        Raises OSError, ValueError, KeyError or TypeError for a file that is
        not a state of these models, or that records a config key other than
        `config_key` (a file without one, or no `config_key`, skips that
        check), before changing anything.
        """
        with np.load(path) as z:
            state = {k: z[k] for k in z.files}
        if config_key is not None and str(state.get("config_key", config_key)) != config_key:
            raise ValueError(f"the state was written under another config "
                             f"(key {state['config_key']}, this config's {config_key})")
        targets = self._state_arrays()
        for key, dest in targets.items():
            if state[key].shape != dest.shape:
                raise ValueError(f"state {key} has shape {state[key].shape}, "
                                 f"the model needs {dest.shape}")
        rng = RngState.from_state({"seed": state["rng_seed"], "path": state["rng_path"],
                                   "counter": state["rng_counter"]})
        columns = ([state[key].tolist() for key in LOG_ARRAYS.values()]
                   if "log_step" in state else [])
        if len({len(col) for col in columns}) > 1:
            raise ValueError("the state's log arrays differ in length")
        log_rows = [dict(zip(LOG_ARRAYS, row)) for row in zip(*columns)]
        for key, dest in targets.items():
            dest[:] = state[key]
        self.step_index = int(state["step_index"])
        self.gen_opt.step = int(state["gen_step"])
        self.aux_opt.step = int(state["aux_step"])
        self.rng = rng
        self.log_rows = log_rows
