"""Round orchestration over a simulated network.

The global model update for round t is the dataset-size-weighted mean of
the surviving local weights,

    w_{t+1} = sum_i (n_i / n_total) * w_i^t,

with n_total recomputed over survivors each round. Aggregation runs in
plain mode (coordinator sees individual updates) or secure mode (pairwise
masking; coordinator sees only the sum).

Timing is a virtual clock: per-client compute, masking, and link latency
costs are simulated deterministically, so wall_time_ms and overhead ratios
reproduce exactly under a fixed seed. Dropouts are decided per
(seed, round, institution) before any masks are derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import secure_agg
from .dp import NoiseScale, PrivacyBudget, UpdatePrivatizer
from .errors import BudgetExhausted, ConfigurationError, ProtocolError, ShapeError
from .seeding import rng_for
from .tasks import (
    EvalMetrics,
    LocalDataset,
    ensure_vector,
    evaluate,
    local_train,
    local_train_stack,
)
from .wire import (
    COORDINATOR,
    PAYLOAD_CLIENT_UPDATE,
    PAYLOAD_GLOBAL_MODEL,
    PAYLOAD_MASKED_UPDATE,
    ClientUpdate,
    EventTrace,
)

AGG_PLAIN = "plain"
AGG_SECURE = "secure"


@dataclass(frozen=True)
class RoundConfig:
    round_index: int
    participating_ids: tuple[str, ...]
    local_epochs: int
    lr: float

    def __post_init__(self):
        if not self.participating_ids:
            raise ConfigurationError("participating_ids must be nonempty")
        if self.round_index < 0:
            raise ConfigurationError("round_index must be >= 0")
        if self.local_epochs < 0:
            raise ConfigurationError("local_epochs must be >= 0")
        if self.lr < 0:
            raise ConfigurationError("lr must be >= 0")


@dataclass(frozen=True)
class NetworkConfig:
    """Per-link latency model and dropout probability for the simulated network."""

    latency_ms: float = 10.0
    jitter_ms: float = 2.0
    drop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ConfigurationError("latency and jitter must be >= 0")
        if not (0.0 <= self.drop_probability < 1.0):
            raise ConfigurationError("drop_probability must lie in [0, 1)")


# Simulated compute costs in milliseconds, a modelling assumption: they keep
# masking a small fraction of training time at 20 institutions.
TRAIN_MS_PER_SAMPLE_EPOCH = 0.05
DP_MS_PER_COORD = 0.002
MASK_MS_PER_PAIR_COORD = 0.006
AGG_MS_PER_UPDATE_COORD = 0.002


def train_ms(n_samples: int, epochs: int) -> float:
    return TRAIN_MS_PER_SAMPLE_EPOCH * n_samples * max(epochs, 1)


@dataclass(frozen=True)
class RoundResult:
    global_model: np.ndarray
    metrics: EvalMetrics
    dropped_ids: frozenset[str]
    wall_time_ms: float
    round_index: int
    round_failed: bool = False


def weighted_average(updates: list[ClientUpdate]) -> np.ndarray:
    """Dataset-size-weighted mean of client updates: sum_i (n_i/n_total) w_i.

    Commutative in update order up to floating-point roundoff.
    """
    if not updates:
        raise ProtocolError("cannot aggregate an empty update list")
    dim = updates[0].dimension
    round_index = updates[0].round_index
    for u in updates:
        if u.dimension != dim:
            raise ShapeError(
                f"update from {u.institution_id} has dimension {u.dimension}, expected {dim}"
            )
        if u.round_index != round_index:
            raise ProtocolError("updates from different rounds cannot be aggregated")
    counts = np.array([u.n_i for u in updates], dtype=np.float64)
    stacked = np.stack([u.weights for u in updates])
    return (counts[:, None] * stacked).sum(axis=0) / counts.sum()


def train_clients(global_model, datasets_by_id: dict[str, LocalDataset], epochs: int,
                  lr: float, round_index: int, privatize=None) -> list[ClientUpdate]:
    """Local training from the broadcast model; then
    ``privatize(global_model, local, round_index, institution_id)`` if given.

    Institutions with equal n_i train as one group in a single
    local_train_stack call (groups in first-seen order; a lone institution
    goes through local_train, its one-dataset case). Every local model is
    bit-identical to training that institution alone, so grouping changes no
    result. Privatizing and the returned updates follow ``datasets_by_id``
    order.
    """
    groups: dict[int, list[str]] = {}
    for pid, data in datasets_by_id.items():
        groups.setdefault(data.n, []).append(pid)
    local_by_id = {}
    for pids in groups.values():
        if len(pids) == 1:
            local_by_id[pids[0]] = local_train(global_model, datasets_by_id[pids[0]],
                                               epochs, lr)
        else:
            stack = local_train_stack(global_model, [datasets_by_id[pid] for pid in pids],
                                      epochs, lr)
            local_by_id.update(zip(pids, stack))
    updates = []
    for pid, data in datasets_by_id.items():
        local = local_by_id[pid]
        if privatize is not None:
            local = privatize(global_model, local, round_index, pid)
        updates.append(ClientUpdate(pid, local, data.n, round_index))
    return updates


def charge_round(ledgers, ids, round_index: int, spend: PrivacyBudget,
                 scale: NoiseScale, recorder, abort: bool = True) -> int:
    """Charge and audit each institution in ``ids``; returns the denied count.

    With ``abort`` an exhausted budget raises BudgetExhausted (charges already
    made stay: the ledger is append-only); without it each denial is audited
    as a ``budget-denied`` policy decision.
    """
    denied = 0
    for pid in ids:
        ledger = ledgers.get(pid)
        if ledger is None:
            raise ConfigurationError(f"DP enabled but no ledger for {pid!r}")
        try:
            entry = ledger.charge(round_index, spend, scale)
        except BudgetExhausted:
            if abort:
                raise
            denied += 1
            if recorder is not None:
                recorder.record_policy_decision(
                    round_index, pid, "budget-denied", "charge past cap")
            continue
        if recorder is not None:
            recorder.record_budget_charge(round_index, pid, entry)
    return denied


@dataclass
class TrainingRun:
    results: list[RoundResult]
    status: str  # completed | budget-exhausted | round-failure
    final_model: np.ndarray
    halted_at_round: int | None = None
    exhausted_institution: str | None = None


class Federation:
    """Owns the datasets, network, virtual clock, and event trace for one run.

    Local training within a round runs through train_clients: one stacked
    descent per group of institutions with equal n_i, each row bit-identical
    to training that institution alone. Updates are always merged in
    institution-id order before aggregation, so the result does not depend
    on how institutions are grouped.
    """

    def __init__(
        self,
        datasets: dict[str, LocalDataset],
        eval_data: LocalDataset,
        net: NetworkConfig,
        session_seed: int,
        recorder=None,
    ):
        if not datasets:
            raise ConfigurationError("at least one institution dataset required")
        self.datasets = dict(datasets)
        self.eval_data = eval_data
        self.net = net
        self.session_seed = session_seed
        self.recorder = recorder  # audit hook: .record_budget_charge(...) etc.
        self.trace = EventTrace()
        self.clock_ms = 0.0
        self.ledgers = {}  # institution_id -> AccountantLedger, set by callers using DP

    # ------------------------------------------------------------------

    def _link_latency(self, round_index: int, institution_id: str, leg: str) -> float:
        jitter = 0.0
        if self.net.jitter_ms > 0:
            u = rng_for(self.net.seed, "jitter", round_index, institution_id, leg).random()
            jitter = self.net.jitter_ms * u
        return self.net.latency_ms + jitter

    def dropped_for_round(self, round_index: int, participating: tuple[str, ...]) -> frozenset[str]:
        """Dropouts are a deterministic function of (net.seed, round_index, id)."""
        if self.net.drop_probability == 0.0:
            return frozenset()
        dropped = set()
        for pid in participating:
            u = rng_for(self.net.seed, "drop", round_index, pid).random()
            if u < self.net.drop_probability:
                dropped.add(pid)
        return frozenset(dropped)

    # ------------------------------------------------------------------

    def run_round(
        self,
        global_model,
        cfg: RoundConfig,
        dp_policy: UpdatePrivatizer | None = None,
        agg_mode: str = AGG_PLAIN,
    ) -> RoundResult:
        """One federated round: broadcast, local training, optional DP and
        masking, aggregation, evaluation.

        Raises BudgetExhausted (ledger untouched for the failing charge) when
        DP is enabled and any institution cannot afford the round.
        """
        if agg_mode not in (AGG_PLAIN, AGG_SECURE):
            raise ConfigurationError(f"unknown agg_mode {agg_mode!r}")
        for pid in cfg.participating_ids:
            if pid not in self.datasets:
                raise ConfigurationError(f"no dataset for institution {pid!r}")
        global_model = ensure_vector(global_model, name="global_model")
        t0 = self.clock_ms
        r = cfg.round_index

        # dropouts happen before any masking, so cancellation is never broken
        dropped = self.dropped_for_round(r, cfg.participating_ids)
        survivors = sorted(set(cfg.participating_ids) - dropped)
        for pid in sorted(dropped):
            self.trace.record(t0, "drop", r, pid, COORDINATOR, note="link down")
        if not survivors:
            self.trace.record(t0, "round-result", r, COORDINATOR, COORDINATOR,
                              note="round failed: all clients dropped")
            return RoundResult(
                global_model=global_model.copy(),
                metrics=evaluate(global_model, self.eval_data),
                dropped_ids=dropped,
                wall_time_ms=0.0,
                round_index=r,
                round_failed=True,
            )

        dim = global_model.shape[0]
        n_total = sum(self.datasets[pid].n for pid in survivors)

        privatize = None
        if dp_policy is not None:
            charge_round(self.ledgers, survivors, r, dp_policy.spend_for_round(r),
                         dp_policy.scale, self.recorder)
            privatize = dp_policy.privatize
        updates = train_clients(global_model, {pid: self.datasets[pid] for pid in survivors},
                                cfg.local_epochs, cfg.lr, r, privatize)

        finish_times = {}
        for u in updates:
            pid = u.institution_id
            down = self._link_latency(r, pid, "down")
            self.trace.record(t0, "broadcast", r, COORDINATOR, pid, PAYLOAD_GLOBAL_MODEL)
            t = t0 + down + train_ms(u.n_i, cfg.local_epochs)
            self.trace.record(t, "local-train", r, pid, pid)
            if dp_policy is not None:
                t += DP_MS_PER_COORD * dim
                self.trace.record(t, "dp-apply", r, pid, pid,
                                  note=f"sigma={dp_policy.scale.sigma:.6g}")
            finish_times[pid] = t

        secure = agg_mode == AGG_SECURE
        if secure:
            masks = secure_agg.derive_pairwise_masks(survivors, r, self.session_seed, dim)
            masked_updates = []
        payload = PAYLOAD_MASKED_UPDATE if secure else PAYLOAD_CLIENT_UPDATE
        for u in updates:
            pid = u.institution_id
            t = finish_times[pid]
            if secure:
                scaled = ClientUpdate(pid, u.weights * (u.n_i / n_total), u.n_i, r)
                masked_updates.append(secure_agg.mask_update(scaled, masks[pid]))
                t += MASK_MS_PER_PAIR_COORD * (len(survivors) - 1) * dim
                self.trace.record(t, "mask", r, pid, pid)
            up = self._link_latency(r, pid, "up")
            self.trace.record(t, "send", r, pid, COORDINATOR, payload)
            self.trace.record(t + up, "receive", r, COORDINATOR, COORDINATOR, payload, note=pid)
            finish_times[pid] = t + up
        if secure:
            new_global = secure_agg.aggregate_masked(masked_updates, survivors)
        else:
            new_global = weighted_average(updates)

        t_agg = max(finish_times.values()) + AGG_MS_PER_UPDATE_COORD * len(survivors) * dim
        self.trace.record(t_agg, "aggregate", r, COORDINATOR, COORDINATOR,
                          note=f"mode={agg_mode} survivors={len(survivors)}")
        self.clock_ms = t_agg
        metrics = evaluate(new_global, self.eval_data)
        self.trace.record(t_agg, "round-result", r, COORDINATOR, COORDINATOR)
        return RoundResult(
            global_model=new_global,
            metrics=metrics,
            dropped_ids=dropped,
            wall_time_ms=t_agg - t0,
            round_index=r,
        )

    # ------------------------------------------------------------------

    def run_training(
        self,
        initial_model,
        rounds: int,
        local_epochs: int,
        lr: float,
        dp_policy: UpdatePrivatizer | None = None,
        agg_mode: str = AGG_PLAIN,
    ) -> TrainingRun:
        """Sequential rounds, each consuming the previous global model.

        Halts early with status "budget-exhausted" when any institution's
        ledger cannot afford a round.
        """
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        model = ensure_vector(initial_model, name="initial_model")
        ids = tuple(sorted(self.datasets))
        results: list[RoundResult] = []
        any_failed = False
        for r in range(rounds):
            cfg = RoundConfig(r, ids, local_epochs, lr)
            try:
                result = self.run_round(model, cfg, dp_policy, agg_mode)
            except BudgetExhausted as exc:
                return TrainingRun(results, "budget-exhausted", model,
                                   halted_at_round=r,
                                   exhausted_institution=exc.institution_id)
            results.append(result)
            model = result.global_model
            any_failed = any_failed or result.round_failed
        status = "round-failure" if any_failed else "completed"
        return TrainingRun(results, status, model)
