"""The benchmark's workloads: one generated ``privfed run`` config each.

The workload seed becomes the config's ``seed``; every other key is fixed,
so the amount of work does not depend on the seed and only the drawn data,
noise and masks do. Each workload names ``rounds`` and
``institutions.count`` itself, because the correctness checks count events
against them.
"""

from __future__ import annotations

# DP budgets: at the default epsilon of 4 over 2 rounds, DP noise makes the
# final accuracy swing with the seed (its quartile spread over seeds 1-10 is
# 23% of the median with 16 institutions). A larger budget steadies it while
# every ledger row still meets the analytic Gaussian bound (6 per round at
# delta 5e-4 gives delta 1.9e-4; 8 per round would give 5.9e-4 and fail).

# Unequal institution sizes for deep-plain (sum 80,000). Any padding that a
# batched training engine adds to reach the largest set shows as extra work.
DEEP_PLAIN_SIZES = (20000, 16000, 12000, 10000, 8000, 6000, 5000, 3000)

WORKLOADS: dict[str, dict[str, object]] = {
    # Mask derivation (n(n-1)/2 pairs per round) and proofs that each carry
    # the whole header chain (O(institutions x chain)) dominate; local sets
    # of 30 samples keep training light.
    "wide-secure": {
        "task.num_samples": 6000,
        "institutions.count": 200,
        "rounds": 2,
        "dp.enabled": "true",
        "dp.epsilon": 8.0,
        "policy.max_epsilon": 8.0,
        "agg.mode": "secure",
        "attack.enabled": "false",
        "governance.enabled": "false",
    },
    # Local training and evaluation on large matrices dominate and
    # secure_agg is never called: the non-private baseline, where a gain in
    # masking or proofs must show no change. The 20,000-row evaluation split
    # is task.num_samples // 4. The partition is iid: under label-skew the
    # cost of tasks._sigmoid's masked indexing follows each institution's
    # seed-drawn class balance, and training time swings by 1.5x with the seed.
    "deep-plain": {
        "task.feature_dim": 16,
        "task.num_samples": sum(DEEP_PLAIN_SIZES),
        "institutions.count": len(DEEP_PLAIN_SIZES),
        "institutions.partition": "iid",
        "institutions.sizes": ",".join(str(n) for n in DEEP_PLAIN_SIZES),
        "rounds": 4,
        "local_epochs": 60,
        "lr": 1.0,
        "dp.enabled": "false",
        "agg.mode": "plain",
        "attack.enabled": "true",
        "governance.enabled": "false",
    },
    # The default 16-institution secure DP run plus 100 governance episodes:
    # thousands of tiny local_train calls, generators and audit appends, so
    # per-call overhead dominates; governance.chain is the long chain read.
    "governed": {
        "institutions.count": 16,
        "rounds": 2,
        "dp.enabled": "true",
        "dp.epsilon": 12.0,
        "policy.max_epsilon": 12.0,
        "agg.mode": "secure",
        "governance.enabled": "true",
        "governance.episodes": 100,
    },
}


def config_text(workload: str, seed: int) -> str:
    """The ``key=value`` config file for one workload and seed."""
    keys = dict(WORKLOADS[workload])
    keys["seed"] = int(seed)
    return "".join(f"{key}={value}\n" for key, value in keys.items())
