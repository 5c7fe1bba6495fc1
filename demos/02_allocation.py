"""Solve the per-client module selection knapsack.

Each client gets a memory budget and a value per adapter module; the greedy
solver packs the most valuable affordable subset, recomputing marginal
memory weights as the map grows. Compared against the naive baselines on
the same budgets.
"""

import numpy as np

from fedlorasim import (
    GB,
    MB,
    VIT_CONTEXT_MB_BY_LEVEL,
    AllocationMap,
    KnapsackInstance,
    naive_map,
    optimize_allocation,
    reference_vit_profile,
    total_memory,
)

profile = reference_vit_profile(VIT_CONTEXT_MB_BY_LEVEL[2] * MB)
l = profile.num_blocks
batch = 496

# Module values as an information-gain profile might produce them: deeper
# blocks a bit more useful on average, with some per-block texture.
rng = np.random.default_rng(7)
values = np.linspace(0.4, 1.0, l) * rng.uniform(0.6, 1.4, size=l)
print("module values:", np.array2string(values, precision=2))
print()

budgets_gb = [12, 18, 24, 32]
for budget in budgets_gb:
    capacity = budget * GB
    inst = KnapsackInstance(profile=profile, capacity_bytes=capacity,
                            batch=batch, values=tuple(values))
    [res] = optimize_allocation([inst])
    used = res.memory.total_bytes
    print(f"budget {budget:2d} GB -> map {res.map.to_bitstring()}  "
          f"value {res.total_value:5.2f}  used {used / 1e9:6.2f} GB "
          f"({used / capacity:5.1%} of budget)")
    for step in res.selection_trace:
        print(f"    step {step.step}: block {step.block:2d}  "
              f"+{step.raw_weight_bytes / 1e9:6.3f} GB  ratio {step.ratio:.2e}")
print()

# The naive rules on the same budgets. The last-u family is competitive on
# bytes but blind to values; the first-u family pays the full static tail.
print("budget   greedy value   last-u value   first-u value")
for budget in budgets_gb:
    capacity = budget * GB
    [greedy] = optimize_allocation([
        KnapsackInstance(profile=profile, capacity_bytes=capacity,
                         batch=batch, values=tuple(values))
    ])

    def best_naive(kind):
        best = 0.0
        for u in range(0, l + 1):
            amap = naive_map(l, kind, u)
            if total_memory(profile, amap, batch).total_bytes <= capacity:
                v = sum(values[j] for j in amap.trainable_indices)
                best = max(best, v)
        return best

    print(f"{budget:4d} GB   {greedy.total_value:10.2f}   {best_naive('ms'):11.2f}   {best_naive('mh'):12.2f}")
print()

# Uniform values degrade gracefully: selection then ranks by weight alone
# and packs deep blocks first, which never extend the static range.
[flat] = optimize_allocation([
    KnapsackInstance(profile=profile, capacity_bytes=24 * GB, batch=batch,
                     values=(1.0,) * l)
])
print("uniform values, 24 GB:", flat.map.to_bitstring(),
      "picked", [s.block for s in flat.selection_trace])
