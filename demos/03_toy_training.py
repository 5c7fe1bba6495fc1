"""Train the toy adapter network locally under different allocation maps.

The model is a chain of tanh blocks with frozen base weights and low-rank
adapter pairs. Only blocks marked in the allocation map learn; gradient
scores over a small probe set then say which blocks were worth training.
"""

import numpy as np

from fedlorasim import (
    AllocationMap,
    SyntheticTask,
    ToyLoRANet,
    generate,
    local_ig_scores,
    local_train,
    naive_map,
    split_batches,
)

l, h, r = 8, 16, 2

task = SyntheticTask.make(num_classes=5, feature_dim=16, samples_per_class=200,
                          noise_scale=1.0, center_scale=3.0, seed=0)
train, test = generate(task, seed=0)
print(f"synthetic task: {len(train)} train / {len(test)} test samples, "
      f"{task.num_classes} classes")
print()

# Same initial net, three allocation maps, same data and schedule.
maps = {
    "all blocks": naive_map(l, "full"),
    "last half": naive_map(l, "ms", l // 2),
    "block 3 only": AllocationMap.from_indices(l, [3]),
}
for name, amap in maps.items():
    net = ToyLoRANet(num_blocks=l, hidden_size=h, lora_rank=r,
                     input_dim=16, num_classes=5, lora_alpha=None, seed=0)
    before_loss, before_acc = net.evaluate(test.X, test.y)
    deltas = local_train(net, train.X, train.y, amap, epochs=3,
                         batch_size=32, lr=0.2,
                         rng=np.random.default_rng(0))
    after_loss, after_acc = net.evaluate(test.X, test.y)
    norm = sum(float((dn * dn).sum() + (dm * dm).sum()) for dn, dm in deltas.values())
    print(f"{name:13s} [{amap.to_bitstring()}]  "
          f"acc {before_acc:.3f} -> {after_acc:.3f}  "
          f"loss {before_loss:.3f} -> {after_loss:.3f}  "
          f"delta norm^2 {norm:.4f}")
print()

# Gradient scores on a probe subset: squared adapter gradient norms per
# block, the raw material for the allocation value function. Scored on the
# trained net so the numbers reflect what is still left to learn.
net = ToyLoRANet(num_blocks=l, hidden_size=h, lora_rank=r,
                 input_dim=16, num_classes=5, lora_alpha=None, seed=0)
local_train(net, train.X, train.y, naive_map(l, "full"), epochs=1,
            batch_size=32, lr=0.2, rng=np.random.default_rng(1))
probe = split_batches(train.X[:64], train.y[:64], 32)
scores = local_ig_scores(net, naive_map(l, "full"), probe)
print("block  gradient score")
for j in sorted(scores):
    bar = "#" * int(round(40 * scores[j] / max(scores.values())))
    print(f"{j:5d}  {scores[j]:10.6f}  {bar}")
print()

# Scoring respects the map: frozen blocks never appear.
partial = AllocationMap.from_indices(l, [2, 6])
print("scored blocks under map", partial.to_bitstring(), ":",
      sorted(local_ig_scores(net, partial, probe)))
