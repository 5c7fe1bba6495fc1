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
    apply_delta,
    generate,
    local_ig_scores,
    local_train,
    naive_map,
)

l, h, r = 8, 16, 2

task = SyntheticTask.make(num_classes=5, feature_dim=16, samples_per_class=200,
                          noise_scale=1.0, center_scale=3.0, seed=0)
train, test = generate(task, seed=0)
print(f"synthetic task: {len(train)} train / {len(test)} test samples, "
      f"{task.num_classes} classes")
print()

# Same initial net, three allocation maps, same data and schedule: one
# lockstep group of three clients, given in pass order (by earliest trained
# block: 0, 3, 4), whose inputs the net stacks into one group input.
# local_train takes it and the (clients, rows) labels, leaves the net as it
# was and returns each client's adapter deltas, stacked over all blocks with
# zeros on the blocks its map does not train.
maps = {
    "all blocks": naive_map(l, "full"),
    "block 3 only": AllocationMap.from_indices(l, [3]),
    "last half": naive_map(l, "ms", l // 2),
}
net = ToyLoRANet(num_blocks=l, hidden_size=h, lora_rank=r,
                 input_dim=16, num_classes=5, lora_alpha=None, seed=0)
before_loss, before_acc = net.evaluate(test.X, test.y)
inputs = net.group_input([train.X] * 3, list(maps.values()))
group = local_train(net, inputs, np.stack([train.y] * 3), epochs=3, batch_size=32, lr=0.2,
                    rng=[np.random.default_rng(0) for _ in maps])
for (name, amap), deltas in zip(maps.items(), group):
    trained = net.clone()
    trained.set_lora_state(apply_delta(net.get_lora_state(), deltas))
    after_loss, after_acc = trained.evaluate(test.X, test.y)
    norm = float((deltas.N ** 2).sum() + (deltas.M ** 2).sum())
    print(f"{name:13s} [{amap.to_bitstring()}]  "
          f"acc {before_acc:.3f} -> {after_acc:.3f}  "
          f"loss {before_loss:.3f} -> {after_loss:.3f}  "
          f"delta norm^2 {norm:.4f}")
print()

# Gradient scores on a probe subset, two batches of 32 rows given as (clients,
# rows) indices into the group input: squared adapter gradient norms per
# block, the raw material for the allocation value function. Scored on the
# trained net so the numbers reflect what is still left to learn.
full = naive_map(l, "full")
deltas, = local_train(net, net.group_input([train.X], [full]), train.y[None], epochs=1,
                      batch_size=32, lr=0.2, rng=[np.random.default_rng(1)])
net.set_lora_state(apply_delta(net.get_lora_state(), deltas))
probe = [np.arange(0, 32)[None], np.arange(32, 64)[None]]
scores, = local_ig_scores(net, net.group_input([train.X], [full]), train.y[None], probe)
print("block  gradient score")
for j in sorted(scores):
    bar = "#" * int(round(40 * scores[j] / max(scores.values())))
    print(f"{j:5d}  {scores[j]:10.6f}  {bar}")
print()

# Scoring respects the map: frozen blocks never appear.
partial = AllocationMap.from_indices(l, [2, 6])
print("scored blocks under map", partial.to_bitstring(), ":",
      sorted(local_ig_scores(net, net.group_input([train.X], [partial]), train.y[None],
                             probe)[0]))
