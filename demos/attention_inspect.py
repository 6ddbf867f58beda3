"""Look at both frame-level attention mechanisms on controlled inputs.

The CNN variant turns a pooled feature map into a per-frame weighting that
sums to 1; the RNN variant convexly combines GRU steps into one vector.
"""

import numpy as np

from esckit import model as acrnn
from esckit.autodiff import Tensor

rng = np.random.default_rng(0)

# CNN attention: an energy burst in a few frames earns them the weight
m = np.full((1, 8, 12, 3), 0.1, dtype=np.float32)  # a batch of one map
m[:, :, 5:7, :] = 3.0  # frames 5-6 are loud
kernel = Tensor(np.full((3, 3, 3, 1), 0.2, np.float32))
weights = acrnn.cnn_attention_weights(Tensor(m), kernel).data.reshape(-1)
print("CNN attention over 12 frames (burst at frames 5-6):")
print("  " + " ".join(f"{w:.3f}" for w in weights), f"(sum {weights.sum():.6f})")

weighted = acrnn.cnn_attention(Tensor(m), kernel).data
print(f"  weighted map keeps shape {weighted.shape}; column 5 scaled by {weights[5]:.3f}")

# with a zero kernel the scores are flat and the map is uniform 1/T
uniform = acrnn.cnn_attention_weights(Tensor(m),
                                      Tensor(np.zeros((3, 3, 3, 1), np.float32))).data.reshape(-1)
print(f"  zero-kernel map is uniform: {np.allclose(uniform, 1 / 12)}")

# RNN attention: one step that excites the context vector dominates the sum
config = acrnn.ACRNNConfig(num_classes=2, conv_channels=(2, 2, 3, 3, 4, 4, 5, 5),
                           gru_hidden=4, input_bands=32, input_frames=32)
params = acrnn.build(config, seed=1)
for name in ("att.w1", "att.b1", "att.ctx"):
    t = params.tensors[name]
    t.data = rng.standard_normal(t.shape).astype(np.float32)

h = 0.1 * rng.standard_normal((7, 8)).astype(np.float32)
h[3] = 2.0 * rng.standard_normal(8).astype(np.float32)  # a salient step
beta = acrnn.rnn_attention_weights(Tensor(h), params).data
v = acrnn.rnn_attention(Tensor(h), params).data
print("\nRNN attention over 7 GRU steps (step 3 salient):")
print("  beta =", " ".join(f"{b:.3f}" for b in beta), f"(sum {beta.sum():.6f})")
print(f"  pooled vector stays inside the per-coordinate hull of the steps: "
      f"{bool(np.all(v >= h.min(axis=0) - 1e-6) and np.all(v <= h.max(axis=0) + 1e-6))}")

single = rng.standard_normal((1, 8)).astype(np.float32)
print(f"  a single step is returned exactly: "
      f"{np.array_equal(acrnn.rnn_attention(Tensor(single), params).data, single[0])}")
