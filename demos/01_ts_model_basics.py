"""A Takagi-Sugeno model by hand.

Two rules over one input: a "low" regime around x = 0 and a "high" regime
around x = 10, each with its own affine output.  The model output blends the
two lines with the rule firing strengths.
"""

import numpy as np

from fuzzyrunoff import TsModel, predict, predict_batch
from fuzzyrunoff.core import dump_model, firing_matrix, parse_model

# one row per rule (low, high): Gaussian premise mean and width per input,
# then the affine consequent, intercept first
model = TsModel(premise_means=[[0.0], [10.0]], premise_widths=[[1.5], [1.5]],
                consequents=[[2.0, 0.5], [-3.0, 1.5]])

# one row per input sample, one column per rule (low, high)
firing = firing_matrix(model, [[1.0]])[0]
# each rule's line at x = 1: intercept plus slope times x
lines = model.consequents @ [1.0, 1.0]
print("membership of x=1 in the low rule:", firing[0])
print("low-rule line at x=1: ", lines[0])
print("high-rule line at x=1:", lines[1])
print()

# near a premise the model follows that rule's line; in between it blends
for x in (0.0, 1.0, 5.0, 9.0, 10.0):
    print(f"predict({x:4.1f}) = {predict(model, [x]):8.4f}")
print()

xs = np.linspace(-2.0, 12.0, 8)[:, None]
print("batch prediction over a grid:")
print(np.column_stack([xs, predict_batch(model, xs)[:, None]]).round(4))
print()

# serialisation round-trips every parameter bit-exactly
text = dump_model(model)
print("serialised form:")
print(text)
back = parse_model(text)
assert np.array_equal(back.consequents, model.consequents)
print("round-trip exact:", np.array_equal(back.premise_means, model.premise_means))
