"""Property tests of the inference path and the model file."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from fuzzyrunoff.core import (
    Scheme,
    TsModel,
    dump_model,
    parse_model,
    predict,
    predict_batch,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
widths = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
any_float = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def models(draw, values=finite):
    n = draw(st.integers(1, 4))
    c = draw(st.integers(1, 5))

    def matrix(elements, cols):
        return [[draw(elements) for _ in range(cols)] for _ in range(c)]

    return TsModel(matrix(values, n), matrix(widths, n), matrix(values, n + 1))


schemes = st.one_of(
    st.none(),
    st.builds(Scheme, st.sampled_from(["gk", "fcm", "sc"]), st.integers(1, 100),
              st.integers(0, 100),
              st.one_of(st.none(), st.tuples(st.tuples(*[any_float] * 5),
                                             st.tuples(*[any_float] * 5)))),
)


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def v1_text(model: TsModel) -> str:
    """The model file as the v1 serialiser wrote it: no scheme lines."""
    fmt = lambda values: " ".join(repr(float(v)) for v in values)  # noqa: E731
    lines = ["format tsmodel-v1", f"input_dim {model.input_dim}",
             f"rule_count {model.rule_count}"]
    rows = zip(model.premise_means, model.premise_widths, model.consequents)
    for i, (means, widths, theta) in enumerate(rows):
        lines += [f"rule {i}", "means " + fmt(means), "widths " + fmt(widths),
                  "theta " + fmt(theta)]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(models(), st.data())
def test_single_row_equals_batch_bit_for_bit(model, data):
    rows = data.draw(st.integers(1, 12))
    X = np.array([[data.draw(finite) for _ in range(model.input_dim)] for _ in range(rows)])
    batch = predict_batch(model, X)
    for k in range(rows):
        assert bits(predict(model, X[k])) == bits(batch[k])


@settings(max_examples=200, deadline=None)
@given(models(values=any_float), schemes)
def test_model_file_roundtrip_is_bit_exact(model, scheme):
    model = replace(model, scheme=scheme)
    back = parse_model(dump_model(model))
    assert back.scheme == scheme
    for attr in ("premise_means", "premise_widths", "consequents"):
        assert bits(getattr(back, attr)) == bits(getattr(model, attr))
    if scheme is not None and scheme.normalization is not None:
        assert bits(back.scheme.normalization) == bits(scheme.normalization)


@settings(max_examples=200, deadline=None)
@given(models(values=any_float))
def test_v1_text_loads_to_the_same_parameters(model):
    back = parse_model(v1_text(model))
    assert back.scheme is None
    for attr in ("premise_means", "premise_widths", "consequents"):
        assert bits(getattr(back, attr)) == bits(getattr(model, attr))
