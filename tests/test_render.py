"""The json renderer writes exactly what json.dumps(payload, indent=2) wrote,
on generated payloads and on every subcommand's own payload."""

import json
import random

import numpy as np
import pytest

from logitkit.cli import (
    CsvSpec, RunOutput, cmd_curve, cmd_cv, cmd_fit, cmd_predict, cmd_pressq, cmd_test,
)


def reference_render(payload) -> str:
    """The json branch of RunOutput.render as it was before the renderer
    wrote containers through json's C encoder."""
    try:  # strict JSON: NaN and Infinity are written as null
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        loose = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        return json.dumps(loose, indent=2)


FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-7, 0.1, 2.5, 123456789.125,
          float("nan"), float("inf"), float("-inf")]
STRINGS = ["", "x", "intercept", "é", "日本", "\U0001f600", "\x00", "\x01\x1f", "tab\there",
           "line\nbreak", 'quote"d', "back\\slash", " ", "[", "]", "{,}", ": "]
KEYS = STRINGS + [0, -3, 2.5, True, False, None]


def scalar(rng: random.Random, finite: bool):
    kind = rng.randrange(6)
    if kind == 0:
        value = rng.choice(FLOATS)
        return value if not finite or np.isfinite(value) else rng.gauss(0.0, 1e3)
    if kind == 1:
        return rng.choice([rng.randint(-10**6, 10**6), 0, 1, 10**30, -(10**19)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(STRINGS)
    return rng.gauss(0.0, 10.0 ** rng.randint(-300, 300))


def value(rng: random.Random, depth: int, finite: bool):
    kind = rng.randrange(8) if depth < 4 else 0
    if kind <= 2:
        return scalar(rng, finite)
    size = rng.choice([0, 1, 2, 3, 5, rng.randint(0, 40)])
    if kind == 3:  # a long list of scalars, as predict's probabilities
        return [scalar(rng, finite) for _ in range(size)]
    if kind == 4:
        return tuple(value(rng, depth + 1, finite) for _ in range(size))
    if kind == 5:  # a list of dicts
        return [{rng.choice(KEYS): value(rng, depth + 2, finite) for _ in range(rng.randint(0, 3))}
                for _ in range(size)]
    if kind == 6:  # a table of short rows, as curve's rows
        return [[scalar(rng, finite) for _ in range(rng.randint(0, 3))] for _ in range(size)]
    return {rng.choice(KEYS): value(rng, depth + 1, finite) for _ in range(size)}


def payload(seed: int) -> dict:
    rng = random.Random(seed)
    finite = rng.random() < 0.5  # half the payloads take the strict path, half the null fallback
    return {rng.choice(STRINGS): value(rng, 0, finite) for _ in range(rng.randint(0, 6))}


def test_generated_payloads_render_byte_identically():
    paths = {"strict": 0, "null fallback": 0}
    for seed in range(600):
        data = payload(seed)
        assert RunOutput("json", data, "fit").render() == reference_render(data), seed
        try:
            json.dumps(data, allow_nan=False)
            paths["strict"] += 1
        except ValueError:
            paths["null fallback"] += 1
    assert min(paths.values()) >= 60, paths


@pytest.mark.parametrize("data", [
    {}, {"a": []}, {"a": {}}, {"a": [[]]}, {"a": [{}]}, {"a": ()}, {"a": [[], [1], {}]},
    {"a": {"b": {"c": [1, {"d": [None]}]}}}, {"n": float("nan")}, {"n": [1.0, float("-inf")]},
    {"k": {float("nan"): 1}}, {"k": {1: [1], True: [2], None: [3], 2.5: [4]}},
], ids=repr)
def test_edge_payloads_render_byte_identically(data):
    assert RunOutput("json", data, "fit").render() == reference_render(data)


CV_FIXTURE = """y,thickness,area
0,0.932322,-0.134842
0,-1.097771,1.209314
0,-1.520061,-0.365906
0,0.087537,-0.673526
0,-0.312201,0.651751
0,0.101883,2.118328
0,-0.174710,-0.053022
0,1.177655,1.034070
1,2.557064,0.536540
1,1.856353,-0.251036
1,0.904843,0.196385
1,1.627573,1.964091
1,1.016507,0.730493
1,2.166560,0.182080
"""


def collapsed_fit_table() -> str:
    """Separable data whose fit ends Diverged with every standard error NaN."""
    rng = np.random.default_rng(31)
    x = rng.normal(size=(30, 2))
    y = (x @ rng.normal(size=2) > 0).astype(float)
    x, y = np.delete(x, 22, axis=0).tolist(), np.delete(y, 22).tolist()
    return "y,a,b\n" + "".join(f"{yi!r},{a!r},{b!r}\n" for yi, (a, b) in zip(y, x))


def test_every_subcommand_payload_renders_byte_identically(tmp_path):
    fixture = tmp_path / "cv.csv"
    fixture.write_text(CV_FIXTURE, encoding="utf-8")
    collapsed = tmp_path / "collapsed.csv"
    collapsed.write_text(collapsed_fit_table(), encoding="utf-8")
    fit = cmd_fit(CsvSpec(str(fixture)))
    model = tmp_path / "model.json"
    model.write_text(fit.render(), encoding="utf-8")
    outputs = [
        fit,
        cmd_fit(CsvSpec(str(collapsed))),
        cmd_test(CsvSpec(str(fixture)), ["thickness"]),
        cmd_cv(CsvSpec(str(fixture))),
        cmd_pressq(28, 0.85),
        cmd_curve(28),
        cmd_curve(5, 7),
        cmd_predict(str(model), str(fixture)),
    ]
    # the collapsed fit's NaN standard errors take the null fallback
    assert "NaN" in json.dumps(outputs[1].payload)
    for output in outputs:
        assert output.render() == reference_render(output.payload), output.kind
