"""Validation and serialization behavior of the core model types."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from projclt.errors import InvalidSpec
from projclt.model import (
    BodyKind,
    BodySpec,
    ConvolutionSchedule,
    DensityEstimate,
    GaussianSpec,
    RadialDensity,
    RatioReport,
    SubspaceBasis,
    _REGISTRY,
    dumps,
    from_jsonable,
    loads,
    to_jsonable,
)


# ---------------------------------------------------------------- BodyKind


def test_body_kind_parse_aliases():
    assert BodyKind.parse("laplace") is BodyKind.PRODUCT_LAPLACE
    assert BodyKind.parse("standard_gaussian") is BodyKind.STANDARD_GAUSSIAN
    assert BodyKind.parse("CUBE") is BodyKind.CUBE
    assert BodyKind.parse(BodyKind.BALL) is BodyKind.BALL


def test_body_kind_parse_rejects_unknown():
    with pytest.raises(InvalidSpec, match="unknown body kind"):
        BodyKind.parse("dodecahedron")


@pytest.mark.parametrize("bad_dim", [0, -3, 2.5, True])
def test_body_spec_rejects_bad_dimension(bad_dim):
    with pytest.raises(InvalidSpec):
        BodySpec(kind="cube", dimension=bad_dim)


def test_body_spec_parses_kind_string():
    spec = BodySpec(kind="laplace", dimension=7)
    assert spec.kind is BodyKind.PRODUCT_LAPLACE
    assert spec.dimension == 7


# ------------------------------------------------------------- GaussianSpec


@pytest.mark.parametrize("bad_v", [0.0, -1.0, math.nan, math.inf])
def test_gaussian_spec_rejects_bad_variance(bad_v):
    with pytest.raises(InvalidSpec):
        GaussianSpec(dimension=3, variance=bad_v)


def test_gaussian_spec_accepts_tiny_variance():
    assert GaussianSpec(dimension=1, variance=1e-300).variance == 1e-300


# ------------------------------------------------------- ConvolutionSchedule


def test_schedule_lambda_is_exact():
    s = ConvolutionSchedule(alpha=10.0)
    assert s.lambda_ == 1.0 / 70.0


def test_schedule_noise_variance_closed_form():
    s = ConvolutionSchedule(alpha=10.0)
    # alpha * lambda = 1/7 exactly in floating point, so the variance is n^(-1/7).
    assert s.noise_variance(100) == 100.0 ** (-1.0 / 7.0)
    assert math.isclose(s.noise_variance(100), 0.5179474679231212, rel_tol=1e-14)


def test_schedule_noise_variance_decreases_with_n():
    s = ConvolutionSchedule(alpha=3.0)
    vs = [s.noise_variance(n) for n in (2, 10, 100, 10_000)]
    assert vs == sorted(vs, reverse=True)
    assert all(0 < v < 1 for v in vs)


@pytest.mark.parametrize("bad_alpha", [0.0, -1.0, 1e5, 2e5, math.nan])
def test_schedule_rejects_out_of_range_alpha(bad_alpha):
    with pytest.raises(InvalidSpec):
        ConvolutionSchedule(alpha=bad_alpha)


@pytest.mark.parametrize("alpha", [True, "10", None])
def test_schedule_rejects_an_alpha_that_is_not_a_number(alpha):
    with pytest.raises(InvalidSpec, match="alpha must be a number"):
        ConvolutionSchedule(alpha)


def test_schedule_serialized_lambda_is_checked():
    payload = to_jsonable(ConvolutionSchedule(alpha=10.0))
    assert payload["lambda"] == 1.0 / 70.0
    payload["lambda"] = 0.3
    with pytest.raises(InvalidSpec):
        from_jsonable(payload)


# ------------------------------------------------------------ SubspaceBasis


def test_subspace_basis_accepts_orthonormal_rows():
    basis = SubspaceBasis(rows=np.eye(4)[:2])
    assert basis.ambient_dim == 4
    assert basis.subspace_dim == 2


def test_subspace_basis_rejects_non_orthonormal():
    with pytest.raises(InvalidSpec, match="not orthonormal"):
        SubspaceBasis(rows=np.array([[1.0, 1.0]]))


def test_subspace_basis_rejects_too_many_rows():
    with pytest.raises(InvalidSpec):
        SubspaceBasis(rows=np.eye(3, 2))


def test_subspace_basis_gram_tolerance_boundary():
    # Row norm 1 + 4e-11 keeps the Gram deviation inside the 1e-10 window;
    # 1 + 6e-11 pushes it out.
    SubspaceBasis(rows=np.array([[1.0 + 4e-11, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidSpec):
        SubspaceBasis(rows=np.array([[1.0 + 6e-11, 0.0], [0.0, 1.0]]))


def test_subspace_basis_round_trip_checks_dims():
    payload = to_jsonable(SubspaceBasis(rows=np.eye(3)[:1]))
    payload["ambient_dim"] = 5
    with pytest.raises(InvalidSpec):
        from_jsonable(payload)


# ------------------------------------------------------------ RadialDensity


def test_radial_density_chi_form():
    g = RadialDensity.closed_form_chi(100)
    assert g.form == "chi"
    assert g.chi_dim == 100
    with pytest.raises(InvalidSpec):
        RadialDensity(form="chi", chi_dim=0)
    with pytest.raises(InvalidSpec):
        RadialDensity(form="spline", chi_dim=3)


# ---------------------------------------------------------- DensityEstimate


def _estimate(**overrides):
    kwargs = dict(
        points=np.array([[0.0], [1.0]]),
        values=np.array([0.4, 0.2]),
        stderr=np.array([0.01, 0.01]),
        sample_count=100,
        bandwidth=0.1,
    )
    kwargs.update(overrides)
    return DensityEstimate(**kwargs)


def test_density_estimate_accepts_consistent_fields():
    est = _estimate()
    assert est.dim == 1
    assert est.points.flags.writeable is False


@pytest.mark.parametrize(
    "overrides",
    [
        {"values": np.array([0.4])},
        {"stderr": np.array([0.01, 0.01, 0.01])},
        {"values": np.array([-0.1, 0.2])},
        {"stderr": np.array([-0.01, 0.01])},
        {"bandwidth": 0.0},
        {"sample_count": 0},
    ],
)
def test_density_estimate_rejects_inconsistencies(overrides):
    with pytest.raises(InvalidSpec):
        _estimate(**overrides)


# -------------------------------------------------------------- RatioReport


def _report(grid, ratios, **meta):
    return RatioReport(radius_grid=grid, per_point_ratios=ratios, meta=meta)


def test_ratio_report_derives_its_sup():
    rep = _report([0.0, 1.0, 2.0], [1.0, 0.9, 1.25])
    assert rep.sup_abs_deviation == 0.25


def test_ratio_report_rejects_tampered_sup():
    payload = to_jsonable(_report([0.0, 1.0], [1.0, 1.1]))
    payload["sup_abs_deviation"] = 0.5
    with pytest.raises(InvalidSpec, match="sup_abs_deviation"):
        from_jsonable(payload)


def test_ratio_report_rejects_empty_grid():
    with pytest.raises(InvalidSpec):
        _report([], [])


# ------------------------------------------------------- registry round trips


def test_from_jsonable_rejects_untagged_payloads():
    with pytest.raises(InvalidSpec):
        from_jsonable({"kind": "cube"})
    with pytest.raises(InvalidSpec):
        from_jsonable(42)
    with pytest.raises(InvalidSpec, match="unknown serialized type"):
        from_jsonable({"type": "tetrahedron"})


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_loads_rejects_non_finite_json_constants(constant):
    # RatioReport.meta is free-form, so only the parser can keep these out.
    text = dumps(_report([0.0, 0.5], [1.01, 0.98], v=1.5))
    with pytest.raises(InvalidSpec, match=f"JSON constant {constant} is not a finite number"):
        loads(text.replace("1.5", constant))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
@pytest.mark.parametrize(
    "where, key",
    [
        ("meta", "meta.v"),
        ("meta_list", "meta.window[1]"),
        ("ratios", "per_point_ratios[1]"),
        ("nested", "certificate.params.alpha"),
    ],
)
def test_from_jsonable_rejects_non_finite_floats_naming_the_key(bad, where, key):
    # Payloads built in Python never pass the JSON parser's constant hook.
    from projclt.deconvolution import DeconvParams, verify_sandwich

    if where == "nested":
        params = DeconvParams(n=2, alpha=1e-24, beta=0.5, epsilon=0.005, hypothesis_radius=3.0)
        payload = to_jsonable(verify_sandwich("uniform", params))
        payload["certificate"]["params"]["alpha"] = bad
    else:
        payload = to_jsonable(_report([0.0, 0.5], [1.01, 0.98], v=1.5, window=[0.0, 2.0]))
        if where == "meta":
            payload["meta"]["v"] = bad
        elif where == "meta_list":
            payload["meta"]["window"][1] = bad
        else:
            payload["per_point_ratios"][1] = bad
    with pytest.raises(InvalidSpec, match=rf"serialized key '{re.escape(key)}' holds the non-finite"):
        from_jsonable(payload)


def test_to_jsonable_rejects_foreign_objects():
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_dumps_emits_plain_json():
    text = dumps(BodySpec(kind="ball", dimension=12))
    assert json.loads(text) == {"type": "body_spec", "kind": "ball", "dimension": 12}


@given(
    kind=st.sampled_from([k.value for k in BodyKind]),
    dim=st.integers(min_value=1, max_value=10_000),
)
def test_body_spec_round_trip(kind, dim):
    spec = BodySpec(kind=kind, dimension=dim)
    back = loads(dumps(spec))
    assert back.kind is spec.kind and back.dimension == spec.dimension


@given(alpha=st.floats(min_value=1e-3, max_value=9e4))
def test_schedule_round_trip(alpha):
    s = ConvolutionSchedule(alpha=alpha)
    back = loads(dumps(s))
    assert back.alpha == s.alpha and back.lambda_ == s.lambda_


@given(
    dim=st.integers(min_value=1, max_value=500),
    variance=st.floats(min_value=1e-6, max_value=1e3),
)
def test_gaussian_spec_round_trip(dim, variance):
    s = GaussianSpec(dimension=dim, variance=variance)
    back = loads(dumps(s))
    assert back.dimension == s.dimension and back.variance == s.variance


def test_ratio_report_round_trip_preserves_meta():
    rep = _report([0.0, 0.5], [1.01, 0.98], n=100, l=1)
    back = loads(dumps(rep))
    assert back.meta == {"n": 100, "l": 1}
    assert back.sup_abs_deviation == rep.sup_abs_deviation


# ----------------------------------------------------------- golden JSON text


def _golden_values():
    from projclt.deconvolution import DeconvCertificate, DeconvParams, SandwichReport
    from projclt.samplers import SampleBatch
    from projclt.spherical import KernelParams

    params = DeconvParams(n=8, alpha=1e-28, beta=0.5, epsilon=0.005, hypothesis_radius=10.0)
    admissible = DeconvCertificate(params)
    cube3 = {"type": "body_spec", "kind": "cube", "dimension": 3}
    return {
        "body_spec": BodySpec(kind="laplace", dimension=3),
        "gaussian_spec": GaussianSpec(dimension=2, variance=0.5),
        "convolution_schedule": ConvolutionSchedule(alpha=10.0),
        "subspace_basis": SubspaceBasis(rows=[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]),
        "radial_density_chi": RadialDensity.closed_form_chi(5),
        "density_estimate": DensityEstimate(
            points=[[0.0], [0.5]], values=[0.4, 0.35], stderr=[0.01, 0.02],
            sample_count=10000, bandwidth=0.1,
        ),
        "ratio_report": _report([0.0, 1.0], [1.0, 1.25], l=1, body=cube3),
        "deconv_certificate": admissible,
        "sample_batch": SampleBatch(
            data=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
            seed={"entropy": 7, "spawn_key": [1]},
            source={"draw": "body", "spec": cube3},
        ),
        "deconv_params": params,
        "sandwich_report": SandwichReport(
            body="uniform", status="hypothesis_not_met", certificate=admissible, hypothesis_sup=0.25
        ),
        "kernel_params": KernelParams(n=5, l=2, r=1.5),
    }


_PARAMS_JSON = (
    '{"type": "deconv_params", "n": 8, "alpha": 1e-28, "beta": 0.5, "epsilon": 0.005, '
    '"hypothesis_radius": 10.0, "c0": 0.01}'
)
_ADMISSIBLE_JSON = (
    '{"type": "deconv_certificate", "admissible": true, "violated_conditions": [], '
    '"lower_radius": 4.0, "upper_radius": 1.0, "lower_factor": 0.97, "upper_factor": 1.04, '
    '"params": ' + _PARAMS_JSON + "}"
)
_CUBE3_JSON = '{"type": "body_spec", "kind": "cube", "dimension": 3}'

GOLDEN_JSON = {
    "body_spec": '{"type": "body_spec", "kind": "product_laplace", "dimension": 3}',
    "gaussian_spec": '{"type": "gaussian_spec", "dimension": 2, "variance": 0.5}',
    "convolution_schedule": (
        '{"type": "convolution_schedule", "alpha": 10.0, "lambda": 0.014285714285714285}'
    ),
    "subspace_basis": (
        '{"type": "subspace_basis", "ambient_dim": 3, "subspace_dim": 2, '
        '"rows": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]}'
    ),
    "radial_density_chi": '{"type": "radial_density", "form": "chi", "chi_dim": 5}',
    "density_estimate": (
        '{"type": "density_estimate", "points": [[0.0], [0.5]], "values": [0.4, 0.35], '
        '"stderr": [0.01, 0.02], "sample_count": 10000, "bandwidth": 0.1}'
    ),
    "ratio_report": (
        '{"type": "ratio_report", "radius_grid": [0.0, 1.0], "per_point_ratios": [1.0, 1.25], '
        '"sup_abs_deviation": 0.25, "meta": {"l": 1, "body": ' + _CUBE3_JSON + "}}"
    ),
    "deconv_certificate": _ADMISSIBLE_JSON,
    "sample_batch": (
        '{"type": "sample_batch", "dimension": 2, "count": 3, '
        '"seed": {"entropy": 7, "spawn_key": [1]}, '
        '"source": {"draw": "body", "spec": ' + _CUBE3_JSON + "}, "
        '"data": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]}'
    ),
    "deconv_params": _PARAMS_JSON,
    "sandwich_report": (
        '{"type": "sandwich_report", "body": "uniform", "status": "hypothesis_not_met", '
        '"certificate": ' + _ADMISSIBLE_JSON + ', "hypothesis_sup": 0.25, '
        '"lower_margin_min": null, "upper_margin_min": null}'
    ),
    "kernel_params": '{"type": "kernel_params", "n": 5, "l": 2, "r": 1.5}',
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_golden_json_text(name):
    value = _golden_values()[name]
    text = GOLDEN_JSON[name]
    assert dumps(value) == text
    assert value.to_jsonable() == json.loads(text)
    back = type(value).from_jsonable(json.loads(text))
    assert dumps(back) == text


def test_golden_json_covers_every_registered_type():
    _golden_values()  # imports every module that registers a type
    tags = {json.loads(text)["type"] for text in GOLDEN_JSON.values()}
    assert tags == set(_REGISTRY)


def test_golden_json_decodes_nested_values_only_where_declared():
    from projclt.deconvolution import DeconvCertificate, DeconvParams

    report = loads(GOLDEN_JSON["ratio_report"])
    assert type(report.meta["body"]) is dict
    batch = loads(GOLDEN_JSON["sample_batch"])
    assert type(batch.source["spec"]) is dict
    cert = loads(GOLDEN_JSON["deconv_certificate"])
    assert isinstance(cert.params, DeconvParams)
    sandwich = loads(GOLDEN_JSON["sandwich_report"])
    assert isinstance(sandwich.certificate, DeconvCertificate)
    assert isinstance(sandwich.certificate.params, DeconvParams)


def test_a_certificate_needs_its_params():
    payload = json.loads(GOLDEN_JSON["deconv_certificate"])
    payload["params"] = None
    with pytest.raises(InvalidSpec, match="params must be a DeconvParams"):
        from_jsonable(payload)


@pytest.mark.parametrize("value", ['"0.5"', "true", "1"], ids=["str", "bool", "int"])
def test_a_float_key_takes_only_a_json_float(value):
    # float() takes each of these, and dumps would write 0.5, 1.0 and 1.0:
    # a decoded value that does not re-encode to its own bytes.
    text = '{"type": "gaussian_spec", "dimension": 3, "variance": 0.5}'
    assert dumps(loads(text)) == text
    with pytest.raises(InvalidSpec, match="variance"):
        loads(text.replace("0.5", value))


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_every_float_key_refuses_a_string_a_bool_and_an_int(name):
    payload = json.loads(GOLDEN_JSON[name])
    for key, value in payload.items():
        if type(value) is float:
            for bad in (repr(value), True, 1):
                with pytest.raises(InvalidSpec, match=re.escape(key)):
                    from_jsonable({**payload, key: bad})


def _golden_with(name, **edits):
    return {**json.loads(GOLDEN_JSON[name]), **edits}


@pytest.mark.parametrize(
    "payload, key",
    [
        pytest.param(_golden_with("ratio_report", radius_grid=[0, 1]), "radius_grid", id="int_grid"),
        pytest.param(_golden_with("gaussian_spec", extra=1), "extra", id="extra_key"),
        pytest.param(_golden_with("body_spec", kind="laplace"), "kind", id="alias"),
        pytest.param(
            _golden_with("subspace_basis", ambient_dim=2, subspace_dim=1, rows=[[1, 0]]), "rows",
            id="int_rows",
        ),
        pytest.param(
            _golden_with("sandwich_report", sup_abs_deviation=0.25), "sup_abs_deviation",
            id="foreign_key",
        ),
    ],
)
def test_a_payload_is_accepted_only_as_the_encoding_of_the_value_it_rebuilds(payload, key):
    # Each decodes to a valid value that re-encodes to other bytes.
    with pytest.raises(InvalidSpec, match=rf"(unknown key '{key}'|stored {key} .* disagrees)"):
        from_jsonable(payload)


@pytest.mark.parametrize(
    "payload, key",
    [
        pytest.param(_golden_with("sandwich_report", status="bogus"), "status", id="status"),
        pytest.param(_golden_with("sandwich_report", body="dodecahedron"), "body", id="body"),
        pytest.param(
            _golden_with("sandwich_report", certificate=json.loads(_PARAMS_JSON)), "certificate",
            id="certificate",
        ),
    ],
)
def test_a_sandwich_report_refuses_a_field_outside_its_closed_set(payload, key):
    # Each re-encoded to its own bytes before the report checked these fields.
    with pytest.raises(InvalidSpec, match=f"^{key} must be"):
        from_jsonable(payload)


@pytest.mark.parametrize("tag", sorted(_REGISTRY))
def test_decoder_names_the_type_and_the_missing_key(tag):
    with pytest.raises(InvalidSpec, match=f"serialized {tag} is missing key '"):
        from_jsonable({"type": tag})
    payloads = [json.loads(t) for t in GOLDEN_JSON.values() if json.loads(t)["type"] == tag]
    assert payloads
    for payload in payloads:
        for key in payload:
            if key == "type":
                continue
            partial = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(InvalidSpec, match=f"serialized {tag} is missing key '{key}'"):
                from_jsonable(partial)


def test_a_ratio_report_without_meta_is_refused():
    payload = json.loads(GOLDEN_JSON["ratio_report"])
    del payload["meta"]
    with pytest.raises(InvalidSpec, match="serialized ratio_report is missing key 'meta'"):
        from_jsonable(payload)


# ----------------------------------------------------------- positive reals


def _positive_real_entries():
    """(call taking the bad value, exception class, name in the message) per entry."""
    from projclt.cli import projected_ratio
    from projclt.deconvolution import (
        DeconvParams, body_convolved_density_1d, body_density_1d, grid_convolve,
    )
    from projclt.density import estimate_density, ratio_to_gaussian
    from projclt.errors import RangeError
    from projclt.radial import thin_shell_fraction
    from projclt.samplers import SampleBatch
    from projclt.spherical import KernelParams, gaussian_density, psi_gaussian_ratio_scan

    projected = SampleBatch(data=np.linspace(-1.0, 1.0, 10_000)[:, None], seed=None, source={})
    norms = SampleBatch(data=np.array([[1.0]]), seed=None, source={})
    deconv = dict(n=2, alpha=1e-24, beta=0.5, epsilon=0.005, hypothesis_radius=3.0)
    entries = [
        ("GaussianSpec.variance", lambda v: GaussianSpec(3, v), InvalidSpec, "variance"),
        ("DensityEstimate.bandwidth", lambda v: _estimate(bandwidth=v), InvalidSpec, "bandwidth"),
        ("KernelParams.r", lambda v: KernelParams(5, 2, v), InvalidSpec, "radius"),
        *(
            (f"DeconvParams.{name}", lambda v, name=name: DeconvParams(**{**deconv, name: v}),
             InvalidSpec, name)
            for name in ("alpha", "beta", "epsilon", "hypothesis_radius", "c0")
        ),
        ("estimate_density.bandwidth", lambda v: estimate_density(projected, [[0.0]], v),
         InvalidSpec, "bandwidth"),
        ("ratio_to_gaussian.max_radius", lambda v: ratio_to_gaussian(_estimate(), 1.0, v),
         RangeError, "max_radius"),
        ("projected_ratio.max_radius",
         lambda v: projected_ratio(BodySpec("cube", 3), 10_000, 1, 1, 2, v, 5),
         RangeError, "max_radius"),
        ("gaussian_density.variance", lambda v: gaussian_density(1, v, 0.0), RangeError,
         "variance"),
        ("grid_convolve.spacing", lambda v: grid_convolve(np.ones(4), v, 0.3), RangeError,
         "spacing"),
        ("grid_convolve.variance", lambda v: grid_convolve(np.ones(4), 0.01, v), RangeError,
         "variance"),
        ("body_convolved_density_1d.alpha", lambda v: body_convolved_density_1d("uniform", 0.0, v),
         RangeError, "alpha"),
        ("body_density_1d.alpha", lambda v: body_density_1d("gaussian_deflated", 0.0, v),
         RangeError, "alpha"),
        ("psi_gaussian_ratio_scan.t_max", lambda v: psi_gaussian_ratio_scan(100, 1, v, 5),
         RangeError, "t_max"),
        ("thin_shell_fraction.epsilon", lambda v: thin_shell_fraction(norms, v, 1), RangeError,
         "epsilon"),
    ]
    return [pytest.param(call, error, name, id=entry) for entry, call, error, name in entries]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("call, error, name", _positive_real_entries())
def test_every_positive_real_refuses_what_is_not_positive_and_finite(call, error, name, bad):
    with pytest.raises(error, match=f"{name} must be positive"):
        call(bad)


@pytest.mark.parametrize("bad", [True, np.True_, "0.5"], ids=["bool", "numpy_bool", "str"])
@pytest.mark.parametrize("call, error, name", _positive_real_entries())
def test_every_positive_real_refuses_a_bool_and_a_string(call, error, name, bad):
    with pytest.raises(InvalidSpec, match=f"{name} must be a number"):
        call(bad)
