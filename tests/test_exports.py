"""Export lists: every public name a module declares must exist, and
wrong-typed arguments to public entry points raise ValueError."""

import importlib
import math
import os
import pkgutil

import numpy as np
import pytest

import toposcan
from toposcan import (
    BranchPair,
    FeatureMap,
    GateConfig,
    GridShape,
    ScanCache,
    Scenario,
    SsmParams,
    StageModel,
    aggregate,
    analytic_hit_rate,
    build_cross_indices,
    build_topoa_indices,
    default_params,
    discretize,
    emit_report,
    fuse_with_diagnostics,
    gate_weight,
    multi_direction_scan,
    run_scenario,
    scan_sequence,
)
from toposcan.bench import check_requests
from toposcan.hsic_gate import effective_projection_width
from toposcan.mask_io import binarize, read_manifest, read_mask, write_mask_pbm, write_mask_raw
from toposcan.topo_metrics import TopoErrors, topo_summary

MODULES = sorted(
    f"toposcan.{info.name}" for info in pkgutil.iter_modules(toposcan.__path__)
)


@pytest.mark.parametrize("module_name", ["toposcan", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"



DATA = np.ones((1, 2, 6))
FM = FeatureMap(DATA, GridShape(2, 3))
PAIR = build_topoa_indices(GridShape(2, 3))
BRANCHES = BranchPair(f_cross=DATA, f_topoa=DATA)
OBJECT_MASK = np.array([[None, 1], ["a", 0]], dtype=object)
STR_MASK = np.array([["0", "1"], ["1", "0"]])


def params_with(**arrays):
    """SsmParams with the default's a, b and c, except those given."""
    default = default_params()
    fields = {"a": default.a, "b": default.b, "c": default.c, **arrays}
    return SsmParams(**fields, d=default.d, delta=default.delta)


WRONG_TYPED_CALLS = {
    "FeatureMap-shape-tuple": lambda: FeatureMap(DATA, (2, 3)),
    "multi_direction_scan-indices-tuple": lambda: multi_direction_scan(
        FM, (1, 2), default_params()
    ),
    "multi_direction_scan-params-None": lambda: multi_direction_scan(FM, PAIR, None),
    "get_or_build-key-tuple": lambda: ScanCache().get_or_build((2, 2)),
    "fuse_with_diagnostics-cfg-dict": lambda: fuse_with_diagnostics(BRANCHES, {"rho": 0.1}),
    "fuse_with_diagnostics-pair-tuple": lambda: fuse_with_diagnostics((DATA, DATA)),
    "gate_weight-cfg-None": lambda: gate_weight(0.1, None),
    "gate_weight-hsic-str": lambda: gate_weight("a", GateConfig()),
    "effective_projection_width-d_proj-str": lambda: effective_projection_width("a", 3),
    "build_topoa_indices-shape-tuple": lambda: build_topoa_indices((2, 3)),
    "build_cross_indices-shape-tuple": lambda: build_cross_indices((2, 3)),
    "discretize-params-None": lambda: discretize(None),
    "scan_sequence-params-None": lambda: scan_sequence(np.ones(3), None),
    "check_requests-scenario-None": lambda: check_requests(None, StageModel()),
    "analytic_hit_rate-stages-tuple": lambda: analytic_hit_rate(Scenario("fixed"), (4, 8)),
    "run_scenario-scenario-str": lambda: run_scenario("fixed"),
    "emit_report-report-None": lambda: emit_report(None),
    "aggregate-items-None": lambda: aggregate(None),
    "ScanCache-builder-str": lambda: ScanCache(builder="a"),
    "read_mask-path-None": lambda: read_mask(None),
    "read_manifest-path-None": lambda: read_manifest(None),
    "write_mask_raw-path-None": lambda: write_mask_raw(None, np.ones((2, 2), np.uint8)),
    "write_mask_pbm-path-None": lambda: write_mask_pbm(None, np.ones((2, 2), np.uint8)),
    "binarize-labels-None": lambda: binarize(None, 1),
    "binarize-labels-str": lambda: binarize("a", 1),
    "binarize-labels-object": lambda: binarize(np.array([[None, 1]], dtype=object), 1),
    "binarize-class_id-str": lambda: binarize(np.ones((2, 2), np.uint8), "1"),
    "binarize-class_id-float": lambda: binarize(np.ones((2, 2), np.uint8), 1.0),
    "topo_summary-mask-object": lambda: topo_summary(np.array([[None, 1]], dtype=object)),
    "write_mask_raw-mask-object": lambda: write_mask_raw(os.devnull, OBJECT_MASK),
    "write_mask_raw-mask-str": lambda: write_mask_raw(os.devnull, STR_MASK),
    "write_mask_pbm-mask-object": lambda: write_mask_pbm(os.devnull, OBJECT_MASK),
    "write_mask_pbm-mask-str": lambda: write_mask_pbm(os.devnull, STR_MASK),
    "FeatureMap-data-complex": lambda: FeatureMap(DATA + 1j, GridShape(2, 3)),
    "BranchPair-f_cross-complex": lambda: BranchPair(f_cross=DATA + 1j, f_topoa=DATA),
    "SsmParams-a-complex": lambda: params_with(a=default_params().a + 1j),
    "SsmParams-b-str": lambda: params_with(b=np.array(["1", "1", "1", "1"])),
    "SsmParams-c-object": lambda: params_with(c=np.ones(4, dtype=object)),
    "scan_sequence-x-str": lambda: scan_sequence(np.array(["1", "2"]), default_params()),
    "GateConfig-alpha-beyond-float": lambda: GateConfig(alpha=10**400),
    "SsmParams-d-beyond-float": lambda: SsmParams(
        a=[-1.0], b=[1.0], c=[1.0], d=10**400, delta=0.1
    ),
    "gate_weight-hsic-beyond-float": lambda: gate_weight(10**400, GateConfig()),
    "BranchPair.from_feature_maps-cross-None": lambda: BranchPair.from_feature_maps(None, FM),
    "TopoErrors-cce-str": lambda: aggregate([TopoErrors("a", 0, 0)]),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPED_CALLS))
def test_wrong_typed_arguments_raise_value_error(case):
    with pytest.raises(ValueError, match="must be"):
        WRONG_TYPED_CALLS[case]()


# A longdouble of 1e4000 is finite as itself and inf as a float64.
NON_FINITE = {
    "nan": math.nan,
    "-inf": -math.inf,
    "float32-inf": np.float32("inf"),
    "longdouble-1e4000": np.longdouble("1e4000"),
    "int-1e400": 10**400,
    "int--1e400": -(10**400),
}

REAL_SETTINGS = {
    "GateConfig-alpha": lambda v: GateConfig(alpha=v),
    "GateConfig-rho": lambda v: GateConfig(rho=v),
    "gate_weight-hsic": lambda v: gate_weight(v, GateConfig()),
    "SsmParams-d": lambda v: SsmParams(a=[-1.0], b=[1.0], c=[1.0], d=v, delta=0.1),
}


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("call", REAL_SETTINGS.values(), ids=REAL_SETTINGS.keys())
def test_real_settings_must_be_finite(call, value):
    with pytest.raises(ValueError, match=r"must be finite, got (-?inf|nan)$"):
        call(value)


FLOAT_ARRAYS = {
    "FeatureMap-data": lambda arr: FeatureMap(arr.reshape(1, 1, 2), GridShape(1, 2)),
    "BranchPair-f_topoa": lambda arr: BranchPair(
        f_cross=np.ones((1, 1, 2)), f_topoa=arr.reshape(1, 1, 2)
    ),
    "SsmParams-b": lambda arr: SsmParams(a=[-1.0, -2.0], b=arr, c=[1.0, 1.0], d=0.0, delta=0.1),
    "scan_sequence-x": lambda arr: scan_sequence(arr, default_params()),
}


@pytest.mark.parametrize("value", list(NON_FINITE.values())[:4], ids=list(NON_FINITE)[:4])
@pytest.mark.parametrize("call", FLOAT_ARRAYS.values(), ids=FLOAT_ARRAYS.keys())
def test_float_arrays_must_be_finite(call, value):
    arr = np.array([1, value], dtype=np.asarray(value).dtype)
    with pytest.raises(ValueError, match="must be finite$"):
        call(arr)
