"""The public names: declared once in each module, re-exported by the package."""
from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import pathlib

import gcdheights
from gcdheights import HomPoly, PrimeSet

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

MODULES = ("arith", "elliptic", "gcd_height", "mulgrp", "experiments")

# Second routes to quantities the sweeps compute; removed from the library.
DELETED = {
    "arith": ("ord_p", "v_plus", "ARCH"),
    "mulgrp": ("MulPoint", "MulDivSeq", "power", "mul_D", "mul_seq"),
    "elliptic": ("EDS", "gcd_D", "hgcd_e2", "hgcd_e2_local_sum", "siegel_ratio",
                 "DOUBLING_CAP", "exceptional_subgroups"),
    "gcd_height": ("BoundRecord", "vojta_rhs", "normalize_pn", "hgcd_pn_coordpoint"),
    "experiments": ("fit_constant", "fit_constant_records", "detect_exceptional"),
}


def test_public_names_are_declared_once():
    modules = [importlib.import_module(f"gcdheights.{m}") for m in MODULES]
    declared = [name for mod in modules for name in mod.__all__]
    assert gcdheights.__all__ == declared
    assert len(set(declared)) == len(declared)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(gcdheights, name) is getattr(mod, name)
    star: dict = {}
    exec("from gcdheights import *", star)
    assert set(star) - {"__builtins__"} == set(declared)
    for mod, names in DELETED.items():
        for name in names:
            assert not hasattr(gcdheights, name)
            assert not hasattr(importlib.import_module(f"gcdheights.{mod}"), name)
    assert not hasattr(HomPoly, "degree")
    assert [f.name for f in dataclasses.fields(PrimeSet)] == ["primes"]
    assert "fittable" not in {f.name for f in dataclasses.fields(gcdheights.KindSpec)}


def test_names_the_benchmark_traces_exist():
    # the benchmark's tracer wraps these by name and fails on a missing one
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = tracer.SPANNED + tracer.COUNTED + tracer.CONSTRUCTED
    assert wrapped
    for module, name in wrapped:
        assert callable(getattr(importlib.import_module(f"gcdheights.{module}"), name))
